package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"deepplan"
	"deepplan/internal/capacity"
	"deepplan/internal/serving"
	"deepplan/internal/sim"
	gen "deepplan/internal/workload"
)

// workload is one named input mix of the benchmark. prepare generates the
// inputs from the seed (never timed) and returns, for each, the set-up
// step that builds a fresh fleet for it. One repetition serves every
// input; the fleet statistics are medians over the inputs. BENCHMARK.json
// and README.md give each workload's rationale and its held-out seed.
type workload struct {
	name string
	seed int64 // default seed
	// observed workloads attach a trace recorder and a metrics registry to
	// every run; the others attach them only in the traced run's probe of
	// observation overhead.
	observed bool
	// probe is how many arrivals the traced run's observation-overhead
	// probe serves with and without observers; 0 means no probe.
	probe   int
	prepare func(seed int64, tiny bool) ([]setupFunc, error)
}

// setupFunc builds a fleet ready to serve and returns the run that serves
// the prepared input on it.
type setupFunc func(t *tracer, o fleetOpts) (runFunc, error)

// fleetOpts selects how a fleet is built for one repetition.
type fleetOpts struct {
	// observe attaches a trace recorder and a metrics registry, and the
	// run exports both.
	observe bool
	// limit, when positive, serves only the first limit arrivals.
	limit int
}

// arrivals returns the prefix of reqs the options ask for.
func arrivals[T any](reqs []T, o fleetOpts) []T {
	if o.limit > 0 && o.limit < len(reqs) {
		return reqs[:o.limit]
	}
	return reqs
}

// runFunc serves the prepared input once and reports what the simulated
// fleet did.
type runFunc func(t *tracer) (outcome, error)

// outcome is one run's simulated result, read from the program's report.
type outcome struct {
	attempted int // simulated arrivals (grid points on capacity-search)
	failed    int // shed, lost or errored among them
	served    int // simulated requests run to completion

	p50, p99, coldP99, ttftP99 sim.Duration
	goodput                    float64
	sustainedRPS               float64

	// digest hashes the full simulated report: equal inputs must give
	// equal digests, traced or not.
	digest string
	// counts are per-layer work counts read from the report.
	counts map[string]float64
	// exportBytes is what the trace and OpenMetrics exports wrote.
	traceBytes, metricsBytes int64
	// heapBytes is the heap in use after the run, before any export.
	heapBytes uint64
}

var workloads = []workload{
	{
		name:    "maf-replay",
		seed:    2023,
		probe:   1500,
		prepare: prepareMAF,
	},
	{
		name:    "zoo-fleet",
		seed:    42,
		probe:   300,
		prepare: prepareZoo,
	},
	{
		name:     "llm-observed",
		seed:     77,
		observed: true,
		probe:    1 << 30, // the whole input
		prepare:  prepareLLM,
	},
	{
		name:    "capacity-search",
		seed:    42,
		prepare: prepareCapacity,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const ms = sim.Millisecond

// observers returns a fresh trace recorder and metrics registry, or nils.
func observers(on bool) (*deepplan.TraceRecorder, *deepplan.MetricsRegistry) {
	if !on {
		return nil, nil
	}
	return deepplan.NewTraceRecorder(), deepplan.NewMetricsRegistry()
}

// countingWriter discards what it is given and counts the bytes.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// export writes both observation exports to discarding writers, as a user
// of an observed run would, and records the bytes each produced.
func export(t *tracer, out *outcome, rec *deepplan.TraceRecorder, reg *deepplan.MetricsRegistry) error {
	if rec == nil {
		return nil
	}
	var tw, mw countingWriter
	end := t.begin("trace.Export")
	err := deepplan.WriteTrace(&tw, rec, nil)
	end()
	if err != nil {
		return fmt.Errorf("trace export: %w", err)
	}
	end = t.begin("monitor.Export")
	err = reg.WriteOpenMetrics(&mw)
	end()
	if err != nil {
		return fmt.Errorf("openmetrics export: %w", err)
	}
	out.traceBytes, out.metricsBytes = tw.n, mw.n
	return nil
}

var heapSample = []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}

// heapInUse reads the bytes of heap objects, live or not yet collected,
// without stopping the world.
func heapInUse() uint64 {
	metrics.Read(heapSample)
	return heapSample[0].Value.Uint64()
}

// lost is the outcome of a run that errored or failed a check: every
// arrival counts as failed.
func lost(arrivals int) outcome { return outcome{attempted: arrivals, failed: arrivals} }

func digestOf(v any) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%+v", v)))
	return hex.EncodeToString(h[:8])
}

// horizonSeconds is the span of the arrival schedule in simulated seconds.
func horizonSeconds(last sim.Time) float64 {
	if s := last.Seconds(); s > 0 {
		return s
	}
	return 1
}

// ---- maf-replay -----------------------------------------------------------

// mafTraceSeed is fig15's trace seed: it fixes which functions are
// sustained, fluctuating, spiky or rare, and their rates.
const mafTraceSeed = 2023

// prepareMAF cuts the inputs out of one long fig15 trace: the run's seed
// picks where each window starts, so every seed replays the same fleet
// under different stretches of its traffic.
func prepareMAF(seed int64, tiny bool) ([]setupFunc, error) {
	traceLen := 60 * 60 * sim.Second
	window := 30 * sim.Second
	inputs := 24
	if tiny {
		traceLen, window, inputs = 2*60*sim.Second, 10*sim.Second, 2
	}
	trace, err := deepplan.MAFWorkload(mafTraceSeed, traceLen, 150, 48+48+12)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var fleets []setupFunc
	for i := 0; i < inputs; i++ {
		start := sim.Time(rng.Int63n(int64(traceLen - window)))
		var reqs []deepplan.Request
		for _, r := range trace {
			if r.At >= start && r.At < start.Add(window) {
				r.At -= start
				reqs = append(reqs, r)
			}
		}
		fleets = append(fleets, mafFleet(reqs))
	}
	return fleets, nil
}

// mafFleet is fig15's PT+DHA server: one p3.8xlarge with BERT-Base,
// RoBERTa-Base and GPT-2 instances at 48:48:12, warmed up.
func mafFleet(reqs []deepplan.Request) setupFunc {
	names := []string{"bert-base", "roberta-base", "gpt2"}
	counts := []int{48, 48, 12}
	platform := deepplan.NewP38xlarge()
	return func(t *tracer, o fleetOpts) (runFunc, error) {
		rec, reg := observers(o.observe)
		reqs := arrivals(reqs, o)
		var (
			srv   *deepplan.Server
			clock *sim.Simulator
			topo  *deepplan.Topology
			err   error
		)
		if t == nil {
			srv, err = platform.NewServer(deepplan.ServerOptions{
				Policy: deepplan.ModePTDHA, SLO: 100 * ms, Trace: rec, Monitor: reg,
			})
		} else {
			// The traced run owns the clock and the topology, so it can read
			// the event count and the link counters afterwards. The fleet is
			// the one NewServer builds.
			end := t.begin("serving.NewServer")
			clock, topo = sim.New(), platform.Topology()
			srv, err = serving.New(serving.Config{
				Topo: topo, Cost: platform.Cost(), Policy: serving.PolicyPTDHA,
				SLO: 100 * ms, Sim: clock, Trace: rec, Monitor: reg,
			})
			end()
		}
		if err != nil {
			return nil, err
		}
		for i, name := range names {
			end := t.begin("dnn.LoadModel")
			m, err := deepplan.LoadModel(name)
			end()
			if err != nil {
				return nil, err
			}
			end = t.begin("serving.Deploy")
			err = srv.Deploy(m, counts[i])
			end()
			if err != nil {
				return nil, err
			}
		}
		end := t.begin("serving.Warmup")
		srv.Warmup()
		end()
		return func(t *tracer) (outcome, error) {
			end := t.begin("serving.Run")
			var rep *deepplan.Report
			var err error
			if clock == nil {
				rep, err = srv.Run(reqs)
			} else {
				var submitErr error
				for _, r := range reqs {
					r := r
					clock.At(r.At, func() {
						if err := srv.Submit(r); err != nil && submitErr == nil {
							submitErr = err
						}
					})
				}
				clock.Run()
				rep, err = srv.Finish()
				if err == nil {
					err = submitErr
				}
			}
			end()
			if err != nil {
				return lost(len(reqs)), err
			}
			out := outcome{heapBytes: heapInUse()}
			if err := export(t, &out, rec, reg); err != nil {
				return lost(len(reqs)), err
			}
			if err := srv.CheckInvariants(); err != nil {
				return lost(len(reqs)), fmt.Errorf("invariants: %w", err)
			}
			all, _, _ := srv.Digests()
			out.fromServer(rep, len(reqs), all.Count(), reqs[len(reqs)-1].At)
			if clock != nil {
				out.counts["sim.events"] = float64(clock.EventsFired())
				out.addLinks(topo, clock.Now())
			}
			return out, nil
		}, nil
	}
}

// fromServer fills the outcome from a single server's report. completed is
// the count of requests the latency digest recorded.
func (o *outcome) fromServer(rep *deepplan.Report, arrivals, completed int, last sim.Time) {
	o.attempted = arrivals
	o.served = completed
	o.failed = arrivals - completed
	o.p50, o.p99, o.coldP99 = rep.P50, rep.P99, rep.ColdP99
	o.ttftP99 = rep.P99
	if rep.TTFTP99 > 0 {
		o.ttftP99 = rep.TTFTP99
	}
	o.goodput = rep.Goodput
	o.sustainedRPS = float64(completed) / horizonSeconds(last)
	o.digest = digestOf(*rep)
	if completed+rep.Shed != arrivals {
		o.failed = arrivals
	}
	o.counts = map[string]float64{
		"serving.cold_starts":       float64(rep.ColdStarts),
		"serving.cold_ratio":        rep.ColdStartRate,
		"serving.evictions":         float64(rep.Evictions),
		"serving.relocations":       float64(rep.Relocations),
		"serving.pt_fallbacks":      float64(rep.PTFallbacks),
		"hostmem.hit_ratio":         ratio(rep.HostHits, rep.HostHits+rep.HostMisses),
		"hostmem.fetches":           float64(rep.HostMisses),
		"hostmem.evictions":         float64(rep.HostEvictions),
		"serving.decode_iters":      float64(rep.DecodeIters),
		"serving.mean_decode_batch": rep.MeanDecodeBatch,
		"gpumem.kv_deferred":        float64(rep.KVDeferred),
		"serving.kv_transfers":      float64(rep.KVTransfers),
		"cluster.route_imbalance":   1,
		"cluster.prewarms":          float64(rep.Prewarms),
		"cluster.wakes":             float64(rep.Wakes),
		"cluster.sleeps":            float64(rep.Sleeps),
		"cluster.swap_ins":          float64(rep.SwapIns),
	}
}

// addLinks records the simulated PCIe traffic and switch-uplink load of the
// topology the run owned.
func (o *outcome) addLinks(topo *deepplan.Topology, now sim.Time) {
	var bytes float64
	for _, g := range topo.GPUs {
		bytes += g.Lane.BytesCarried()
	}
	var busy sim.Duration
	for _, l := range topo.Uplinks {
		busy += l.BusyTime()
	}
	o.counts["simnet.pcie_gb"] = bytes / 1e9
	if len(topo.Uplinks) > 0 && now > 0 {
		o.counts["simnet.uplink_busy_frac"] = busy.Seconds() / float64(len(topo.Uplinks)) / now.Seconds()
	}
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// ---- cluster workloads ----------------------------------------------------

// clusterRun returns the run that serves reqs on c and exports what the
// observers collected.
func clusterRun(c *deepplan.Cluster, reqs []deepplan.ClusterRequest,
	rec *deepplan.TraceRecorder, reg *deepplan.MetricsRegistry) runFunc {
	return func(t *tracer) (outcome, error) {
		end := t.begin("cluster.Run")
		rep, err := c.Run(reqs)
		end()
		if err != nil {
			return lost(len(reqs)), err
		}
		out := outcome{heapBytes: heapInUse()}
		if err := export(t, &out, rec, reg); err != nil {
			return lost(len(reqs)), err
		}
		if err := c.CheckInvariants(); err != nil {
			return lost(len(reqs)), fmt.Errorf("invariants: %w", err)
		}
		out.fromCluster(rep, len(reqs), reqs[len(reqs)-1].At)
		return out, nil
	}
}

// fromCluster fills the outcome from a cluster report.
func (o *outcome) fromCluster(rep *deepplan.ClusterReport, arrivals int, last sim.Time) {
	routed, maxRouted := 0, 0
	for _, n := range rep.PerNode {
		routed += n.Routed
		maxRouted = max(maxRouted, n.Routed)
	}
	completed := rep.Requests - rep.Shed
	o.attempted = arrivals
	o.served = completed
	o.failed = rep.Shed
	if routed != arrivals || rep.Requests != arrivals {
		o.failed = arrivals
	}
	o.p50, o.p99, o.coldP99 = rep.P50, rep.P99, rep.ColdP99
	o.ttftP99 = rep.P99
	if rep.TTFTP99 > 0 {
		o.ttftP99 = rep.TTFTP99
	}
	o.goodput = rep.Goodput
	o.sustainedRPS = float64(completed) / horizonSeconds(last)
	o.digest = digestOf(*rep)
	imbalance := 0.0
	if routed > 0 {
		imbalance = float64(maxRouted) * float64(len(rep.PerNode)) / float64(routed)
	}
	o.counts = map[string]float64{
		"serving.cold_starts":       float64(rep.ColdStarts),
		"serving.cold_ratio":        ratio(rep.ColdStarts, rep.Requests),
		"serving.evictions":         float64(rep.Evictions),
		"serving.relocations":       float64(rep.Relocations),
		"hostmem.hit_ratio":         ratio(rep.HostHits, rep.HostHits+rep.HostMisses),
		"hostmem.fetches":           float64(rep.HostMisses),
		"hostmem.evictions":         float64(rep.HostEvictions),
		"serving.decode_iters":      float64(rep.DecodeIters),
		"serving.mean_decode_batch": rep.MeanDecodeBatch,
		"gpumem.kv_deferred":        float64(rep.KVDeferred),
		"serving.kv_transfers":      float64(rep.KVTransfers),
		"cluster.route_imbalance":   imbalance,
		"cluster.scale_ups":         float64(rep.ScaleUps),
		"cluster.scale_downs":       float64(rep.ScaleDowns),
		"cluster.prewarms":          float64(rep.Prewarms),
		"cluster.wakes":             float64(rep.Wakes),
		"cluster.sleeps":            float64(rep.Sleeps),
		"cluster.swap_ins":          float64(rep.SwapIns),
	}
}

// ---- zoo-fleet --------------------------------------------------------------

func prepareZoo(seed int64, tiny bool) ([]setupFunc, error) {
	nodes, variants, n, rate := 16, 100_000, 8000, 800.0
	if tiny {
		nodes, variants, n, rate = 2, 500, 200, 40
	}
	spec := deepplan.ZooSpec{N: variants}
	// The input depends only on the zoo's derivation; set-up derives its
	// own copy, as a fresh process would.
	z, err := deepplan.NewModelZoo(spec)
	if err != nil {
		return nil, err
	}
	reqs := deepplan.ZooClusterRequests(z, z.Requests(seed, rate, n))
	platform := deepplan.NewP38xlarge()
	return []setupFunc{func(t *tracer, o fleetOpts) (runFunc, error) {
		rec, reg := observers(o.observe)
		reqs := arrivals(reqs, o)
		end := t.begin("registry.NewModelZoo")
		z, err := deepplan.NewModelZoo(spec)
		end()
		if err != nil {
			return nil, err
		}
		end = t.begin("cluster.NewCluster")
		c, err := platform.NewCluster(deepplan.ClusterOptions{
			Nodes: nodes, Route: deepplan.RouteAffinity, SLO: 100 * ms,
			HostPolicy: deepplan.HostPolicyCostAware, Pack: deepplan.PackDense,
			Trace: rec, Monitor: reg,
		})
		end()
		if err != nil {
			return nil, err
		}
		end = t.begin("serving.Deploy")
		err = c.DeployZoo(z)
		end()
		if err != nil {
			return nil, err
		}
		end = t.begin("serving.Warmup")
		c.Warmup()
		end()
		return clusterRun(c, reqs, rec, reg), nil
	}}, nil
}

// ---- llm-observed -----------------------------------------------------------

// llmShape sizes llm-observed's fleet and its traffic.
type llmShape struct {
	nodes, replicas int
	rate            float64
	duration        sim.Duration
}

func prepareLLM(seed int64, tiny bool) ([]setupFunc, error) {
	shape := llmShape{nodes: 8, replicas: 64, rate: 15, duration: 10 * sim.Second}
	inputs := 32
	if tiny {
		shape, inputs = llmShape{nodes: 2, replicas: 8, rate: 10, duration: 10 * sim.Second}, 2
	}
	m, err := deepplan.LoadModel("gpt2")
	if err != nil {
		return nil, err
	}
	var fleets []setupFunc
	for i := 0; i < inputs; i++ {
		seed := inputSeed(seed, i)
		// fig-forecast's shape: every function Spiky, bursts phase-aligned.
		tr, err := gen.MAFLike(gen.TraceSpec{
			Seed: seed, Duration: shape.duration, TotalRate: shape.rate, NumFunctions: shape.replicas,
			Mix:        map[gen.FunctionClass]float64{gen.Spiky: 1},
			BurstEvery: 5 * sim.Second, BurstLen: sim.Second,
		})
		if err != nil {
			return nil, err
		}
		reqs := deepplan.ClusterRequests(m.Name, deepplan.AssignTokens(tr.Requests, seed, 256, 32))
		fleets = append(fleets, llmFleet(shape, reqs))
	}
	return fleets, nil
}

// llmFleet is a cold fleet of GPT-2 replicas decoding with continuous
// batching and prefill/decode disaggregation, routed by affinity and
// scaled by the predictive autoscaler.
func llmFleet(shape llmShape, reqs []deepplan.ClusterRequest) setupFunc {
	nodes, replicas := shape.nodes, shape.replicas
	platform := deepplan.NewP38xlarge()
	return func(t *tracer, o fleetOpts) (runFunc, error) {
		rec, reg := observers(o.observe)
		reqs := arrivals(reqs, o)
		var alerts *deepplan.SLOConfig
		if o.observe {
			alerts = &deepplan.SLOConfig{}
		}
		end := t.begin("cluster.NewCluster")
		c, err := platform.NewCluster(deepplan.ClusterOptions{
			Nodes: nodes, Route: deepplan.RouteAffinity, SLO: 300 * ms,
			LLM: deepplan.LLMOptions{
				Enabled: true, Batching: deepplan.LLMBatchContinuous, PrefillDecode: true,
			},
			Autoscale: deepplan.AutoscaleConfig{
				Enabled: true, Policy: deepplan.AutoscalePredictive,
				Interval: 500 * ms, Horizon: 2 * sim.Second, TargetUtil: 0.5,
			},
			Trace: rec, Monitor: reg, Alerts: alerts,
		})
		end()
		if err != nil {
			return nil, err
		}
		end = t.begin("dnn.LoadModel")
		m, err := deepplan.LoadModel("gpt2")
		end()
		if err != nil {
			return nil, err
		}
		end = t.begin("serving.Deploy")
		err = c.Deploy(m, replicas)
		end()
		if err != nil {
			return nil, err
		}
		// No Warmup: the fleet starts cold, as a serverless fleet does.
		return clusterRun(c, reqs, rec, reg), nil
	}
}

// ---- capacity-search --------------------------------------------------------

// capacityWorkers is the sweep's pool size: one worker per CPU.
func capacityWorkers() int { return runtime.NumCPU() }

func prepareCapacity(seed int64, tiny bool) ([]setupFunc, error) {
	// Every field is spelled out so the probe schedule can be replayed
	// below; the values are the package defaults except the shorter
	// offered-load window.
	spec := capacity.SearchSpec{
		SLO: 300 * ms, GoodputTarget: 0.95, Workload: capacity.WorkloadPoisson,
		Duration: 250 * ms, Model: "bert-base", Replicas: 150,
		MinRate: 10, MaxRate: 1200, Step: 10,
	}
	space := capacity.DefaultSpace()
	inputs := 4
	if tiny {
		spec.Duration, spec.MaxRate, spec.Step = 200*ms, 200, 40
		space.Topologies, space.Nodes = space.Topologies[:1], space.Nodes[:1]
	}
	var sweeps []setupFunc
	for i := 0; i < inputs; i++ {
		spec.Seed = inputSeed(seed, i)
		sweeps = append(sweeps, capacitySweep(space, spec))
	}
	return sweeps, nil
}

// capacitySweep sweeps the grid under one search spec.
func capacitySweep(space capacity.Space, spec capacity.SearchSpec) setupFunc {
	points := space.Points()
	return func(t *tracer, _ fleetOpts) (runFunc, error) {
		// Set-up is what every probe pays before it replays: a fresh
		// cluster of the first grid point with the spec's deployment.
		first := points[0]
		end := t.begin("cluster.NewCluster")
		c, err := deepplan.NewP38xlarge().NewCluster(deepplan.ClusterOptions{
			Nodes: first.Nodes, Policy: deepplan.Mode(first.Policy),
			Route: first.Route, SLO: spec.SLO, MaxBatch: first.MaxBatch,
		})
		end()
		if err != nil {
			return nil, err
		}
		end = t.begin("dnn.LoadModel")
		m, err := deepplan.LoadModel(spec.Model)
		end()
		if err != nil {
			return nil, err
		}
		end = t.begin("serving.Deploy")
		err = c.Deploy(m, spec.Replicas)
		end()
		if err != nil {
			return nil, err
		}
		end = t.begin("serving.Warmup")
		c.Warmup()
		end()
		return func(t *tracer) (outcome, error) {
			results, err := sweep(t, space, spec)
			if err != nil {
				return lost(len(points)), err
			}
			return capacityOutcome(spec, results)
		}, nil
	}
}

// sweep runs capacity.Sweep, or in the traced run times every grid point's
// Saturate call from a pool of the same size.
func sweep(t *tracer, space capacity.Space, spec capacity.SearchSpec) ([]capacity.Result, error) {
	workers := capacityWorkers()
	if t == nil {
		return capacity.Sweep(space, spec, capacity.DefaultPricing(), workers)
	}
	end := t.begin("capacity.Sweep")
	defer end()
	points := space.Points()
	results := make([]capacity.Result, len(points))
	errs := make([]error, len(points))
	starts, ends := make([]int64, len(points)), make([]int64, len(points))
	next := make(chan int)
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := range next {
				starts[i] = time.Since(t.origin).Nanoseconds()
				results[i], errs[i] = capacity.Saturate(points[i], spec, capacity.DefaultPricing())
				ends[i] = time.Since(t.origin).Nanoseconds()
			}
		}()
	}
	for i := range points {
		next <- i
	}
	close(next)
	for w := 0; w < workers; w++ {
		<-done
	}
	// Spans are appended on this goroutine only, after the pool is done.
	parent := t.open[len(t.open)-1]
	for i := range points {
		t.spans = append(t.spans, span{
			Name: "capacity.Saturate", StartNS: starts[i], EndNS: ends[i],
			Parent: parent, Workload: t.workload,
		})
		if errs[i] != nil {
			return nil, fmt.Errorf("%s: %w", points[i], errs[i])
		}
	}
	return results, nil
}

// capacityOutcome summarizes a sweep. The fleet statistics are taken over
// the grid points at their sustained rates: p50 is the median point's p99,
// p99 and cold p99 the worst point's, goodput the mean.
func capacityOutcome(spec capacity.SearchSpec, results []capacity.Result) (outcome, error) {
	out := outcome{attempted: len(results), digest: digestOf(results)}
	var p99s []float64
	var evals int
	for _, r := range results {
		probes := probeRates(spec, r.SustainedRPS)
		if len(probes) != r.Evals {
			return lost(len(results)), fmt.Errorf("%s: replayed %d probes, search made %d", r.Point, len(probes), r.Evals)
		}
		for _, rate := range probes {
			out.served += int(float64(rate)*spec.Duration.Seconds() + 0.5)
		}
		evals += r.Evals
		p99s = append(p99s, r.P99Ms)
		out.p99 = max(out.p99, sim.Duration(r.P99Ms*float64(ms)))
		out.coldP99 = max(out.coldP99, sim.Duration(r.ColdP99Ms*float64(ms)))
		out.goodput += r.Goodput / float64(len(results))
		out.sustainedRPS += float64(r.SustainedRPS)
	}
	slices.Sort(p99s)
	out.p50 = sim.Duration(p99s[(len(p99s)-1)/2] * float64(ms))
	out.ttftP99 = out.p99
	out.counts = map[string]float64{"capacity.evals": float64(evals)}
	return out, nil
}

// probeRates replays the saturation search's probe schedule for a point
// that sustained the given rate: the floor, then the ceiling, then a
// binary search in which a rate is feasible exactly when it is at most the
// sustained one.
func probeRates(spec capacity.SearchSpec, sustained int) []int {
	rates := []int{spec.MinRate}
	if sustained < spec.MinRate {
		return rates
	}
	rates = append(rates, spec.MaxRate)
	if sustained >= spec.MaxRate {
		return rates
	}
	lo, hi := spec.MinRate, spec.MaxRate
	for hi-lo > spec.Step {
		mid := lo + (hi-lo)/2
		rates = append(rates, mid)
		if mid <= sustained {
			lo = mid
		} else {
			hi = mid
		}
	}
	return rates
}
