package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"time"

	"deepplan"
)

// perLayer lists every per-layer metric the traced run reports, with its
// unit. README.md says which end-to-end metric each should move.
var perLayer = []struct{ name, unit string }{
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"engine.cold_run_us", "us"},
	{"engine.cold_run_allocs", "count"},
	{"engine.warm_run_us", "us"},
	{"engine.warm_run_allocs", "count"},
	{"simnet.pcie_gb", "GB"},
	{"simnet.uplink_busy_frac", "frac"},
	{"serving.deploy_s", "s"},
	{"serving.warmup_s", "s"},
	{"registry.new_s", "s"},
	{"serving.cold_starts", "count"},
	{"serving.cold_ratio", "frac"},
	{"serving.evictions", "count"},
	{"serving.relocations", "count"},
	{"serving.pt_fallbacks", "count"},
	{"hostmem.hit_ratio", "frac"},
	{"hostmem.fetches", "count"},
	{"hostmem.evictions", "count"},
	{"serving.decode_iters", "count"},
	{"serving.mean_decode_batch", "seqs"},
	{"gpumem.kv_deferred", "count"},
	{"serving.kv_transfers", "count"},
	{"cluster.route_imbalance", "ratio"},
	{"cluster.scale_ups", "count"},
	{"cluster.scale_downs", "count"},
	{"cluster.prewarms", "count"},
	{"cluster.wakes", "count"},
	{"cluster.sleeps", "count"},
	{"cluster.swap_ins", "count"},
	{"observe.run_overhead", "ratio"},
	{"trace.export_s", "s"},
	{"trace.export_mb", "MB"},
	{"monitor.export_s", "s"},
	{"monitor.export_kb", "KB"},
	{"observe.heap_mb", "MB"},
	{"capacity.evals", "count"},
	{"capacity.s_per_eval", "s"},
	{"capacity.point_s_p50", "s"},
	{"capacity.point_s_max", "s"},
	{"runner.busy_frac", "frac"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.gc_cycles", "count"},
	{"bench.trace_overhead", "ratio"},
}

func init() {
	for _, m := range cpuModules {
		perLayer = append(perLayer, struct{ name, unit string }{"cpu." + m, "frac"})
	}
}

// tracedRun measures the workload untraced, then again with spans around
// every call into a layer and a CPU profile, and then probes observation
// overhead and single engine runs. It checks that the traced runs
// simulate exactly what the untraced ones did, writes the span file and
// the profile to the output directory, and reports the per-layer metrics.
func tracedRun(w workload, s *session, cfg config, info io.Writer) (*result, error) {
	half := cfg.budget / 2
	untraced := s.measure(nil, half, 2)

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	t := newTracer(w.name)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	gc0 := readGC()
	// Every traced repetition's digest is checked against the untraced
	// ones': the spans must only observe.
	traced := s.measure(t, half, 2)
	gc1 := readGC()
	pprof.StopCPUProfile()
	fmt.Fprintf(info, "workload %s untraced reps=%d traced reps=%d\n", w.name, len(untraced), len(traced))

	m := map[string]metric{}
	for _, l := range perLayer {
		m[l.name] = metric{0, l.unit}
	}
	set := func(name string, v float64) { m[name] = metric{v, m[name].Unit} }

	if len(untraced) == 0 || len(traced) == 0 {
		res := s.result(info, w.name)
		res.Metrics = m
		return res, nil
	}

	last := traced[len(traced)-1]
	for name, v := range last.out.counts {
		if _, ok := m[name]; ok {
			set(name, v)
		}
	}
	runs := func(r rep) []float64 { return r.runs }
	runS := perInput(traced, runs)
	set("bench.trace_overhead", runS/perInput(untraced, runs))
	if ev := last.out.counts["sim.events"]; ev > 0 {
		set("sim.ns_per_event", runS*1e9/(ev*float64(len(s.inputs))))
	}
	for name, span := range map[string]string{
		"serving.deploy_s": "serving.Deploy",
		"serving.warmup_s": "serving.Warmup",
		"registry.new_s":   "registry.NewModelZoo",
	} {
		set(name, median(traced, func(r rep) float64 {
			return t.seconds(span, r.spanMark, r.spanEnd) / float64(len(r.setups))
		}))
	}
	if points := t.durations("capacity.Saturate", last.spanMark, last.spanEnd); len(points) > 0 {
		busy := 0.0
		for _, d := range points {
			busy += d
		}
		if evals := last.out.counts["capacity.evals"]; evals > 0 {
			set("capacity.s_per_eval", busy/evals)
		}
		set("capacity.point_s_p50", medianOf(points))
		set("capacity.point_s_max", slices.Max(points))
		set("runner.busy_frac", busy/float64(capacityWorkers())/t.seconds("capacity.Sweep", last.spanMark, last.spanEnd))
	}
	if used := gc1.total - gc1.idle - (gc0.total - gc0.idle); used > 0 {
		set("runtime.gc_cpu_frac", (gc1.gc-gc0.gc)/used)
	}
	set("runtime.gc_cycles", float64(gc1.cycles-gc0.cycles)/float64(len(traced)))
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		s.fail("reading the CPU profile: %v", err)
	}
	for _, mod := range cpuModules {
		set("cpu."+mod, shares[mod])
	}

	if w.probe > 0 {
		// The same arrivals served with and without observers.
		on, okOn := s.once(t, true, w.probe)
		off, okOff := s.once(t, false, w.probe)
		if okOn && okOff {
			set("observe.run_overhead", on.runs[0]/off.runs[0])
			set("trace.export_s", t.seconds("trace.Export", on.spanMark, on.spanEnd))
			set("monitor.export_s", t.seconds("monitor.Export", on.spanMark, on.spanEnd))
			set("trace.export_mb", float64(on.out.traceBytes)/1e6)
			set("monitor.export_kb", float64(on.out.metricsBytes)/1e3)
			set("observe.heap_mb", float64(on.out.heapBytes)/1e6)
		}
	}
	if err := engineProbe(t, set); err != nil {
		s.fail("engine probe: %v", err)
	}

	spans, profPath := outPath(cfg, "spans", w.name, "json"), outPath(cfg, "cpu", w.name, "pprof")
	if err := t.write(spans); err != nil {
		return nil, err
	}
	if err := os.WriteFile(profPath, prof.Bytes(), 0o644); err != nil {
		return nil, err
	}
	fmt.Fprintf(info, "spans %s (%d spans)\ncpu profile %s\n", spans, len(t.spans), profPath)
	res := s.result(info, w.name)
	res.Metrics = m
	return res, nil
}

// engineProbe times single cold and warm BERT-Base PT+DHA inferences on a
// fresh simulated server, the engine's unit of work.
func engineProbe(t *tracer, set func(string, float64)) error {
	const runs = 15
	platform := deepplan.NewP38xlarge()
	m, err := deepplan.LoadModel("bert-base")
	if err != nil {
		return err
	}
	end := t.begin("profiler.Profile")
	prof, err := platform.Profile(m, deepplan.ProfileOptions{})
	end()
	if err != nil {
		return err
	}
	end = t.begin("planner.Plan")
	plan, err := platform.Plan(prof, deepplan.ModePTDHA)
	end()
	if err != nil {
		return err
	}
	for _, warm := range []bool{false, true} {
		name, kind := "engine.Execute.cold", "cold"
		if warm {
			name, kind = "engine.Execute.warm", "warm"
		}
		var us, allocs []float64
		for i := 0; i < runs; i++ {
			before := memStats()
			end := t.begin(name)
			start := time.Now()
			_, err := platform.Execute(m, plan, deepplan.ExecuteOptions{Warm: warm})
			d := time.Since(start)
			end()
			after := memStats()
			if err != nil {
				return err
			}
			us = append(us, float64(d.Nanoseconds())/1e3)
			allocs = append(allocs, float64(after.Mallocs-before.Mallocs))
		}
		set("engine."+kind+"_run_us", medianOf(us))
		set("engine."+kind+"_run_allocs", medianOf(allocs))
	}
	return nil
}

// gcClock is a reading of the runtime's CPU and GC accounting.
type gcClock struct {
	gc, total, idle float64
	cycles          uint64
}

func readGC() gcClock {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return gcClock{
		gc: s[0].Value.Float64(), total: s[1].Value.Float64(),
		idle: s[2].Value.Float64(), cycles: s[3].Value.Uint64(),
	}
}
