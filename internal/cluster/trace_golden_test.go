package cluster

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"deepplan/internal/dnn"
	"deepplan/internal/faults"
	"deepplan/internal/hostmem"
	"deepplan/internal/metrics"
	"deepplan/internal/monitor"
	"deepplan/internal/registry"
	"deepplan/internal/serving"
	"deepplan/internal/sim"
	"deepplan/internal/trace"
	"deepplan/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current trace exports")

// goldenTraceCase builds one short seeded cluster run. run deploys onto c
// and returns the arrivals to replay.
type goldenTraceCase struct {
	name string
	cfg  func(t *testing.T) Config
	run  func(t *testing.T, c *Cluster) []Request
}

// goldenTraceCases jointly reach the arg-bearing trace call sites listed in
// goldenTraceCoverage: per-layer exec spans, warm/cold and LLM request
// begins, lifecycle/fault/waitlist/host-cache instants, autoscaler and
// forecast instants, SLO burn alerts, memory and link counters, and
// node-view process names.
var goldenTraceCases = []goldenTraceCase{
	{
		// Reactive autoscaling under one hammered replica, the monitor's
		// SLO burn alerts, and a fault schedule (GPU fail/recover with
		// retries, a degraded lane, a copy straggler); an idle tail drains
		// the model back down.
		name: "faults-reactive",
		cfg: func(t *testing.T) Config {
			sched, err := faults.Parse("gpu=0@60ms+80ms; link=gpu0-lane*0.4@20ms+120ms; straggler=copy/3@100ms+60ms")
			if err != nil {
				t.Fatal(err)
			}
			return Config{
				Nodes: 2, Faults: sched,
				Monitor: monitor.New(), Alerts: &monitor.SLOConfig{},
				Autoscale: AutoscaleConfig{Enabled: true, Interval: 100 * sim.Millisecond},
			}
		},
		run: func(t *testing.T, c *Cluster) []Request {
			deployByName(t, c, "distilbert", 8)
			reqs := toCluster("DistilBERT", workload.Poisson(5, 1000, 75, 1))
			return append(reqs, Request{At: 1500 * sim.Time(sim.Millisecond), Model: "DistilBERT"})
		},
	},
	{
		// Predictive autoscaling over a periodic burst train on a small
		// cost-aware host tier: forecast, scale, prewarm, sleep and wake
		// instants with their state transitions.
		name: "predictive",
		cfg: func(t *testing.T) Config {
			return Config{
				Nodes: 2, WindowWidth: sim.Second,
				HostPolicy: hostmem.PolicyCostAware, HostMemory: 2 << 30,
				Autoscale: AutoscaleConfig{Enabled: true, Interval: 100 * sim.Millisecond, Policy: AutoscalePredictive},
			}
		},
		run: func(t *testing.T, c *Cluster) []Request {
			deployByName(t, c, "distilbert", 16)
			return burstTrain("DistilBERT", 4, 16, 500*sim.Millisecond, 50*sim.Millisecond, 16)
		},
	},
	{
		// Autoregressive GPT-2 with prefill/decode disaggregation: LLM
		// request begins carrying ttft_us.
		name: "llm-prefill-decode",
		cfg: func(t *testing.T) Config {
			return Config{Nodes: 2, LLM: serving.LLMConfig{Enabled: true, PrefillDecode: true}}
		},
		run: func(t *testing.T, c *Cluster) []Request {
			deployByName(t, c, "gpt2", 8)
			base := workload.WithTokens(
				workload.Poisson(17, 60, 40, c.models["GPT-2"].active), 17, 96, 12)
			reqs := make([]Request, len(base))
			for i, r := range base {
				reqs[i] = Request{At: r.At, Model: "GPT-2", Key: r.Instance,
					PromptTokens: r.PromptTokens, OutputTokens: r.OutputTokens}
			}
			return reqs
		},
	},
	{
		// A cost-aware DistilBERT zoo on a pinned host tier too small for
		// its working set: host fetches, host-cache evictions, deferrals
		// and waitlist drains under dense packing.
		name: "zoo-cost",
		cfg: func(t *testing.T) Config {
			return Config{
				Nodes: 2, Route: RouteAffinity, HostPolicy: hostmem.PolicyCostAware,
				HostMemory: 1 << 30, HostFetchBandwidth: 25e9, Pack: serving.PackDense,
			}
		},
		run: func(t *testing.T, c *Cluster) []Request {
			z, err := registry.New(registry.Spec{N: 64, Bases: []string{"distilbert"}})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.DeployZoo(z); err != nil {
				t.Fatal(err)
			}
			return ZooRequests(z, z.Requests(42, 400, 30))
		},
	},
}

// deployByName deploys n replicas of the named model onto c.
func deployByName(t *testing.T, c *Cluster, model string, n int) {
	t.Helper()
	m, err := dnn.ByName(model)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Deploy(m, n); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenTraces pins the Chrome trace export byte for byte: each case's
// JSON must equal testdata/golden/trace-<name>.json. The files are the
// oracle for changes to trace recording and encoding, which must not move a
// single exported byte. The same runs also pin the cluster's windowed
// telemetry (telemetry-<name>.txt) and, for monitored cases, the final
// OpenMetrics exposition (metrics-<name>.prom). Regenerate with
// `go test ./internal/cluster -run TestGoldenTraces -update` and review the
// diff.
func TestGoldenTraces(t *testing.T) {
	var all []byte
	ran := 0
	for _, tc := range goldenTraceCases {
		t.Run(tc.name, func(t *testing.T) {
			rec := trace.New()
			cfg := tc.cfg(t)
			cfg.Trace = rec
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			reqs := tc.run(t, c)
			c.Warmup()
			rep, err := c.Run(reqs)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := trace.WriteChrome(&buf, rec, map[string]string{"case": tc.name}); err != nil {
				t.Fatal(err)
			}
			all = append(all, buf.Bytes()...)
			ran++
			checkGolden(t, "trace-"+tc.name+".json", buf.Bytes())
			checkGolden(t, "telemetry-"+tc.name+".txt", telemetryTable(rep.Telemetry))
			if cfg.Monitor != nil {
				var prom bytes.Buffer
				if err := cfg.Monitor.WriteOpenMetrics(&prom); err != nil {
					t.Fatal(err)
				}
				checkGolden(t, "metrics-"+tc.name+".prom", prom.Bytes())
			}
		})
	}
	if ran < len(goldenTraceCases) {
		return // a -run filter skipped cases; coverage needs them all
	}
	// Regenerated files must keep reaching the listed call sites.
	for _, want := range goldenTraceCoverage {
		if !bytes.Contains(all, []byte(want)) {
			t.Errorf("golden traces no longer contain %s", want)
		}
	}
}

// checkGolden compares got with testdata/golden/<name> byte for byte, or
// rewrites the file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output differs from %s (%d vs %d bytes); first difference at byte %d",
			golden, len(got), len(want), firstDiff(got, want))
	}
}

// telemetryTable renders a cluster telemetry series one window per line,
// with every float in its shortest exact form.
func telemetryTable(stats []metrics.TelemetryStat) []byte {
	var b bytes.Buffer
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, s := range stats {
		c := &s.Count
		fmt.Fprintf(&b, "start=%d requests=%d cold_starts=%d evictions=%d relocations=%d deferred=%d shed=%d retried=%d cold_ratio=%s queue=%s busy=%s\n",
			int64(s.Start), c[metrics.Arrival], c[metrics.ColdStart], c[metrics.Eviction], c[metrics.Relocation],
			c[metrics.Deferral], c[metrics.Shed], c[metrics.Retry],
			g(s.ColdRatio), g(s.MeanQueueDepth), g(s.BusyFraction))
	}
	return b.Bytes()
}

// goldenTraceCoverage lists a fragment of each arg-bearing event kind the
// golden cases must export.
var goldenTraceCoverage = []string{
	`"args":{"method":`, `"stall_us":`, // per-layer exec spans
	`"class":"warm"`, `"class":"cold"`, `"ttft_us":`, // request begins
	`"name":"state `, `"name":"host-fetch `, `"name":"host-evict `,
	`"name":"fault `, `"name":"gpu-fail"`, `"name":"gpu-recover"`,
	`"name":"defer `, `"name":"drain waitlist"`, `"name":"retry `,
	`"name":"prewarm `, `"name":"sleep `, `"name":"wake `,
	`"name":"scale-up `, `"name":"scale-down `, `"forecast_peak":`, `"name":"forecast `,
	`"burn":`,                                 // SLO alert
	`"name":"gpu mem (MiB)"`, `-lane (GB/s)"`, // memory and link counters
	`"name":"node1 GPU0"`, `"name":"node1 fabric"`, `"name":"node1 server"`,
}

// firstDiff returns the index of the first differing byte of a and b.
func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
