package cluster

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"deepplan/internal/dnn"
	"deepplan/internal/faults"
	"deepplan/internal/hostmem"
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
// single exported byte. Regenerate with
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
			if _, err := c.Run(reqs); err != nil {
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
			golden := filepath.Join("testdata", "golden", "trace-"+tc.name+".json")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("trace export differs from %s (%d vs %d bytes); first difference at byte %d",
					golden, buf.Len(), len(want), firstDiff(buf.Bytes(), want))
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
