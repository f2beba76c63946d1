package serving

import (
	"math"
	"testing"

	"deepplan/internal/costmodel"
	"deepplan/internal/dnn"
	"deepplan/internal/faults"
	"deepplan/internal/hostmem"
	"deepplan/internal/metrics"
	"deepplan/internal/monitor"
	"deepplan/internal/sim"
	"deepplan/internal/topology"
	"deepplan/internal/workload"
)

// reportTotals maps each occurrence kind to its Report field.
func reportTotals(r *Report) [metrics.NumKinds]int {
	return [metrics.NumKinds]int{
		metrics.Arrival:      r.Requests,
		metrics.ColdStart:    r.ColdStarts,
		metrics.Eviction:     r.Evictions,
		metrics.Relocation:   r.Relocations,
		metrics.Deferral:     r.Deferred,
		metrics.Shed:         r.Shed,
		metrics.Retry:        r.Retried,
		metrics.Sleep:        r.Sleeps,
		metrics.Wake:         r.Wakes,
		metrics.Prewarm:      r.Prewarms,
		metrics.SwapIn:       r.SwapIns,
		metrics.HostFetch:    r.HostFetches,
		metrics.HostEviction: r.HostEvictions,
	}
}

// checkConservation asserts that, for every occurrence kind, the windows of
// Report.Telemetry sum to the report's total and to the monitor counter.
// It returns the totals.
func checkConservation(t *testing.T, rep *Report, reg *monitor.Registry) [metrics.NumKinds]int {
	t.Helper()
	var sums [metrics.NumKinds]int
	for _, w := range rep.Telemetry {
		for k, c := range w.Count {
			sums[k] += c
		}
	}
	totals := reportTotals(rep)
	for k := metrics.Kind(0); k < metrics.NumKinds; k++ {
		name := kindCounters[k].name
		if sums[k] != totals[k] {
			t.Errorf("%s: windows sum to %d, report total %d", name, sums[k], totals[k])
		}
		if got := reg.Total(name); got != float64(totals[k]) {
			t.Errorf("%s: monitor counter = %v, report total %d", name, got, totals[k])
		}
	}
	return totals
}

// TestOccurrenceConservation runs a loaded server under faults and
// admission control, where requests are shed, retried and relocated, and
// checks that every occurrence is counted once into one table.
func TestOccurrenceConservation(t *testing.T) {
	sched, err := faults.Parse("gpu=1@1s+2s; gpu=2@4s+1s; link=gpu0-lane*0.4@500ms+3s")
	if err != nil {
		t.Fatal(err)
	}
	reg := monitor.New()
	srv, err := New(Config{
		Topo: topology.P38xlarge(), Cost: costmodel.Default(), Policy: PolicyPTDHA,
		SLO: 100 * sim.Millisecond, WindowWidth: sim.Second,
		Faults: sched, AdmitFactor: 1.2, Monitor: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	deployBERT(t, srv, 200)
	srv.Warmup()
	rep, err := srv.Run(workload.Poisson(9, 400, 2400, 200))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Telemetry) < 5 {
		t.Fatalf("windows = %d, want one per simulated second", len(rep.Telemetry))
	}
	totals := checkConservation(t, rep, reg)
	for _, k := range []metrics.Kind{metrics.ColdStart, metrics.Eviction, metrics.Relocation, metrics.Shed, metrics.Retry} {
		if totals[k] == 0 {
			t.Errorf("no %s occurrences; the run does not exercise the table", kindCounters[k].name)
		}
	}
}

// TestLifecycleOccurrenceConservation covers the lifecycle and host-cache
// kinds: instances are put to sleep and prewarmed on a host tier too small
// for all of them, so sleeps, wakes, prewarms, swap-ins, host fetches and
// host evictions all occur.
func TestLifecycleOccurrenceConservation(t *testing.T) {
	m, err := dnn.ByName("bert-base")
	if err != nil {
		t.Fatal(err)
	}
	reg := monitor.New()
	srv, err := New(Config{
		Topo: topology.P38xlarge(), Cost: costmodel.Default(), Policy: PolicyDHA,
		SLO: 100 * sim.Millisecond, WindowWidth: 100 * sim.Millisecond,
		HostMemory: m.TotalParamBytes() * 7 / 2, HostPolicy: hostmem.PolicyLRU,
		Monitor: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Deploy(m, 6); err != nil {
		t.Fatal(err)
	}
	srv.Warmup()
	for i, at := range []sim.Duration{50, 250, 450} {
		srv.sim.At(sim.Time(at*sim.Millisecond), func() {
			for id := range srv.instances {
				srv.SleepInstance(id)
			}
		})
		srv.sim.At(sim.Time((at+100)*sim.Millisecond), func() {
			for id := i; id < len(srv.instances); id += 2 {
				srv.PrewarmInstance(id)
			}
		})
	}
	rep, err := srv.Run(workload.Poisson(5, 60, 60, 6))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	totals := checkConservation(t, rep, reg)
	for _, k := range []metrics.Kind{metrics.Sleep, metrics.Wake, metrics.Prewarm, metrics.SwapIn, metrics.HostFetch, metrics.HostEviction} {
		if totals[k] == 0 {
			t.Errorf("no %s occurrences; the run does not exercise the table", kindCounters[k].name)
		}
	}
	if got := srv.host.Evictions(); got != rep.HostEvictions {
		t.Errorf("host cache evicted %d entries, report counted %d", got, rep.HostEvictions)
	}
}

// A run without requests reports zero rates, not NaN.
func TestEmptyRunReportsZeroRates(t *testing.T) {
	srv := newServer(t, PolicyPTDHA)
	deployBERT(t, srv, 4)
	rep, err := srv.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 0 || rep.ColdStartRate != 0 || math.IsNaN(rep.ColdStartRate) {
		t.Fatalf("empty run: requests=%d cold-start rate=%v, want 0 and 0", rep.Requests, rep.ColdStartRate)
	}
	if rep.Goodput != 1 {
		t.Fatalf("empty run goodput = %v, want 1", rep.Goodput)
	}
}
