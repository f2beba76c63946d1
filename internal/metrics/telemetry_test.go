package metrics

import (
	"testing"

	"deepplan/internal/sim"
)

func TestTelemetryWindows(t *testing.T) {
	ws := NewWindows(10*sim.Second, sim.Second, 4)
	ws.Arrival(1*sim.Time(sim.Second), 2)
	ws.Arrival(3*sim.Time(sim.Second), 4)
	ws.Note(3*sim.Time(sim.Second), ColdStart)
	ws.Note(3*sim.Time(sim.Second), Eviction)
	ws.Arrival(15*sim.Time(sim.Second), 0)
	ws.Note(15*sim.Time(sim.Second), Relocation)
	ws.Note(16*sim.Time(sim.Second), Deferral)
	ws.Busy(2*sim.Time(sim.Second), 7*sim.Time(sim.Second))

	stats := Telemetry(20*sim.Time(sim.Second), ws)
	if len(stats) != 2 {
		t.Fatalf("windows = %d, want 2", len(stats))
	}
	w0, w1 := stats[0], stats[1]
	if w0.Count[Arrival] != 2 || w0.Count[ColdStart] != 1 || w0.Count[Eviction] != 1 {
		t.Fatalf("window 0 = %+v", w0)
	}
	if w0.ColdRatio != 0.5 {
		t.Fatalf("cold ratio = %v, want 0.5", w0.ColdRatio)
	}
	if w0.MeanQueueDepth != 3 {
		t.Fatalf("mean queue depth = %v, want 3", w0.MeanQueueDepth)
	}
	// 5 s busy on one of four GPUs over a 10 s window = 1/8.
	if w0.BusyFraction != 0.125 {
		t.Fatalf("busy fraction = %v, want 0.125", w0.BusyFraction)
	}
	if w1.Count[Arrival] != 1 || w1.Count[Relocation] != 1 || w1.Count[Deferral] != 1 {
		t.Fatalf("window 1 = %+v", w1)
	}
	if w1.Start != sim.Time(10*sim.Second) {
		t.Fatalf("window 1 start = %v", w1.Start)
	}
	for k, want := range map[Kind]int{Arrival: 3, ColdStart: 1, Eviction: 1, Relocation: 1, Deferral: 1, Shed: 0} {
		if got := ws.Total(k); got != want {
			t.Fatalf("total %v = %d, want %d", k, got, want)
		}
	}
}

// A busy interval spanning window boundaries must credit each window only
// with its own share.
func TestTelemetryBusySplitsAcrossWindows(t *testing.T) {
	ws := NewWindows(10*sim.Second, sim.Second, 1)
	ws.Busy(8*sim.Time(sim.Second), 23*sim.Time(sim.Second))
	stats := Telemetry(30*sim.Time(sim.Second), ws)
	if len(stats) != 3 {
		t.Fatalf("windows = %d, want 3", len(stats))
	}
	want := []float64{0.2, 1.0, 0.3}
	for i, w := range stats {
		if w.BusyFraction != want[i] {
			t.Fatalf("window %d busy = %v, want %v", i, w.BusyFraction, want[i])
		}
	}
}

func TestTelemetryEmptyWindowRatios(t *testing.T) {
	ws := NewWindows(10*sim.Second, sim.Second, 2)
	ws.Note(5*sim.Time(sim.Second), Eviction) // window exists but has no requests
	w := Telemetry(0, ws)[0]
	if w.ColdRatio != 0 || w.MeanQueueDepth != 0 {
		t.Fatalf("empty-window ratios = %+v; want zeros", w)
	}
}

// Regression: the trailing *partial* window's busy time used to be divided
// by a full window's capacity, understating BusyFraction in the last bucket
// whenever the run's horizon is not a multiple of the window width.
func TestTelemetryPartialFinalWindowCapacity(t *testing.T) {
	ws := NewWindows(10*sim.Second, sim.Second, 2)
	// The run ends at 14 s: the second window covers only [10 s, 14 s).
	ws.Busy(10*sim.Time(sim.Second), 14*sim.Time(sim.Second))
	stats := Telemetry(14*sim.Time(sim.Second), ws)
	if len(stats) != 2 {
		t.Fatalf("windows = %d, want 2", len(stats))
	}
	// One of two GPUs busy for the whole 4 s the window existed = 0.5,
	// not 4s/(2*10s) = 0.2.
	if got := stats[1].BusyFraction; got != 0.5 {
		t.Fatalf("partial-window busy fraction = %v, want 0.5", got)
	}
	// Full windows are unaffected by the clamp.
	ws2 := NewWindows(10*sim.Second, sim.Second, 2)
	ws2.Busy(0, 10*sim.Time(sim.Second))
	if got := Telemetry(20*sim.Time(sim.Second), ws2)[0].BusyFraction; got != 0.5 {
		t.Fatalf("full-window busy fraction = %v, want 0.5", got)
	}
}

// Regression: telemetry windows after the last recorded event were omitted;
// a quiet tail must appear as explicit empty windows up to the horizon.
func TestTelemetryExtendsToHorizon(t *testing.T) {
	ws := NewWindows(10*sim.Second, sim.Second, 2)
	ws.Arrival(1*sim.Time(sim.Second), 0)
	stats := Telemetry(35*sim.Time(sim.Second), ws)
	if len(stats) != 4 {
		t.Fatalf("windows = %d, want 4 (horizon 35 s)", len(stats))
	}
	for i := 1; i < 4; i++ {
		if stats[i].Count != [NumKinds]int{} || stats[i].BusyFraction != 0 {
			t.Fatalf("window %d not empty: %+v", i, stats[i])
		}
	}
	if stats[3].Start != sim.Time(30*sim.Second) {
		t.Fatalf("window 3 start = %v", stats[3].Start)
	}
}

// TestMergeTelemetry checks the cluster aggregation of several nodes'
// windows: counts sum, busy fractions average over nodes, and queue depth
// is weighted by each node's arrivals.
func TestMergeTelemetry(t *testing.T) {
	a := NewWindows(10*sim.Second, sim.Second, 2)
	b := NewWindows(10*sim.Second, sim.Second, 2)
	a.Arrival(1*sim.Time(sim.Second), 4)
	a.Note(1*sim.Time(sim.Second), ColdStart)
	a.Busy(0, 5*sim.Time(sim.Second))
	b.Arrival(2*sim.Time(sim.Second), 2)
	b.Arrival(12*sim.Time(sim.Second), 0)
	b.Note(12*sim.Time(sim.Second), Eviction)
	merged := Telemetry(20*sim.Time(sim.Second), a, b)
	if len(merged) != 2 {
		t.Fatalf("merged windows = %d, want 2", len(merged))
	}
	w0 := merged[0]
	if w0.Count[Arrival] != 2 || w0.Count[ColdStart] != 1 {
		t.Fatalf("merged window 0 = %+v", w0)
	}
	if w0.ColdRatio != 0.5 {
		t.Fatalf("merged cold ratio = %v, want 0.5", w0.ColdRatio)
	}
	// Node a: 5 s of one GPU over 2x10 s = 0.25; node b idle; mean 0.125.
	if w0.BusyFraction != 0.125 {
		t.Fatalf("merged busy fraction = %v, want 0.125", w0.BusyFraction)
	}
	if w0.MeanQueueDepth != 3 {
		t.Fatalf("merged queue depth = %v, want 3", w0.MeanQueueDepth)
	}
	if merged[1].Count[Arrival] != 1 || merged[1].Count[Eviction] != 1 {
		t.Fatalf("merged window 1 = %+v", merged[1])
	}
	if Telemetry(0) != nil {
		t.Fatal("telemetry over no nodes not nil")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mixed window widths accepted")
		}
	}()
	Telemetry(0, a, NewWindows(sim.Second, sim.Second, 2))
}

func TestTelemetryValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewWindows(0, sim.Second, 1) },
		func() { NewWindows(sim.Second, sim.Second, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid window config accepted")
				}
			}()
			fn()
		}()
	}
}
