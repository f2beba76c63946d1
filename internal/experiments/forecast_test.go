package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"deepplan/internal/cluster"
)

// TestFigForecastPredictiveWinsColdTail pins fig-forecast's headline
// claim: on the periodic spiky trace the predictive controller beats the
// reactive one on cold-start p99 while billing no more replica-seconds.
func TestFigForecastPredictiveWinsColdTail(t *testing.T) {
	p := defaultForecastParams(true)
	reqs, err := p.workload()
	if err != nil {
		t.Fatal(err)
	}
	reactive, err := runForecastPolicy(p, cluster.AutoscaleReactive, reqs)
	if err != nil {
		t.Fatal(err)
	}
	predictive, err := runForecastPolicy(p, cluster.AutoscalePredictive, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if predictive.Prewarms == 0 || predictive.Sleeps == 0 {
		t.Fatalf("predictive run did not actuate the lifecycle: %d prewarms, %d sleeps",
			predictive.Prewarms, predictive.Sleeps)
	}
	if reactive.Prewarms != 0 || reactive.Sleeps != 0 {
		t.Fatalf("reactive run actuated the predictive lifecycle: %d prewarms, %d sleeps",
			reactive.Prewarms, reactive.Sleeps)
	}
	if predictive.ColdP99 >= reactive.ColdP99 {
		t.Fatalf("predictive cold p99 %v not below reactive %v",
			predictive.ColdP99, reactive.ColdP99)
	}
	if rp, rr := replicaSeconds(predictive), replicaSeconds(reactive); rp > rr {
		t.Fatalf("predictive billed %v replica-seconds, more than reactive's %v", rp, rr)
	}
}

// TestFigForecastByteIdenticalParallelSim: fig-forecast replays one shared
// request slice under every policy, and runs the policies side by side when
// Options.Workers allows. Concurrent replays must leave the shared slice
// untouched and reproduce the serial reports exactly, and the experiment's
// stdout on a worker pool must match its golden file byte for byte.
func TestFigForecastByteIdenticalParallelSim(t *testing.T) {
	p := defaultForecastParams(true)
	reqs, err := p.workload()
	if err != nil {
		t.Fatal(err)
	}
	pristine := append([]cluster.Request(nil), reqs...)
	policies := []cluster.AutoscalePolicy{cluster.AutoscaleReactive, cluster.AutoscalePredictive}
	serial := make([]*cluster.Report, len(policies))
	for i, pol := range policies {
		if serial[i], err = runForecastPolicy(p, pol, reqs); err != nil {
			t.Fatal(err)
		}
	}
	side := make([]*cluster.Report, len(policies))
	errs := make([]error, len(policies))
	var wg sync.WaitGroup
	for i, pol := range policies {
		wg.Add(1)
		go func(i int, pol cluster.AutoscalePolicy) {
			defer wg.Done()
			side[i], errs[i] = runForecastPolicy(p, pol, reqs)
		}(i, pol)
	}
	wg.Wait()
	for i, pol := range policies {
		if errs[i] != nil {
			t.Fatalf("%s side by side: %v", pol, errs[i])
		}
		if !reflect.DeepEqual(serial[i], side[i]) {
			t.Fatalf("%s report differs when replayed side by side:\nserial %+v\nside   %+v", pol, *serial[i], *side[i])
		}
	}
	if !reflect.DeepEqual(reqs, pristine) {
		t.Fatal("replaying the policies mutated the shared request slice")
	}

	var out bytes.Buffer
	if err := FigForecast(&out, Options{Quick: true, Workers: len(policies)}); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden", "fig-forecast.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("fig-forecast output on a worker pool differs from the golden file:\n--- want ---\n%s\n--- got ---\n%s",
			want, out.String())
	}
}

// TestFigForecastPinnedPolicy: Options.AutoscalePolicy restricts the table
// to one controller and rejects unknown spellings.
func TestFigForecastPinnedPolicy(t *testing.T) {
	var out bytes.Buffer
	if err := FigForecast(&out, Options{Quick: true, AutoscalePolicy: "predictive"}); err != nil {
		t.Fatal(err)
	}
	if s := out.String(); !bytes.Contains(out.Bytes(), []byte("predictive")) ||
		bytes.Contains(out.Bytes(), []byte("\nreactive")) {
		t.Fatalf("pinned-policy output wrong:\n%s", s)
	}
	if err := FigForecast(&out, Options{Quick: true, AutoscalePolicy: "oracle"}); err == nil {
		t.Fatal("unknown autoscale policy accepted")
	}
}
