package experiments

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"deepplan/internal/experiments/runner"
)

// Every experiment must produce byte-identical output whether its sweep
// points are computed serially or on a worker pool: parallelism exists only
// between simulator instances, never inside one.
func TestParallelOutputMatchesSerial(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var serial, parallel bytes.Buffer
			if err := e.Run(&serial, Options{Quick: true}); err != nil {
				t.Fatalf("serial: %v", err)
			}
			if err := e.Run(&parallel, Options{Quick: true, Workers: 4}); err != nil {
				t.Fatalf("parallel: %v", err)
			}
			if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
				t.Fatalf("parallel output differs from serial\n--- serial ---\n%s\n--- parallel ---\n%s",
					serial.String(), parallel.String())
			}
		})
	}
}

// Simulator instances share no mutable state: the same experiment run as
// two whole simulations side by side on separate goroutines — the way
// `-exp all -parallel` and capacity sweeps use the cores — must reproduce
// the serial run byte for byte. TestParallelOutputMatchesSerial covers the
// sweep-point pool inside one run; this covers concurrent runs of the same
// experiment, which would expose a package-level cache or counter shared
// between instances. Run under -race it is also the data-race check.
func TestParallelSimOutputMatchesSerial(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var serial bytes.Buffer
			if err := e.Run(&serial, Options{Quick: true}); err != nil {
				t.Fatalf("serial: %v", err)
			}
			var side [2]bytes.Buffer
			var errs [2]error
			var wg sync.WaitGroup
			for i := range side {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					errs[i] = e.Run(&side[i], Options{Quick: true})
				}(i)
			}
			wg.Wait()
			for i := range side {
				if errs[i] != nil {
					t.Fatalf("side-by-side run %d: %v", i, errs[i])
				}
				if !bytes.Equal(serial.Bytes(), side[i].Bytes()) {
					t.Fatalf("side-by-side run %d differs from serial\n--- serial ---\n%s\n--- side-by-side ---\n%s",
						i, serial.String(), side[i].String())
				}
			}
		})
	}
}

// registryUnits wraps the full registry as runner units, the way
// cmd/deepplan-bench does for -exp all.
func registryUnits(opts Options) []runner.Unit {
	exps := All()
	units := make([]runner.Unit, len(exps))
	for i, e := range exps {
		e := e
		units[i] = runner.Unit{Label: e.ID, Run: func(w io.Writer) error {
			fmt.Fprintf(w, "=== %s ===\n", e.ID)
			if err := e.Run(w, opts); err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
			fmt.Fprintln(w)
			return nil
		}}
	}
	return units
}

// Stress the worker pool over the full registry with nested in-experiment
// pools — the `-exp all -parallel` configuration. Run under `go test -race`
// this is the data-race check on the whole harness. Byte-identity with a
// serial run is already proven per experiment by
// TestParallelOutputMatchesSerial and at the Execute level by the runner
// tests; here the ordering guarantee is asserted directly: every unit's ID
// marker must appear in the output in registry order.
func TestParallelRegistryRaceStress(t *testing.T) {
	if testing.Short() {
		t.Skip("full-registry stress is not a -short test")
	}
	units := registryUnits(Options{Quick: true, Workers: 2})
	var out bytes.Buffer
	if err := runner.Execute(&out, 8, units); err != nil {
		t.Fatalf("parallel execute: %v", err)
	}
	text := out.String()
	pos := 0
	for _, e := range All() {
		marker := fmt.Sprintf("=== %s ===", e.ID)
		i := strings.Index(text[pos:], marker)
		if i < 0 {
			t.Fatalf("experiment %s missing or out of order in pooled output", e.ID)
		}
		pos += i + len(marker)
	}
}
