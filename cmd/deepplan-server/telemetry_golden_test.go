package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current command output")

// telemetryGoldenCases are deepplan-server runs whose -telemetry tables span
// at least two one-minute windows, so the trailing partial window's busy
// capacity clamp is part of every pinned table.
var telemetryGoldenCases = []struct {
	name string
	args []string
}{
	{
		// One server under faults and admission control: sheds, retries
		// and relocations all show up in the windows.
		name: "server-faults-admit",
		args: []string{"-instances", "220", "-rate", "60", "-requests", "6000", "-admit", "1.2",
			"-faults", "gpu=1@20s+30s; gpu=2@45s+20s; link=gpu0-lane*0.4@10s+40s; straggler=copy/3@60s+10s"},
	},
	{
		name: "maf",
		args: []string{"-maf", "-duration", "3m"},
	},
	{
		// Four nodes on one clock: the cluster table aggregates per-node
		// windows.
		name: "cluster-faults",
		args: []string{"-nodes", "4", "-instances", "160", "-rate", "150", "-requests", "10000", "-admit", "1.5",
			"-faults", "gpu=1@2s+3s; gpu=0@30s+20s; link=gpu0-lane*0.4@1s+6s; straggler=copy/3@6s+3s"},
	},
}

// TestTelemetryTablesGolden pins the full stdout of -telemetry runs byte for
// byte against testdata/golden/telemetry-<name>.txt. Regenerate with
// `go test ./cmd/deepplan-server -run TestTelemetryTablesGolden -update` and
// review the diff.
func TestTelemetryTablesGolden(t *testing.T) {
	for _, tc := range telemetryGoldenCases {
		t.Run(tc.name, func(t *testing.T) {
			out := runMain(t, append(tc.args, "-telemetry")...)
			golden := filepath.Join("testdata", "golden", "telemetry-"+tc.name+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, out, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if !bytes.Equal(out, want) {
				t.Fatalf("stdout differs from %s\n--- want ---\n%s\n--- got ---\n%s", golden, want, out)
			}
		})
	}
}
