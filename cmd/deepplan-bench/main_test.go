package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// runMainEnv, when set to 1, makes the test binary run the command's main
// with its arguments instead of the tests, so a test can drive the real
// command in a subprocess.
const runMainEnv = "DEEPPLAN_BENCH_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs the command with args in a subprocess and returns its stdout.
func runMain(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("deepplan-bench %v: %v\n%s", args, err, stderr.Bytes())
	}
	return out
}

// TestProfileFlags checks that -cpuprofile and -memprofile write non-empty
// profiles and leave stdout byte-identical.
func TestProfileFlags(t *testing.T) {
	args := []string{"-exp", "fig13", "-quick"}
	plain := runMain(t, args...)
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	profiled := runMain(t, append(args, "-cpuprofile", cpu, "-memprofile", mem)...)
	if !bytes.Equal(plain, profiled) {
		t.Errorf("stdout changed with profiling on:\n--- plain\n%s\n--- profiled\n%s", plain, profiled)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s not written (%v)", filepath.Base(p), err)
		}
	}
}
