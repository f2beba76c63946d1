package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"deepplan"
)

// runMainEnv, when set to 1, makes the test binary run the command's main
// with its arguments instead of the tests, so a test can drive the real
// command in a subprocess.
const runMainEnv = "DEEPPLAN_SERVER_RUN_MAIN"

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
		t.Fatalf("deepplan-server %v: %v\n%s", args, err, stderr.Bytes())
	}
	return out
}

// TestProfileFlags checks that -cpuprofile and -memprofile write non-empty
// profiles and leave stdout byte-identical.
func TestProfileFlags(t *testing.T) {
	args := []string{"-instances", "24", "-rate", "100", "-requests", "300"}
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

func TestLLMOptionsValidation(t *testing.T) {
	llm, err := llmOptions("", false, 8)
	if err != nil || llm.Enabled {
		t.Fatalf("empty mode should disable LLM cleanly: %+v, %v", llm, err)
	}
	if _, err := llmOptions("", true, 8); err == nil {
		t.Fatal("-prefill-decode without -llm accepted")
	}
	llm, err = llmOptions(deepplan.LLMBatchStatic, true, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !llm.Enabled || llm.Batching != deepplan.LLMBatchStatic ||
		llm.TokenBudget != 16 || !llm.PrefillDecode {
		t.Fatalf("flags not threaded through: %+v", llm)
	}
	if _, err := llmOptions("dynamic", false, 8); err == nil {
		t.Fatal("unknown batching discipline accepted")
	}
}

// -zoo and -autoscale must fail fast with an actionable message instead of
// deploying a zoo the autoscaler cannot manage.
func TestModeConflicts(t *testing.T) {
	if err := modeConflicts(0, true, "", false, deepplan.LLMOptions{}); err != nil {
		t.Fatalf("plain autoscale rejected: %v", err)
	}
	if err := modeConflicts(100, false, "", false, deepplan.LLMOptions{}); err != nil {
		t.Fatalf("plain zoo rejected: %v", err)
	}
	err := modeConflicts(100, true, "", false, deepplan.LLMOptions{})
	if err == nil {
		t.Fatal("-zoo with -autoscale accepted")
	}
	if !strings.Contains(err.Error(), "autoscale") {
		t.Fatalf("error does not name the conflicting flag: %v", err)
	}
	llm := deepplan.LLMOptions{Enabled: true}
	if err := modeConflicts(0, false, "", true, llm); err == nil {
		t.Fatal("-llm with -maf accepted")
	}
	if err := modeConflicts(100, false, "", false, llm); err == nil {
		t.Fatal("-llm with -zoo accepted")
	}
}

// -autoscale-policy steers a controller that must actually be enabled, and
// only known spellings are controllers.
func TestAutoscalePolicyFlagValidation(t *testing.T) {
	for _, pol := range []string{"reactive", "predictive"} {
		if err := modeConflicts(0, true, pol, false, deepplan.LLMOptions{}); err != nil {
			t.Fatalf("-autoscale -autoscale-policy %s rejected: %v", pol, err)
		}
	}
	err := modeConflicts(0, false, "predictive", false, deepplan.LLMOptions{})
	if err == nil {
		t.Fatal("-autoscale-policy predictive without -autoscale accepted")
	}
	if !strings.Contains(err.Error(), "-autoscale") {
		t.Fatalf("error does not point at the missing flag: %v", err)
	}
	if err := modeConflicts(0, true, "oracle", false, deepplan.LLMOptions{}); err == nil {
		t.Fatal("unknown autoscale policy accepted")
	}
}
