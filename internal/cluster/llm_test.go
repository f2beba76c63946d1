package cluster

import (
	"bytes"
	"reflect"
	"testing"

	"deepplan/internal/dnn"
	"deepplan/internal/faults"
	"deepplan/internal/serving"
	"deepplan/internal/trace"
	"deepplan/internal/workload"
)

// llmRunOnce builds a cluster in autoregressive mode, deploys gpt2, replays
// a token-annotated Poisson workload, and returns the report and trace.
func llmRunOnce(t *testing.T, cfg Config, replicas, requests int, rate float64) (*Report, []byte) {
	t.Helper()
	rec := trace.New()
	cfg.Trace = rec
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	m, err := dnn.ByName("gpt2")
	if err != nil {
		t.Fatalf("ByName: %v", err)
	}
	if err := c.Deploy(m, replicas); err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	c.Warmup()
	base := workload.WithTokens(
		workload.Poisson(17, rate, requests, c.models["GPT-2"].active), 17, 192, 24)
	reqs := make([]Request, len(base))
	for i, r := range base {
		reqs[i] = Request{At: r.At, Model: "GPT-2", Key: r.Instance,
			PromptTokens: r.PromptTokens, OutputTokens: r.OutputTokens}
	}
	rep, err := c.Run(reqs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, rec, nil); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	return rep, buf.Bytes()
}

// Determinism on the decode path: reruns of continuous batching, static
// batching, disaggregation, and faults mid-decode reproduce the report and
// the Chrome trace byte for byte.
func TestLLMClusterRerunIdentical(t *testing.T) {
	faultSched, err := faults.Parse("gpu=1@30ms+150ms")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"continuous-4", Config{Nodes: 4,
			LLM: serving.LLMConfig{Enabled: true, TokenBudget: 8}}},
		{"static-2", Config{Nodes: 2,
			LLM: serving.LLMConfig{Enabled: true, Batching: serving.LLMBatchStatic, TokenBudget: 8}}},
		{"prefill-decode-4", Config{Nodes: 4,
			LLM: serving.LLMConfig{Enabled: true, PrefillDecode: true}}},
		{"faults-2", Config{Nodes: 2, Faults: faultSched,
			LLM: serving.LLMConfig{Enabled: true, TokenBudget: 8}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantRep, wantTrace := llmRunOnce(t, tc.cfg, 12, 300, 150)
			gotRep, gotTrace := llmRunOnce(t, tc.cfg, 12, 300, 150)
			if wantRep.TokensGenerated <= wantRep.Requests {
				t.Fatalf("decode path barely exercised: %d tokens over %d requests",
					wantRep.TokensGenerated, wantRep.Requests)
			}
			if !reflect.DeepEqual(wantRep, gotRep) {
				t.Fatalf("LLM rerun report diverged:\nfirst: %+v\nrerun: %+v", wantRep, gotRep)
			}
			if !bytes.Equal(wantTrace, gotTrace) {
				t.Fatalf("LLM rerun trace diverged (%d vs %d bytes)", len(wantTrace), len(gotTrace))
			}
		})
	}
}
