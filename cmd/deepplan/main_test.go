package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"deepplan"
	"deepplan/internal/trace"
)

type chromeEvent struct {
	Ph   string  `json:"ph"`
	Name string  `json:"name"`
	PID  int     `json:"pid"`
	TID  int     `json:"tid"`
	Dur  float64 `json:"dur"`
}

// ptdhaTrace plans and cold-starts BERT-Base under PT+DHA on the p3.8xlarge
// (secondary GPU 2) and returns the exported trace bytes and events.
func ptdhaTrace(t *testing.T) ([]byte, []chromeEvent, map[string]string) {
	t.Helper()
	platform := deepplan.NewP38xlarge()
	m, err := deepplan.LoadModel("bert-base")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := platform.Profile(m, deepplan.ProfileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pln, err := platform.Plan(prof, deepplan.ModePTDHA)
	if err != nil {
		t.Fatal(err)
	}
	res, err := platform.Execute(m, pln, deepplan.ExecuteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeTrace(&buf, res); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []chromeEvent     `json:"traceEvents"`
		OtherData   map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	return buf.Bytes(), parsed.TraceEvents, parsed.OtherData
}

func TestWriteTraceValidJSON(t *testing.T) {
	raw, events, meta := ptdhaTrace(t)
	if meta["model"] != "BERT-Base" || meta["mode"] != "pt+dha" {
		t.Fatalf("otherData = %v", meta)
	}
	var exec, load, migrate int
	for _, e := range events {
		if e.Ph != "X" {
			continue
		}
		switch e.TID {
		case trace.TIDExec:
			exec++
		case trace.TIDLoad:
			load++
		case trace.TIDMigrate:
			migrate++
		}
		if e.Dur < 0 {
			t.Fatal("negative duration event")
		}
	}
	if exec == 0 || load == 0 || migrate == 0 {
		t.Fatalf("track counts exec=%d load=%d migrate=%d; all should be populated for PT+DHA",
			exec, load, migrate)
	}
	if !strings.Contains(string(raw), "embeddings.word") {
		t.Fatal("trace missing layer names")
	}
}

// TestWriteTraceSecondaryTracks: the secondary GPU's PCIe copies and NVLink
// forwards must land under its own pid, not the primary's.
func TestWriteTraceSecondaryTracks(t *testing.T) {
	_, events, _ := ptdhaTrace(t)
	var secLoad, secMigrate, secNamed int
	for _, e := range events {
		if e.PID != 2 {
			continue
		}
		switch {
		case e.Ph == "X" && e.TID == trace.TIDLoad:
			secLoad++
		case e.Ph == "X" && e.TID == trace.TIDMigrate:
			secMigrate++
		case e.Ph == "M" && e.Name == "process_name":
			secNamed++
		}
	}
	if secLoad == 0 {
		t.Fatal("no load spans on the secondary GPU")
	}
	if secMigrate == 0 {
		t.Fatal("no migrate (forward) spans on the secondary GPU")
	}
	if secNamed == 0 {
		t.Fatal("secondary GPU process is unnamed")
	}
}
