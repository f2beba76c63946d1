package trace

import (
	"bytes"
	"encoding/json"
	"testing"
)

func decode(t *testing.T, buf *bytes.Buffer) (events []map[string]any, other map[string]string) {
	t.Helper()
	var parsed struct {
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		OtherData       map[string]string `json:"otherData"`
		TraceEvents     []map[string]any  `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if parsed.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", parsed.DisplayTimeUnit)
	}
	return parsed.TraceEvents, parsed.OtherData
}

func TestWriteChromeShapes(t *testing.T) {
	r := New()
	r.Span(0, TIDExec, "exec", "layer0", 1000, 3000)
	r.SpanArgs(1, TIDLoad, "load", "copy layer1", 2000, 5000, Int("partition", 1))
	r.Instant(0, TIDLifecycle, "serving", "evict bert", 4000)
	r.Counter(FabricPID, "lane (GB/s)", 1500, 6.4)
	id := r.NextID()
	r.AsyncBegin(1, "request", "bert", id, 500, Str("class", "cold"))
	r.AsyncEnd(1, "request", "bert", id, 9000)
	r.Instant(ServerPID, TIDLifecycle, "serving", "drain waitlist", 6000)

	var buf bytes.Buffer
	if err := WriteChrome(&buf, r, map[string]string{"model": "bert"}); err != nil {
		t.Fatal(err)
	}
	events, other := decode(t, &buf)
	if other["model"] != "bert" {
		t.Fatalf("otherData = %v", other)
	}

	byPhase := map[string][]map[string]any{}
	var prevTS float64 = -1
	procNames := map[int]string{}
	for _, e := range events {
		ph := e["ph"].(string)
		byPhase[ph] = append(byPhase[ph], e)
		if ph == "M" {
			if e["name"] == "process_name" {
				procNames[int(e["pid"].(float64))] = e["args"].(map[string]any)["name"].(string)
			}
			continue
		}
		ts := e["ts"].(float64)
		if ts < prevTS {
			t.Fatalf("events out of timestamp order: %g after %g", ts, prevTS)
		}
		prevTS = ts
	}

	// Timestamps are microseconds: the 1000 ns span starts at 1 us, dur 2 us.
	x := byPhase["X"][0]
	if x["ts"].(float64) != 1 || x["dur"].(float64) != 2 {
		t.Fatalf("span ts/dur = %v/%v; want 1/2 us", x["ts"], x["dur"])
	}
	if byPhase["X"][1]["args"].(map[string]any)["partition"].(float64) != 1 {
		t.Fatal("SpanArgs args dropped")
	}
	for _, i := range byPhase["i"] {
		if i["s"] != "t" {
			t.Fatalf("instant scope = %v; want thread", i["s"])
		}
	}
	c := byPhase["C"][0]
	if c["args"].(map[string]any)["value"].(float64) != 6.4 {
		t.Fatalf("counter args = %v", c["args"])
	}
	if len(byPhase["b"]) != 1 || len(byPhase["e"]) != 1 {
		t.Fatalf("async pair counts b=%d e=%d", len(byPhase["b"]), len(byPhase["e"]))
	}
	if byPhase["b"][0]["id"].(float64) != byPhase["e"][0]["id"].(float64) {
		t.Fatal("async begin/end ids differ")
	}

	// Pseudo-pids land past the real ones: GPUs are 0..1, fabric 2, server 3.
	if procNames[2] != "fabric (PCIe/NVLink)" || procNames[3] != "server" {
		t.Fatalf("process names = %v", procNames)
	}
	if c["pid"].(float64) != 2 {
		t.Fatalf("counter pid = %v; want remapped fabric pid 2", c["pid"])
	}
	if procNames[0] != "GPU 0" || procNames[1] != "GPU 1" {
		t.Fatalf("GPU process names = %v", procNames)
	}
}

func TestWriteChromeStableSameInstantOrder(t *testing.T) {
	r := New()
	// Same-timestamp events must keep recording order so nested async
	// begins open outer-first.
	r.AsyncBegin(0, "request", "outer", 1, 100)
	r.AsyncBegin(0, "request", "inner", 1, 100)
	var buf bytes.Buffer
	if err := WriteChrome(&buf, r, nil); err != nil {
		t.Fatal(err)
	}
	events, _ := decode(t, &buf)
	var names []string
	for _, e := range events {
		if e["ph"] == "b" {
			names = append(names, e["name"].(string))
		}
	}
	if len(names) != 2 || names[0] != "outer" || names[1] != "inner" {
		t.Fatalf("same-instant order = %v", names)
	}
}

func TestWriteChromeNilRecorder(t *testing.T) {
	if err := WriteChrome(&bytes.Buffer{}, nil, nil); err == nil {
		t.Fatal("nil recorder accepted")
	}
}
