package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"testing"

	"deepplan/internal/sim"
)

// FuzzWriteChrome checks the direct Chrome encoder, and the merge of node
// views behind it, against referenceChrome: the map[string]any +
// encoding/json exporter with a global stable sort that WriteChrome
// replaced. For any recording the two must produce identical bytes, or
// both fail (NaN and ±Inf have no JSON form). Run with
// `go test ./internal/trace -run '^$' -fuzz FuzzWriteChrome`.
func FuzzWriteChrome(f *testing.F) {
	huge := []int64{math.MaxInt64, math.MinInt64, 0, -1, 1 << 53}
	floats := []float64{1e-6, 9.999999e-7, 1e-7, 1e21, 9.99999e20, math.Copysign(0, -1),
		5e-324, math.MaxFloat64, 0.1, 123456.789, math.NaN(), math.Inf(-1)}
	strs := []string{"plain", `<a href="x">&amp;</a>`, `back\slash "quoted"`,
		"ctl\x00\x01\x1f\b\f\n\r\t\x7f", "sep\u2028\u2029", "bad\xff\xfeutf8", "é€😀", "",
		// One escaped character each, so no other one forces the slow path.
		"a<b", "a>b", "a&b", `a"b`, `a\b`, "a\x1fb", "a\nb", "a\x7fb", "aéb"}
	for i, s := range strs {
		ops := []byte{byte(i), byte(7 * i), 0x80 * byte(i%2), 3, 11, 19, 255, byte(i * 31)}
		f.Add(ops, s, "k"+s, s+"k", 0.25*float64(i), huge[i%len(huge)], i%2 == 0)
	}
	for i, x := range floats {
		f.Add([]byte{byte(i), 6, 2, 14, 130}, "x", "a", "a", x, huge[i%len(huge)], true)
	}
	f.Fuzz(func(t *testing.T, ops []byte, s, k1, k2 string, x float64, n int64, b bool) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		record := func() *Recorder {
			r := New()
			srcs := []*Recorder{r}
			if len(ops) > 0 && ops[0]&0x80 == 0 {
				srcs = append(srcs, r.Node(0, 2), r.Node(1, 2))
			}
			r.NamePID(ServerPID, s)
			for j, op := range ops {
				src := srcs[int(op)%len(srcs)]
				ts := sim.Time(op>>3)*1000 + sim.Time(op%5)*125
				if op == 255 {
					ts = sim.Time(n) // any instant, huge and negative ones too
				}
				switch j % 7 {
				case 0:
					src.SpanArgs(int(op)%3, TIDExec, "exec", s, ts, sim.Time(n),
						Str(k1, s), Float(k2, x), Int("n", n), Bool("b", b))
				case 1:
					src.InstantArgs(ServerPID, TIDLifecycle, s, "i "+s, ts, Float("x", x), Str(k2, s))
				case 2:
					src.Counter(FabricPID, s, ts, x)
				case 3:
					src.AsyncBegin(1, "request", s, src.NextID(), ts, Int(k1, n), Int(k2, int64(op)))
				case 4:
					src.AsyncEnd(1, "request", s, n, ts)
				case 5:
					src.Span(int(op)%4, int(op)%8, "", k1, ts, ts+sim.Time(op))
				case 6:
					src.Instant(ServerPID, TIDQueue, "serving", k2, ts)
				}
			}
			return r
		}
		var got, want bytes.Buffer
		errGot := WriteChrome(&got, record(), map[string]string{k1: s, "case": k2})
		errWant := referenceChrome(&want, record(), map[string]string{k1: s, "case": k2})
		if (errGot == nil) != (errWant == nil) {
			t.Fatalf("error mismatch: got %v, reference %v", errGot, errWant)
		}
		if errGot == nil && !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("export differs from reference at byte %d:\n got %q\nwant %q",
				firstDiff(got.Bytes(), want.Bytes()), got.String(), want.String())
		}
	})
}

// firstDiff returns the index of the first differing byte of a and b.
func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// referenceMerge is MergeViews as a global stable sort of tagged copies by
// (timestamp, source), returning the merged stream.
func referenceMerge(r *Recorder) []Event {
	type tagged struct {
		src int // -1 for root events, view index otherwise
		e   Event
	}
	if len(r.views) == 0 {
		return r.Events()
	}
	var all []tagged
	for _, e := range r.Events() {
		all = append(all, tagged{src: -1, e: e})
	}
	for i, v := range r.views {
		for j := 0; j < v.events.n; j++ {
			all = append(all, tagged{src: i, e: *v.events.at(j)})
		}
	}
	sort.SliceStable(all, func(a, b int) bool {
		if all[a].e.TS != all[b].e.TS {
			return all[a].e.TS < all[b].e.TS
		}
		return all[a].src < all[b].src
	})
	merged := make([]Event, len(all))
	for i := range all {
		merged[i] = all[i].e
	}
	return merged
}

// argMap rebuilds an event's args as the map the reference marshals.
func argMap(args []Arg) map[string]any {
	if args == nil {
		return nil
	}
	m := make(map[string]any, len(args))
	for _, a := range args {
		switch a.kind {
		case argInt:
			m[a.Key] = a.Int()
		case argFloat:
			m[a.Key] = a.Float()
		case argStr:
			m[a.Key] = a.Str()
		case argBool:
			m[a.Key] = a.Bool()
		}
	}
	return m
}

// referenceChrome is the map-building exporter WriteChrome must match byte
// for byte: one map[string]any per record, marshalled by encoding/json.
func referenceChrome(w io.Writer, r *Recorder, meta map[string]string) error {
	events := referenceMerge(r)
	order := make([]int, len(events))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return events[order[a]].TS < events[order[b]].TS
	})
	maxPID := -1
	for i := range events {
		if events[i].PID > maxPID {
			maxPID = events[i].PID
		}
	}
	fabric, server := maxPID+1, maxPID+2
	pid := func(p int) int {
		switch p {
		case FabricPID:
			return fabric
		case ServerPID:
			return server
		default:
			return p
		}
	}
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ms",`)
	if len(meta) > 0 {
		bw.WriteString(`"otherData":`)
		b, err := json.Marshal(meta)
		if err != nil {
			return err
		}
		bw.Write(b)
		bw.WriteString(",")
	}
	bw.WriteString(`"traceEvents":[`)
	first := true
	emit := func(e map[string]any) error {
		b, err := json.Marshal(e)
		if err != nil {
			return err
		}
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		_, err = bw.Write(b)
		return err
	}
	type pidTid struct{ pid, tid int }
	seenPID := map[int]bool{}
	seenTID := map[pidTid]bool{}
	for i := range events {
		e := &events[i]
		p := pid(e.PID)
		if !seenPID[p] {
			seenPID[p] = true
			name := fmt.Sprintf("GPU %d", p)
			switch e.PID {
			case FabricPID:
				name = "fabric (PCIe/NVLink)"
			case ServerPID:
				name = "server"
			}
			if nm, ok := r.pidNames[e.PID]; ok {
				name = nm
			}
			if err := emit(map[string]any{
				"name": "process_name", "ph": "M", "pid": p, "tid": 0,
				"args": map[string]any{"name": name},
			}); err != nil {
				return err
			}
		}
		if e.Phase == PhaseSpan || e.Phase == PhaseInstant {
			key := pidTid{p, e.TID}
			if !seenTID[key] {
				seenTID[key] = true
				name, ok := tidNames[e.TID]
				if !ok {
					name = fmt.Sprintf("track %d", e.TID)
				}
				if err := emit(map[string]any{
					"name": "thread_name", "ph": "M", "pid": p, "tid": e.TID,
					"args": map[string]any{"name": name},
				}); err != nil {
					return err
				}
			}
		}
	}
	for _, i := range order {
		e := &events[i]
		j := map[string]any{
			"name": e.Name,
			"ph":   string(rune(e.Phase)),
			"ts":   float64(e.TS) / 1e3,
			"pid":  pid(e.PID),
			"tid":  e.TID,
		}
		if e.Cat != "" {
			j["cat"] = e.Cat
		}
		switch e.Phase {
		case PhaseSpan:
			j["dur"] = float64(e.Dur) / 1e3
		case PhaseInstant:
			j["s"] = "t"
		case PhaseCounter:
			j["args"] = map[string]any{"value": e.Value}
		case PhaseAsyncBegin, PhaseAsyncEnd:
			j["id"] = e.ID
		}
		if args := argMap(e.Args); args != nil {
			j["args"] = args
		}
		if err := emit(j); err != nil {
			return err
		}
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}

// appendMicros must match encoding/json's rendering of float64(ns)/1e3 for
// every nanosecond count, including the digit-by-digit range's edges.
func TestAppendMicrosMatchesJSON(t *testing.T) {
	cases := []int64{0, 1, -1, 999, 1000, 1001, -1500, 123456789, 1e15 - 1, 1e15, -1e15 + 1, -1e15,
		1e18 + 7, math.MaxInt64, math.MinInt64, 1 << 53, 1<<53 + 1}
	rng := uint64(1)
	for i := 0; i < 20000; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		v := int64(rng >> uint(rng%64))
		if i%2 == 1 {
			v = -v
		}
		cases = append(cases, v, v%1e15, v%1e6)
	}
	for _, ns := range cases {
		want, err := json.Marshal(float64(ns) / 1e3)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendMicros(nil, ns); !bytes.Equal(got, want) {
			t.Fatalf("appendMicros(%d) = %s; encoding/json writes %s", ns, got, want)
		}
	}
}
