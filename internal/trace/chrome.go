package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"
)

// Track display names for the per-GPU thread IDs.
var tidNames = map[int]string{
	TIDExec:      "exec",
	TIDLoad:      "load (PCIe)",
	TIDMigrate:   "migrate (NVLink)",
	TIDQueue:     "queue",
	TIDLifecycle: "requests",
	TIDCounter:   "counters",
}

// WriteChrome emits the recorded events as Chrome trace-event JSON, loadable
// in chrome://tracing and https://ui.perfetto.dev. Each GPU becomes one
// process ("GPU n") with exec/load/migrate/queue/request tracks; link
// bandwidth counters live under a synthetic "fabric" process. meta, if
// non-nil, is attached as otherData. Events are written in stable timestamp
// order, so equal-instant events keep their recording order (async begins
// nest correctly).
//
// Records are appended straight into one reused buffer, byte for byte as
// encoding/json would marshal them from maps: keys sorted, floats and
// HTML-escaped strings in its format. A NaN or infinite value fails the
// export, as it does in encoding/json.
func WriteChrome(w io.Writer, r *Recorder, meta map[string]string) error {
	if r == nil {
		return fmt.Errorf("trace: nil recorder")
	}
	root := r.sink()
	root.MergeViews() // fold in any still-buffered node-view events
	events := &root.events
	order := timeOrder(events) // nil: already in timestamp order

	// Pseudo-pids are remapped past the largest real pid.
	maxPID := -1
	for i := 0; i < events.n; i++ {
		maxPID = max(maxPID, events.at(i).PID)
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

	enc := chromeEncoder{w: w, buf: make([]byte, 0, 64<<10)}
	enc.buf = append(enc.buf, `{"displayTimeUnit":"ms",`...)
	if len(meta) > 0 {
		enc.buf = append(enc.buf, `"otherData":`...)
		keys := make([]string, 0, len(meta))
		for k := range meta {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		sep := byte('{')
		for _, k := range keys {
			enc.buf = append(enc.buf, sep)
			sep = ','
			enc.buf = appendString(enc.buf, k)
			enc.buf = append(enc.buf, ':')
			enc.buf = appendString(enc.buf, meta[k])
		}
		enc.buf = append(enc.buf, "},"...)
	}
	enc.buf = append(enc.buf, `"traceEvents":[`...)

	// Metadata: name every process and every span-carrying track seen.
	type pidTid struct{ pid, tid int }
	seenPID := map[int]bool{}
	seenTID := map[pidTid]bool{}
	for i := 0; i < events.n; i++ {
		e := events.at(i)
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
			// Node views register display names for their remapped pids
			// ("node0 GPU1", "node1 fabric", ...) so multi-node traces show
			// one labelled track group per node.
			if nm, ok := root.pidNames[e.PID]; ok {
				name = nm
			}
			if err := enc.meta("process_name", name, p, 0); err != nil {
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
				if err := enc.meta("thread_name", name, p, e.TID); err != nil {
					return err
				}
			}
		}
	}

	for k := 0; k < events.n; k++ {
		e := events.at(k)
		if order != nil {
			e = events.at(order[k].i)
		}
		if err := enc.event(e, pid(e.PID)); err != nil {
			return err
		}
	}
	enc.buf = append(enc.buf, "]}\n"...)
	_, err := w.Write(enc.buf)
	return err
}

// chromeEncoder appends trace-event records to buf and hands buf to w
// whenever it fills past flushAt.
type chromeEncoder struct {
	w       io.Writer
	buf     []byte
	records int
	args    []Arg // scratch for sorting one event's args
}

// flushAt is the buffered size past which records are written out.
const flushAt = 60 << 10

// begin starts a record, separating it from the previous one.
func (c *chromeEncoder) begin() {
	if c.records > 0 {
		c.buf = append(c.buf, ",\n"...)
	}
	c.records++
	c.buf = append(c.buf, '{')
}

// end closes a record and writes the buffer out once it is large.
func (c *chromeEncoder) end() error {
	c.buf = append(c.buf, '}')
	if len(c.buf) < flushAt {
		return nil
	}
	_, err := c.w.Write(c.buf)
	c.buf = c.buf[:0]
	return err
}

// meta writes a process_name or thread_name metadata record.
func (c *chromeEncoder) meta(kind, name string, pid, tid int) error {
	c.begin()
	c.buf = append(c.buf, `"args":{"name":`...)
	c.buf = appendString(c.buf, name)
	c.buf = append(c.buf, `},"name":`...)
	c.buf = appendString(c.buf, kind)
	c.buf = append(c.buf, `,"ph":"M","pid":`...)
	c.buf = strconv.AppendInt(c.buf, int64(pid), 10)
	c.buf = append(c.buf, `,"tid":`...)
	c.buf = strconv.AppendInt(c.buf, int64(tid), 10)
	return c.end()
}

// event writes one recorded event under the exported pid. Keys appear in
// encoding/json's sorted map order: args, cat, dur, id, name, ph, pid, s,
// tid, ts.
func (c *chromeEncoder) event(e *Event, pid int) error {
	c.begin()
	var err error
	switch {
	case len(e.Args) > 0:
		c.buf = append(c.buf, `"args":`...)
		if err = c.appendArgs(e.Args); err != nil {
			return err
		}
		c.buf = append(c.buf, ',')
	case e.Phase == PhaseCounter:
		c.buf = append(c.buf, `"args":{"value":`...)
		if c.buf, err = appendFloat(c.buf, e.Value); err != nil {
			return err
		}
		c.buf = append(c.buf, "},"...)
	}
	if e.Cat != "" {
		c.buf = append(c.buf, `"cat":`...)
		c.buf = appendString(c.buf, e.Cat)
		c.buf = append(c.buf, ',')
	}
	switch e.Phase {
	case PhaseSpan:
		c.buf = append(c.buf, `"dur":`...)
		c.buf = appendMicros(c.buf, int64(e.Dur))
		c.buf = append(c.buf, ',')
	case PhaseAsyncBegin, PhaseAsyncEnd:
		c.buf = append(c.buf, `"id":`...)
		c.buf = strconv.AppendInt(c.buf, e.ID, 10)
		c.buf = append(c.buf, ',')
	}
	c.buf = append(c.buf, `"name":`...)
	c.buf = appendString(c.buf, e.Name)
	// Phases are ASCII letters, so the one-byte string needs no escaping.
	c.buf = append(c.buf, `,"ph":"`...)
	c.buf = append(c.buf, byte(e.Phase))
	c.buf = append(c.buf, `","pid":`...)
	c.buf = strconv.AppendInt(c.buf, int64(pid), 10)
	if e.Phase == PhaseInstant {
		c.buf = append(c.buf, `,"s":"t"`...) // thread-scoped mark
	}
	c.buf = append(c.buf, `,"tid":`...)
	c.buf = strconv.AppendInt(c.buf, int64(e.TID), 10)
	c.buf = append(c.buf, `,"ts":`...)
	c.buf = appendMicros(c.buf, int64(e.TS))
	return c.end()
}

// appendMicros appends a nanosecond time in the format's microseconds, as
// appendFloat(float64(ns)/1e3) would. Below 1e15 ns the exact decimal
// ns/1000 has at most 15 significant digits, so no shorter decimal names
// the same float64 and it can be written digit by digit.
func appendMicros(b []byte, ns int64) []byte {
	if ns <= -1e15 || ns >= 1e15 {
		b, _ = appendFloat(b, float64(ns)/1e3) // finite: never fails
		return b
	}
	if ns < 0 {
		b = append(b, '-')
		ns = -ns
	}
	b = strconv.AppendInt(b, ns/1000, 10)
	if frac := ns % 1000; frac != 0 {
		digits := [4]byte{'.', byte('0' + frac/100), byte('0' + frac/10%10), byte('0' + frac%10)}
		n := 4
		for digits[n-1] == '0' {
			n--
		}
		b = append(b, digits[:n]...)
	}
	return b
}

// appendArgs writes args as a JSON object with keys in sorted order; of
// repeated keys the last one wins, as when the args fill a map in order.
func (c *chromeEncoder) appendArgs(args []Arg) error {
	c.args = append(c.args[:0], args...)
	sorted := c.args
	// Insertion sort: events carry a handful of args, and it is stable.
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j].Key < sorted[j-1].Key; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	c.buf = append(c.buf, '{')
	first := true
	for i := range sorted {
		a := &sorted[i]
		if i+1 < len(sorted) && sorted[i+1].Key == a.Key {
			continue
		}
		if !first {
			c.buf = append(c.buf, ',')
		}
		first = false
		c.buf = appendString(c.buf, a.Key)
		c.buf = append(c.buf, ':')
		switch a.kind {
		case argInt:
			c.buf = strconv.AppendInt(c.buf, int64(a.num), 10)
		case argFloat:
			var err error
			if c.buf, err = appendFloat(c.buf, math.Float64frombits(a.num)); err != nil {
				return err
			}
		case argStr:
			c.buf = appendString(c.buf, a.str)
		case argBool:
			c.buf = strconv.AppendBool(c.buf, a.num != 0)
		}
	}
	c.buf = append(c.buf, '}')
	return nil
}

// appendFloat appends f as encoding/json formats a float64: the shortest
// decimal that round-trips, in exponent form only for magnitudes below
// 1e-6 or from 1e21 up, with a one-digit negative exponent unpadded.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, fmt.Errorf("trace: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendString appends s as a JSON string exactly as encoding/json writes
// it. Printable ASCII other than the quote, the backslash and the
// HTML-sensitive <, > and & is copied as is; anything else takes
// encoding/json's own path.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
