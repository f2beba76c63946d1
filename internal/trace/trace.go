// Package trace is a zero-overhead-when-disabled event recorder for the
// simulated serving stack. Every layer can append timeline events — the
// engine's per-layer exec/load/migrate spans on every GPU, the serving
// system's request-lifecycle spans and eviction/relocation instants, and
// the network's per-link bandwidth counters — against the *virtual* clock.
//
// Tracing is observation-only by construction: the recorder never schedules
// simulator events, never reads wall-clock time, and never feeds anything
// back into the layers it observes, so a traced run is byte-identical to an
// untraced one (tests assert this). When disabled, the recorder is a nil
// pointer: every method is nil-safe, and hot call sites additionally guard
// argument construction behind a nil check so the disabled path costs one
// predictable branch and zero allocations. When enabled, event arguments
// are typed values (Arg) copied into a recorder-owned arena, so recording
// an event allocates nothing beyond the amortized growth of the event and
// argument buffers.
//
// Exporters: WriteChrome emits the Chrome trace-event JSON consumed by
// chrome://tracing and https://ui.perfetto.dev; cmd/deepplan-trace turns a
// written trace back into a queue/load/exec latency-breakdown table.
package trace

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"deepplan/internal/sim"
	"deepplan/internal/simnet"
)

// Phase is the Chrome trace-event phase of an Event.
type Phase byte

// Event phases (a subset of the Chrome trace-event format).
const (
	PhaseSpan       Phase = 'X' // complete event with duration
	PhaseInstant    Phase = 'i' // zero-duration mark
	PhaseCounter    Phase = 'C' // counter sample
	PhaseAsyncBegin Phase = 'b' // async span begin (overlap-safe)
	PhaseAsyncEnd   Phase = 'e' // async span end
)

// Track IDs within a GPU's process. The engine owns exec/load/migrate
// (mirroring its three CUDA streams); the serving layer owns queue and
// lifecycle.
const (
	TIDExec      = 0 // execution-stream spans (per layer)
	TIDLoad      = 1 // host→GPU PCIe copy spans
	TIDMigrate   = 2 // GPU→GPU NVLink forwarding spans
	TIDQueue     = 3 // serving queue spans
	TIDLifecycle = 4 // request async rows + serving instants
	TIDCounter   = 5 // counter samples (memory occupancy)
)

// Pseudo-process IDs. The exporter remaps them past the largest real GPU
// pid. FabricPID carries per-link bandwidth counters; ServerPID carries
// server-wide serving events that belong to no single GPU (waitlist
// parks/drains).
const (
	FabricPID = -1
	ServerPID = -2
)

// Event is one recorded timeline entry. Fields beyond (Phase, PID, TID, TS,
// Name) are phase-specific: Dur for spans, Value for counters, ID for async
// pairs, Args for everything optional.
type Event struct {
	Phase Phase
	PID   int
	TID   int
	TS    sim.Time
	Dur   sim.Duration
	ID    int64
	Value float64
	Name  string
	Cat   string
	// Args are the event's arguments in recording order, backed by the
	// recorder's arena (read-only). Look one up with Arg.
	Args []Arg
}

// Arg returns the event's argument with the given key. When a key was
// passed more than once, the last value wins, as it does in the export.
func (e *Event) Arg(key string) (Arg, bool) {
	for i := len(e.Args) - 1; i >= 0; i-- {
		if e.Args[i].Key == key {
			return e.Args[i], true
		}
	}
	return Arg{}, false
}

// argKind is the value type an Arg carries.
type argKind uint8

const (
	argInt argKind = iota
	argFloat
	argStr
	argBool
)

// Arg is one typed event argument: a key and an integer, float, string or
// boolean value. Build one with Int, Float, Str or Bool; the exporter
// writes it exactly as encoding/json writes the same Go value.
type Arg struct {
	Key  string
	kind argKind
	num  uint64 // int64 bits (Int, Bool) or float64 bits (Float)
	str  string
}

// Int returns an integer argument.
func Int[T ~int | ~int64](key string, v T) Arg {
	return Arg{Key: key, kind: argInt, num: uint64(int64(v))}
}

// Float returns a floating-point argument. NaN and ±Inf are recorded but
// make WriteChrome fail, as JSON cannot represent them.
func Float(key string, v float64) Arg {
	return Arg{Key: key, kind: argFloat, num: math.Float64bits(v)}
}

// Str returns a string argument.
func Str(key, v string) Arg { return Arg{Key: key, kind: argStr, str: v} }

// Bool returns a boolean argument.
func Bool(key string, v bool) Arg {
	a := Arg{Key: key, kind: argBool}
	if v {
		a.num = 1
	}
	return a
}

// Int returns the value of an Int argument (zero for other kinds).
func (a Arg) Int() int64 {
	if a.kind != argInt {
		return 0
	}
	return int64(a.num)
}

// Float returns the value of a Float argument (zero for other kinds).
func (a Arg) Float() float64 {
	if a.kind != argFloat {
		return 0
	}
	return math.Float64frombits(a.num)
}

// Str returns the value of a Str argument (empty for other kinds).
func (a Arg) Str() string { return a.str }

// Bool returns the value of a Bool argument (false for other kinds).
func (a Arg) Bool() bool { return a.kind == argBool && a.num != 0 }

// Recorder accumulates events in memory. The zero value is usable; a nil
// *Recorder is the disabled state and accepts (and drops) every call.
//
// A Recorder may also be a node view (see Node): a lightweight handle that
// remaps PIDs into a per-node range and buffers its node's events until
// MergeViews folds every view into the root recorder's stream. Node views
// let N independent serving nodes share one timeline: each node's GPUs,
// fabric, and server become distinct Perfetto processes (with node labels)
// instead of colliding on GPU ids.
type Recorder struct {
	events eventLog
	// args is the current arena chunk backing recorded events' Args; root
	// recorders only. A full chunk is left to the events that point into
	// it and a fresh one is started, so recorded args never move.
	args    []Arg
	asyncID int64
	// pidNames carries display names for remapped process ids (registered
	// by Node); the Chrome exporter consults it before its default naming.
	pidNames map[int]string
	// views lists the node views handed out by Node, in creation order;
	// root recorders only.
	views []*Recorder

	// Node-view fields; zero for a root recorder.
	root    *Recorder // non-nil marks this recorder as a view into root
	node    int
	pidBase int
	numGPUs int
}

// New returns an empty, enabled Recorder.
func New() *Recorder { return &Recorder{} }

// sink returns the recorder that owns the event storage: the root for a
// node view, r itself otherwise.
func (r *Recorder) sink() *Recorder {
	if r.root != nil {
		return r.root
	}
	return r
}

// mapPID translates a caller-side process id through the view's node range.
// Root recorders are the identity. Views shift real GPU ids by the node's
// base and give the fabric/server pseudo-processes per-node positive ids
// (the exporter's negative-pid remapping is for the root's single-node use).
func (r *Recorder) mapPID(pid int) int {
	if r.root == nil {
		return pid
	}
	switch pid {
	case FabricPID:
		return r.pidBase + r.numGPUs
	case ServerPID:
		return r.pidBase + r.numGPUs + 1
	default:
		return r.pidBase + pid
	}
}

// add maps the event's PID through the view and appends it to the view's
// own buffer (root recorders append to the final stream directly). Buffered
// view events become visible in the root stream only after MergeViews.
// Callers have already nil-checked r.
func (r *Recorder) add(e Event) {
	e.PID = r.mapPID(e.PID)
	r.events.add(e)
}

// eventChunk is the number of events per eventLog chunk.
const eventChunk = 256

// eventLog is an append-only event buffer held in fixed-size chunks, so
// growing it never copies or reallocates recorded events: the only
// allocation is a fresh chunk every eventChunk events.
type eventLog struct {
	chunks [][]Event
	n      int
}

// add appends e.
func (l *eventLog) add(e Event) {
	c := l.n / eventChunk
	if c == len(l.chunks) {
		l.chunks = append(l.chunks, make([]Event, eventChunk))
	}
	l.chunks[c][l.n%eventChunk] = e
	l.n++
}

// at returns the i-th event in insertion order.
func (l *eventLog) at(i int) *Event { return &l.chunks[i/eventChunk][i%eventChunk] }

// argChunk is the arena chunk size, in Args.
const argChunk = 512

// keep copies args into the root's arena and returns the copy (nil for no
// args). The caller's slice does not escape, so a variadic call site
// builds its args on the stack.
func (r *Recorder) keep(args []Arg) []Arg {
	if len(args) == 0 {
		return nil
	}
	root := r.sink()
	if cap(root.args)-len(root.args) < len(args) {
		root.args = make([]Arg, 0, max(argChunk, len(args)))
	}
	start := len(root.args)
	root.args = append(root.args, args...)
	return root.args[start:len(root.args):len(root.args)]
}

// Node returns a view of r for cluster node n of servers with numGPUs GPUs
// each: events recorded through the view land in r with their PIDs shifted
// into the node's range, and the node's GPU/fabric/server processes are
// registered with "node<n> ..." display names so Perfetto shows one track
// group per node. A nil recorder returns nil (tracing stays disabled);
// views of views share the same root.
func (r *Recorder) Node(n, numGPUs int) *Recorder {
	if r == nil {
		return nil
	}
	root := r.sink()
	stride := numGPUs + 2 // GPUs plus per-node fabric and server processes
	v := &Recorder{root: root, node: n, pidBase: n * stride, numGPUs: numGPUs}
	root.views = append(root.views, v)
	if root.pidNames == nil {
		root.pidNames = make(map[int]string)
	}
	for g := 0; g < numGPUs; g++ {
		root.pidNames[v.pidBase+g] = fmt.Sprintf("node%d GPU%d", n, g)
	}
	root.pidNames[v.pidBase+numGPUs] = fmt.Sprintf("node%d fabric", n)
	root.pidNames[v.pidBase+numGPUs+1] = fmt.Sprintf("node%d server", n)
	return v
}

// NamePID registers a display name for a process id, overriding the Chrome
// exporter's default naming ("GPU n", "server", ...). The cluster layer
// names its router process with this; Node registers its per-node names
// through the same table.
func (r *Recorder) NamePID(pid int, name string) {
	if r == nil {
		return
	}
	root := r.sink()
	if root.pidNames == nil {
		root.pidNames = make(map[int]string)
	}
	root.pidNames[r.mapPID(pid)] = name
}

// Enabled reports whether events are being recorded.
func (r *Recorder) Enabled() bool { return r != nil }

// Len returns the number of recorded events. For a node view this counts
// the root's merged stream; call MergeViews on the root first to fold in
// still-buffered view events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return r.sink().events.n
}

// Events returns a copy of the recorded events in insertion order. For a
// node view this is the root's full stream; view-buffered events appear
// only after MergeViews.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	l := &r.sink().events
	out := make([]Event, 0, l.n)
	for _, c := range l.chunks {
		out = append(out, c[:min(len(c), l.n-len(out))]...)
	}
	return out
}

// MergeViews folds every node view's buffered events into the root stream
// and empties the view buffers. The merge is deterministic: events are
// ordered by timestamp, with the root's own events first among equals and
// node views following in node order; events from the same source keep
// their recording order. This (timestamp, source) order is the exported
// event order of a cluster trace. Each source is stably ordered by
// timestamp on its own (free when it already is), then the sources are
// merged through a min-heap of their heads. Safe to call repeatedly; a nil
// or view recorder is a no-op.
func (r *Recorder) MergeViews() {
	if r == nil || r.root != nil || len(r.views) == 0 {
		return
	}
	srcs := make([]mergeSource, 0, 1+len(r.views))
	rootOnly := true
	for i := -1; i < len(r.views); i++ {
		rec := r
		if i >= 0 {
			rec = r.views[i]
		}
		if rec.events.n > 0 {
			srcs = append(srcs, mergeSource{events: rec.events, order: timeOrder(&rec.events)})
			rootOnly = rootOnly && i < 0
		}
	}
	if rootOnly && (len(srcs) == 0 || srcs[0].order == nil) {
		return // nothing buffered, and the root stream is already ordered
	}
	r.events = eventLog{}
	for _, v := range r.views {
		v.events = eventLog{}
	}
	// heap holds indices into srcs of sources with events left, ordered by
	// (head timestamp, source index); srcs is in root-then-node order.
	heap := make([]int, 0, len(srcs))
	less := func(a, b int) bool {
		ta, tb := srcs[a].head().TS, srcs[b].head().TS
		return ta < tb || ta == tb && a < b
	}
	down := func(i int) {
		for {
			m := i
			for c := 2*i + 1; c <= 2*i+2 && c < len(heap); c++ {
				if less(heap[c], heap[m]) {
					m = c
				}
			}
			if m == i {
				return
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
	}
	for i := range srcs {
		heap = append(heap, i)
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		down(i)
	}
	for len(heap) > 0 {
		s := &srcs[heap[0]]
		r.events.add(*s.head())
		s.next++
		if s.next == s.events.n {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		down(0)
	}
}

// mergeSource is one recorder's events being merged, read in timestamp
// order: through order when set, in place otherwise.
type mergeSource struct {
	events eventLog
	order  []tsIndex
	next   int
}

// head returns the source's next event in timestamp order.
func (s *mergeSource) head() *Event {
	if s.order != nil {
		return s.events.at(s.order[s.next].i)
	}
	return s.events.at(s.next)
}

// tsIndex is an event's timestamp and recording index.
type tsIndex struct {
	ts sim.Time
	i  int
}

// timeOrder returns the stable timestamp order of events as (timestamp,
// index) pairs, or nil when events are already in timestamp order. Sorting
// by the pair makes an unstable sort stable: recording indices are unique.
func timeOrder(events *eventLog) []tsIndex {
	sorted := true
	for i := 1; i < events.n && sorted; i++ {
		sorted = events.at(i-1).TS <= events.at(i).TS
	}
	if sorted {
		return nil
	}
	order := make([]tsIndex, events.n)
	for i := range order {
		order[i] = tsIndex{events.at(i).TS, i}
	}
	slices.SortFunc(order, func(a, b tsIndex) int {
		if c := cmp.Compare(a.ts, b.ts); c != 0 {
			return c
		}
		return cmp.Compare(a.i, b.i)
	})
	return order
}

// NextID hands out a fresh async-span ID, unique across all views of the
// same root.
func (r *Recorder) NextID() int64 {
	if r == nil {
		return 0
	}
	s := r.sink()
	s.asyncID++
	return s.asyncID
}

// Span records a complete span [start, end) on the given track.
func (r *Recorder) Span(pid, tid int, cat, name string, start, end sim.Time) {
	if r == nil {
		return
	}
	r.add(Event{
		Phase: PhaseSpan, PID: pid, TID: tid, TS: start,
		Dur: end.Sub(start), Name: name, Cat: cat,
	})
}

// SpanArgs is Span with attached arguments. The recorder copies args, so
// the call does not allocate; callers still guard it behind a nil check
// when building an argument value (a String method, a concatenation)
// costs anything.
func (r *Recorder) SpanArgs(pid, tid int, cat, name string, start, end sim.Time, args ...Arg) {
	if r == nil {
		return
	}
	r.add(Event{
		Phase: PhaseSpan, PID: pid, TID: tid, TS: start,
		Dur: end.Sub(start), Name: name, Cat: cat, Args: r.keep(args),
	})
}

// Instant records a zero-duration mark (rendered as an arrow in Perfetto).
func (r *Recorder) Instant(pid, tid int, cat, name string, at sim.Time) {
	if r == nil {
		return
	}
	r.add(Event{
		Phase: PhaseInstant, PID: pid, TID: tid, TS: at, Name: name, Cat: cat,
	})
}

// InstantArgs is Instant with attached arguments (copied, as in SpanArgs).
func (r *Recorder) InstantArgs(pid, tid int, cat, name string, at sim.Time, args ...Arg) {
	if r == nil {
		return
	}
	r.add(Event{
		Phase: PhaseInstant, PID: pid, TID: tid, TS: at, Name: name, Cat: cat, Args: r.keep(args),
	})
}

// Counter records one sample of the named counter track.
func (r *Recorder) Counter(pid int, name string, at sim.Time, value float64) {
	if r == nil {
		return
	}
	r.add(Event{
		Phase: PhaseCounter, PID: pid, TID: TIDCounter, TS: at, Name: name, Value: value,
	})
}

// AsyncBegin opens an async span. Async spans with the same (cat, id) nest,
// and unlike Span they render correctly when spans on one track overlap —
// which concurrent requests queued on one GPU always do. Args are copied,
// as in SpanArgs.
func (r *Recorder) AsyncBegin(pid int, cat, name string, id int64, at sim.Time, args ...Arg) {
	if r == nil {
		return
	}
	r.add(Event{
		Phase: PhaseAsyncBegin, PID: pid, TID: TIDLifecycle, TS: at,
		ID: id, Name: name, Cat: cat, Args: r.keep(args),
	})
}

// AsyncEnd closes an async span opened with the same (cat, name, id).
func (r *Recorder) AsyncEnd(pid int, cat, name string, id int64, at sim.Time) {
	if r == nil {
		return
	}
	r.add(Event{
		Phase: PhaseAsyncEnd, PID: pid, TID: TIDLifecycle, TS: at,
		ID: id, Name: name, Cat: cat,
	})
}

// AttachNetwork subscribes the recorder to n's per-link rate changes and
// records them as counter tracks (in GB/s) under the fabric pseudo-process,
// which is how Perfetto renders the paper's §3.2 bandwidth-collapse curve.
// Attach before starting flows; a nil recorder attaches nothing, keeping
// the network's hot path untouched.
func (r *Recorder) AttachNetwork(n *simnet.Network) {
	if r == nil || n == nil {
		return
	}
	// The counter-name string per link is built once and cached: rate
	// changes fire on every flow arrival/completion.
	names := map[*simnet.Link]string{}
	n.ObserveRates(func(at sim.Time, l *simnet.Link, bytesPerSec float64) {
		name, ok := names[l]
		if !ok {
			name = l.Name() + " (GB/s)"
			names[l] = name
		}
		r.Counter(FabricPID, name, at, bytesPerSec/1e9)
	})
}
