// Package sim provides a deterministic discrete-event simulation engine.
//
// All hardware substrates in this repository (PCIe/NVLink transfers, GPU
// streams, the serving system) are driven by a single Simulator instance.
// Time is virtual: scheduling an event never blocks, and Run advances the
// clock from event to event. Two events scheduled for the same instant fire
// in submission order, which makes every simulation in this repository fully
// deterministic and therefore testable.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds. It converts directly
// to and from time.Duration.
type Duration = time.Duration

// Common durations, re-exported for call-site brevity.
const (
	Nanosecond  = Duration(1)
	Microsecond = 1000 * Nanosecond
	Millisecond = 1000 * Microsecond
	Second      = 1000 * Millisecond
)

// MaxTime is the largest representable instant.
const MaxTime = Time(math.MaxInt64)

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the instant as a float64 number of seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Milliseconds returns the instant as a float64 number of milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / 1e6 }

// Microseconds returns the instant as a float64 number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / 1e3 }

// String formats the instant as a duration since the virtual epoch.
func (t Time) String() string { return Duration(t).String() }

// Event is a scheduled callback. It is returned by the scheduling methods so
// callers can cancel it before it fires.
//
// Event objects are recycled: once an event has fired or been cancelled, the
// simulator may reuse the object for a later scheduling call. Retaining a
// pointer past that moment and calling Cancel or Scheduled on it observes the
// recycled event, so drop (or overwrite) the pointer when the event fires or
// immediately after cancelling it — exactly what every caller in this
// repository already does. Recycling is what keeps million-event serving
// traces from churning the garbage collector.
type Event struct {
	at    Time
	fn    func()
	index int // heap index, -1 when not queued
}

// At returns the instant the event is (or was) scheduled to fire.
func (e *Event) At() Time { return e.at }

// Scheduled reports whether the event is still pending.
func (e *Event) Scheduled() bool { return e.index >= 0 }

// entry is one heap slot. The ordering key is stored by value beside the
// event pointer, so sifting compares entries without dereferencing them.
type entry struct {
	at  Time
	seq uint64
	ev  *Event
}

// before is the queue's total order: earlier instant first, then earlier
// submission. Sequence numbers are unique, so no two entries tie and the
// firing order is independent of the heap's shape.
func (a *entry) before(b *entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Simulator is a discrete-event scheduler with a virtual clock.
// The zero value is not usable; call New.
//
// Pending events live in a 4-ary min-heap of entries ordered by (at, seq).
// A 4-ary heap is half as deep as a binary one, and a pop's four child
// comparisons read one contiguous run of entries.
type Simulator struct {
	now   Time
	heap  []entry
	seq   uint64
	fired uint64
	free  []*Event // recycled Event objects (see Event)
}

// New returns a Simulator with the clock at zero and no pending events.
func New() *Simulator { return &Simulator{} }

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// EventsFired returns the number of events executed so far. It is useful for
// instrumentation and loop-bound assertions in tests.
func (s *Simulator) EventsFired() uint64 { return s.fired }

// Pending returns the number of events waiting to fire.
func (s *Simulator) Pending() int { return len(s.heap) }

// At schedules fn to run at instant t. Scheduling in the past panics: it is
// always a logic error in the layers above, and silently reordering time
// would corrupt every timeline built on top of the simulator.
func (s *Simulator) At(t Time, fn func()) *Event {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	if fn == nil {
		panic("sim: nil event callback")
	}
	var e *Event
	if k := len(s.free) - 1; k >= 0 {
		e = s.free[k]
		s.free[k] = nil
		s.free = s.free[:k]
		e.at, e.fn = t, fn
	} else {
		e = &Event{at: t, fn: fn}
	}
	s.heap = append(s.heap, entry{at: t, seq: s.seq, ev: e})
	s.seq++
	s.up(len(s.heap) - 1)
	return e
}

// After schedules fn to run d from now. Negative d panics via At.
func (s *Simulator) After(d Duration, fn func()) *Event {
	return s.At(s.now.Add(d), fn)
}

// Cancel removes a pending event and recycles it. Cancelling an event that
// already fired or was already cancelled is a no-op.
func (s *Simulator) Cancel(e *Event) {
	if e == nil || e.index < 0 {
		return
	}
	s.remove(e.index)
	e.fn = nil
	s.free = append(s.free, e)
}

// Step fires the earliest pending event and advances the clock to it.
// It reports whether an event was fired.
func (s *Simulator) Step() bool {
	if len(s.heap) == 0 {
		return false
	}
	e := s.heap[0].ev
	s.remove(0)
	s.now = e.at
	s.fired++
	fn := e.fn
	fn()
	// Recycle after the callback so nothing scheduled inside it can alias
	// the event that is still conceptually "firing".
	e.fn = nil
	s.free = append(s.free, e)
	return true
}

// Run fires events until none remain.
func (s *Simulator) Run() {
	for s.Step() {
	}
}

// RunUntil fires events with timestamps <= t, then sets the clock to t.
// Events scheduled for after t remain pending.
func (s *Simulator) RunUntil(t Time) {
	for len(s.heap) > 0 && s.heap[0].at <= t {
		s.Step()
	}
	if t > s.now {
		s.now = t
	}
}

// remove deletes the entry at heap index i and marks its event unqueued.
func (s *Simulator) remove(i int) {
	h := s.heap
	h[i].ev.index = -1
	last := len(h) - 1
	if i != last {
		h[i] = h[last]
		h[i].ev.index = i
	}
	h[last] = entry{}
	s.heap = h[:last]
	if i != last && !s.down(i) && i > 0 {
		s.up(i)
	}
}

// up sifts the entry at index i toward the root, moving parents down into
// the hole and writing the entry once at its final slot.
func (s *Simulator) up(i int) {
	h := s.heap
	x := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(&h[p]) {
			break
		}
		h[i] = h[p]
		h[i].ev.index = i
		i = p
	}
	h[i] = x
	x.ev.index = i
}

// down sifts the entry at index i toward the leaves and reports whether it
// moved.
func (s *Simulator) down(i0 int) bool {
	h := s.heap
	n := len(h)
	x := h[i0]
	i := i0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for k := c + 1; k < end; k++ {
			if h[k].before(&h[m]) {
				m = k
			}
		}
		if !h[m].before(&x) {
			break
		}
		h[i] = h[m]
		h[i].ev.index = i
		i = m
	}
	h[i] = x
	x.ev.index = i
	return i > i0
}
