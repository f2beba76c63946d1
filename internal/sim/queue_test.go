package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// refEvent is one pending event of the reference queue.
type refEvent struct {
	at  Time
	seq uint64
	id  int
}

// refQueue is the reference model of the simulator's event queue: a slice
// kept sorted by (at, seq), searched and shifted linearly.
type refQueue struct {
	now     Time
	seq     uint64
	fired   uint64
	pending []refEvent
}

func (r *refQueue) push(at Time, id int) {
	ev := refEvent{at: at, seq: r.seq, id: id}
	r.seq++
	i := sort.Search(len(r.pending), func(i int) bool {
		p := r.pending[i]
		return p.at > at || (p.at == at && p.seq > ev.seq)
	})
	r.pending = append(r.pending, refEvent{})
	copy(r.pending[i+1:], r.pending[i:])
	r.pending[i] = ev
}

func (r *refQueue) cancel(id int) {
	for i, p := range r.pending {
		if p.id == id {
			r.pending = append(r.pending[:i], r.pending[i+1:]...)
			return
		}
	}
}

func (r *refQueue) pop() refEvent {
	ev := r.pending[0]
	r.pending = r.pending[1:]
	r.now = ev.at
	r.fired++
	return ev
}

// queueHarness drives a Simulator and a refQueue with one random program
// and fails on the first divergence. Every event callback checks that the
// simulator fired exactly the event the reference would pop next, then
// runs a few random nested operations of its own.
type queueHarness struct {
	t      *testing.T
	s      *Simulator
	ref    refQueue
	rng    *rand.Rand
	nextID int
	// live maps the id of each pending event to its handle. Handles leave
	// the map the moment their event fires or is cancelled, per the
	// recycling contract.
	live map[int]*Event
	// order is the sequence of fired ids.
	order []int
}

func newQueueHarness(t *testing.T, seed int64) *queueHarness {
	return &queueHarness{t: t, s: New(), rng: rand.New(rand.NewSource(seed)), live: map[int]*Event{}}
}

func (h *queueHarness) schedule(at Time) {
	id := h.nextID
	h.nextID++
	var e *Event
	if h.rng.Intn(2) == 0 {
		e = h.s.At(at, func() { h.fire(id) })
	} else {
		e = h.s.After(at.Sub(h.s.Now()), func() { h.fire(id) })
	}
	if e.At() != at || !e.Scheduled() {
		h.t.Fatalf("event %d: At()=%v Scheduled()=%v, want %v true", id, e.At(), e.Scheduled(), at)
	}
	h.ref.push(at, id)
	h.live[id] = e
}

// randomLive returns a pending event's id, or -1 when none is pending.
func (h *queueHarness) randomLive() int {
	if len(h.ref.pending) == 0 {
		return -1
	}
	return h.ref.pending[h.rng.Intn(len(h.ref.pending))].id
}

func (h *queueHarness) cancel(id int) {
	e := h.live[id]
	h.s.Cancel(e)
	if e.Scheduled() {
		h.t.Fatalf("event %d still scheduled after Cancel", id)
	}
	// A second cancel before any new scheduling call is a no-op.
	h.s.Cancel(e)
	delete(h.live, id)
	h.ref.cancel(id)
	h.check()
}

func (h *queueHarness) fire(id int) {
	if len(h.ref.pending) == 0 {
		h.t.Fatalf("simulator fired %d, reference queue is empty", id)
	}
	want := h.ref.pop()
	if want.id != id {
		h.t.Fatalf("fired event %d at %v, reference fires %d at %v", id, h.s.Now(), want.id, want.at)
	}
	self := h.live[id]
	delete(h.live, id)
	h.order = append(h.order, id)
	if h.s.Now() != want.at {
		h.t.Fatalf("Now() = %v inside event %d, want %v", h.s.Now(), id, want.at)
	}
	if self.Scheduled() {
		h.t.Fatalf("event %d still scheduled while firing", id)
	}
	// Cancelling the firing event from its own callback is a no-op.
	h.s.Cancel(self)
	h.check()
	for n := h.rng.Intn(3); n > 0; n-- {
		switch h.rng.Intn(4) {
		case 0:
			h.schedule(h.s.Now()) // same instant, fires after everything already queued there
		case 1:
			h.schedule(h.s.Now() + Time(h.rng.Intn(50)))
		case 2:
			if v := h.randomLive(); v >= 0 {
				h.cancel(v)
			}
		}
	}
}

// check compares every observable of the simulator with the reference and
// verifies the heap's shape and back-pointers.
func (h *queueHarness) check() {
	s := h.s
	if s.Pending() != len(h.ref.pending) {
		h.t.Fatalf("Pending() = %d, want %d", s.Pending(), len(h.ref.pending))
	}
	if s.EventsFired() != h.ref.fired {
		h.t.Fatalf("EventsFired() = %d, want %d", s.EventsFired(), h.ref.fired)
	}
	if s.Now() != h.ref.now {
		h.t.Fatalf("Now() = %v, want %v", s.Now(), h.ref.now)
	}
	if len(s.heap) > 0 && s.heap[0].at != h.ref.pending[0].at {
		h.t.Fatalf("heap head at %v, reference head %v", s.heap[0].at, h.ref.pending[0].at)
	}
	for i := range s.heap {
		if s.heap[i].ev.index != i {
			h.t.Fatalf("heap[%d] back-pointer is %d", i, s.heap[i].ev.index)
		}
		if i > 0 && s.heap[i].before(&s.heap[(i-1)/4]) {
			h.t.Fatalf("heap[%d] sorts before its parent", i)
		}
	}
}

// TestQueueMatchesReference runs seeded random programs of At/After,
// Cancel, Step, Run and RunUntil against the sorted reference queue.
func TestQueueMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		h := newQueueHarness(t, seed)
		var lastFired *Event
		for op := 0; op < 400; op++ {
			now := h.s.Now()
			switch h.rng.Intn(8) {
			case 0, 1, 2:
				lastFired = nil // the handle may be recycled from here on
				h.schedule(now + Time(h.rng.Intn(100)))
			case 3:
				lastFired = nil
				h.schedule(now) // same instant as the clock
			case 4:
				if v := h.randomLive(); v >= 0 {
					h.cancel(v)
				}
			case 5:
				var next *Event
				if len(h.ref.pending) > 0 {
					next = h.live[h.ref.pending[0].id]
				}
				fired := h.s.Step()
				if fired != (next != nil) {
					t.Fatalf("seed %d: Step() = %v with %d pending", seed, fired, len(h.ref.pending))
				}
				lastFired = next
			case 6:
				// A handle of an event that already fired: Cancel is a
				// no-op while no scheduling call has recycled it.
				if lastFired != nil {
					h.s.Cancel(lastFired)
				}
			case 7:
				lastFired = nil
				limit := now + Time(h.rng.Intn(60))
				h.s.RunUntil(limit)
				if limit > h.ref.now {
					h.ref.now = limit
				}
				if len(h.ref.pending) > 0 && h.ref.pending[0].at <= limit {
					t.Fatalf("seed %d: RunUntil(%v) left %v pending", seed, limit, h.ref.pending[0].at)
				}
			}
			h.check()
		}
		h.s.Run()
		h.check()
		if len(h.order) != int(h.ref.fired) || h.s.Pending() != 0 {
			t.Fatalf("seed %d: fired %d, reference %d, %d left pending", seed, len(h.order), h.ref.fired, h.s.Pending())
		}
	}
}

// TestQueueSteadyStateAllocs pins the queue's steady state to zero
// allocations: a scheduling call reuses a recycled Event and the heap's
// spare capacity.
func TestQueueSteadyStateAllocs(t *testing.T) {
	s := New()
	fn := func() {}
	for i := 0; i < 1000; i++ {
		s.At(Time(1e9+i), fn)
	}
	if a := testing.AllocsPerRun(1000, func() {
		s.After(1, fn)
		s.Step()
	}); a != 0 {
		t.Errorf("At+Step allocates %v per op, want 0", a)
	}
	if a := testing.AllocsPerRun(1000, func() {
		s.Cancel(s.After(5, fn))
	}); a != 0 {
		t.Errorf("At+Cancel allocates %v per op, want 0", a)
	}
}
