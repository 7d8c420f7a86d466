// Package sim provides the deterministic discrete-event simulation engine
// underlying the whole reproduction. All the cluster machinery (clients,
// servers, caches, daemons, the workload generators) runs on one virtual
// clock driven by an event scheduler, so a run with a fixed seed is exactly
// reproducible — the property that lets the experiment harness regenerate
// the paper's tables bit-for-bit across machines.
//
// The scheduler is allocation-free in steady state: one-shot events and
// the recurring timers created by Every live in one free-list arena
// ordered by an inlined 4-ary min-heap (heap.go). Events are keyed by
// (time, seq), where seq is a single counter that a ticker consumes anew
// each time it re-arms, so the firing order — and therefore every report
// byte — is exactly that of a plain priority queue of closures.
package sim

import (
	"fmt"
	"time"
)

// Time is virtual time measured from the start of the simulation.
type Time = time.Duration

// Sim is a discrete-event simulator. It is not safe for concurrent use;
// each simulated cluster owns one Sim and runs single-threaded (parallel
// experiments run independent Sims).
type Sim struct {
	now Time
	seq uint64
	q   eventQueue
	rng *Rand
}

// New returns a simulator whose random source is seeded with seed.
func New(seed int64) *Sim {
	return &Sim{q: newEventQueue(), rng: NewRand(seed)}
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Rand returns the simulator's deterministic random source.
func (s *Sim) Rand() *Rand { return s.rng }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// is a programming error and panics.
func (s *Sim) At(t Time, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, s.now))
	}
	s.seq++
	s.q.push(entry{at: t, seq: s.seq, idx: s.q.alloc(fn, nil, 0)})
}

// After schedules fn to run d after the current time. Negative d is
// clamped to zero.
func (s *Sim) After(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	s.At(s.now+d, fn)
}

// Ticker is a cancellable periodic event created by Every.
type Ticker struct {
	s       *Sim
	idx     int32 // armed arena slot, -1 while firing or after Stop
	stopped bool
}

// Stop cancels future firings of the ticker. The pending entry is removed
// from the queue and its slot recycled immediately — no tombstone stays
// behind, so stopped tickers leave Pending unchanged.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	if t.idx >= 0 {
		t.s.q.remove(t.idx)
		t.s.q.release(t.idx)
		t.idx = -1
	}
}

// Every schedules fn to run at start and then every period thereafter,
// until the returned Ticker is stopped or the simulation ends. It models
// the paper's daemons (the 5-second cache cleaner, the counter sampler).
// period must be positive.
func (s *Sim) Every(start, period Time, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: non-positive ticker period")
	}
	if start < s.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", start, s.now))
	}
	s.seq++
	tk := &Ticker{s: s}
	tk.idx = s.q.alloc(fn, tk, period)
	s.q.push(entry{at: start, seq: s.seq, idx: tk.idx})
	return tk
}

// Step runs the single earliest pending event, advancing the clock to its
// time. It reports whether an event was run.
func (s *Sim) Step() bool {
	q := &s.q
	q.settle() // a hole survives only if a callback re-entered Step or panicked
	if len(q.heap) == 0 {
		return false
	}
	top := q.take()
	s.now = top.at
	e := &q.pool[top.idx]
	fn, tk := e.fn, e.tk
	if tk == nil {
		// One-shot event. Release the slot before running fn: the
		// callback may schedule new events, growing or reusing the arena.
		q.release(top.idx)
		fn()
	} else {
		// Recurring timer. Run the callback with the ticker disarmed (so
		// Stop from inside fn is a plain flag set), then re-arm one period
		// later — consuming the next seq *after* fn has run, exactly as a
		// self-rescheduling closure would.
		tk.idx = -1
		fn()
		if tk.stopped {
			q.release(top.idx)
		} else {
			s.seq++
			tk.idx = top.idx
			q.push(entry{at: top.at + q.pool[top.idx].period, seq: s.seq, idx: top.idx})
		}
	}
	q.settle()
	return true
}

// Run executes events until none remain.
func (s *Sim) Run() {
	for s.Step() {
	}
}

// RunUntil executes all events scheduled at or before t, then advances the
// clock to exactly t. Events scheduled after t remain pending.
func (s *Sim) RunUntil(t Time) {
	for {
		at, ok := s.NextAt()
		if !ok || at > t {
			break
		}
		s.Step()
	}
	if s.now < t {
		s.now = t
	}
}

// Pending returns the number of events still scheduled, counting each armed
// ticker as one event.
func (s *Sim) Pending() int { return s.q.len() }

// NextAt returns the time of the earliest pending event. ok is false when
// no events are scheduled. The conservative parallel executor uses this to
// pick each epoch's start without disturbing the scheduler.
func (s *Sim) NextAt() (t Time, ok bool) {
	s.q.settle() // no-op except when called from inside a callback
	if len(s.q.heap) == 0 {
		return 0, false
	}
	return s.q.heap[0].at, true
}

// EventPoolFree returns the number of recycled event arena slots waiting
// for reuse (the spritefs_sim_event_pool_free gauge).
func (s *Sim) EventPoolFree() int { return s.q.freeLen() }
