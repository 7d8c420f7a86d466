package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// The differential scheduler test drives Sim and a deliberately naive
// reference scheduler with the same seeded mix of At, After, Every and
// Stop — issued both from outside and from inside event callbacks — and
// checks after every Step that both fired the same event at the same time
// and agree on Now, NextAt and Pending. The reference keeps one slice
// sorted by (at, seq) and follows the same seq-consumption rules: At and
// Every take the next seq when called, and a ticker takes a fresh seq
// each time it re-arms, after its callback has run.

// refSched is the reference scheduler.
type refSched struct {
	now   Time
	seq   uint64
	items []*refItem // sorted by (at, seq)
}

type refItem struct {
	at  Time
	seq uint64
	fn  func()
	tk  *refTicker
}

type refTicker struct {
	r       *refSched
	period  Time
	armed   *refItem // nil while firing or after Stop
	stopped bool
}

func (r *refSched) insert(it *refItem) {
	i := sort.Search(len(r.items), func(i int) bool {
		o := r.items[i]
		return o.at > it.at || (o.at == it.at && o.seq > it.seq)
	})
	r.items = append(r.items, nil)
	copy(r.items[i+1:], r.items[i:])
	r.items[i] = it
}

func (r *refSched) delete(it *refItem) {
	for i, o := range r.items {
		if o == it {
			r.items = append(r.items[:i], r.items[i+1:]...)
			return
		}
	}
	panic("refSched: deleting an item that is not queued")
}

func (r *refSched) Now() Time { return r.now }

func (r *refSched) At(t Time, fn func()) {
	if t < r.now {
		panic("refSched: scheduling in the past")
	}
	r.seq++
	r.insert(&refItem{at: t, seq: r.seq, fn: fn})
}

func (r *refSched) After(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	r.At(r.now+d, fn)
}

func (r *refSched) Every(start, period Time, fn func()) func() {
	r.seq++
	tk := &refTicker{r: r, period: period}
	tk.armed = &refItem{at: start, seq: r.seq, fn: fn, tk: tk}
	r.insert(tk.armed)
	return func() {
		if tk.stopped {
			return
		}
		tk.stopped = true
		if tk.armed != nil {
			r.delete(tk.armed)
			tk.armed = nil
		}
	}
}

func (r *refSched) Step() bool {
	if len(r.items) == 0 {
		return false
	}
	it := r.items[0]
	r.items = r.items[1:]
	r.now = it.at
	if it.tk == nil {
		it.fn()
		return true
	}
	it.tk.armed = nil
	it.fn()
	if !it.tk.stopped {
		r.seq++
		it.at += it.tk.period
		it.seq = r.seq
		r.insert(it)
		it.tk.armed = it
	}
	return true
}

func (r *refSched) NextAt() (Time, bool) {
	if len(r.items) == 0 {
		return 0, false
	}
	return r.items[0].at, true
}

func (r *refSched) Pending() int { return len(r.items) }

// scheduler is the surface both implementations expose to the script.
type scheduler interface {
	Now() Time
	At(t Time, fn func())
	After(d Time, fn func())
	Every(start, period Time, fn func()) func()
	Step() bool
	NextAt() (Time, bool)
	Pending() int
}

// simSched adapts *Sim to scheduler, keeping every ticker it creates for
// the white-box checks.
type simSched struct {
	*Sim
	tks []*Ticker // by ticker id
}

func (s *simSched) Every(start, period Time, fn func()) func() {
	tk := s.Sim.Every(start, period, fn)
	s.tks = append(s.tks, tk)
	return tk.Stop
}

// diffCounts tallies the edge cases one script run reached.
type diffCounts struct {
	interiorStops, selfStops, oneShotStops, doubleStops, farTickers int
}

// world runs the random script against one scheduler. Two worlds built
// from the same seed make identical decisions for as long as their
// schedulers agree.
type world struct {
	s       scheduler
	ss      *simSched // non-nil for the Sim world: enables white-box checks
	rng     *rand.Rand
	fired   string
	stops   []func()
	stopped []bool
	n       diffCounts
}

const year = 365 * 24 * time.Hour

// delay draws a scheduling offset: often zero (same-time ties), mostly
// milliseconds to minutes, occasionally years.
func (w *world) delay() Time {
	switch k := w.rng.Intn(10); {
	case k < 2:
		return 0
	case k < 6:
		return Time(w.rng.Intn(50)) * time.Millisecond
	case k < 9:
		return Time(w.rng.Intn(600)) * time.Second
	default:
		return Time(1+w.rng.Intn(20)) * year
	}
}

func (w *world) oneShot(id int) func() {
	return func() {
		w.fired = fmt.Sprintf("o%d", id)
		w.observe()
		w.act(true)
	}
}

// observe appends what the scheduler reports from inside a callback to
// the firing label, so the comparison after Step covers it too.
func (w *world) observe() {
	w.fired += fmt.Sprintf(" pending=%d", w.s.Pending())
	if w.rng.Intn(4) == 0 {
		at, ok := w.s.NextAt()
		w.fired += fmt.Sprintf(" next=%v,%v", at, ok)
	}
}

func (w *world) tick(id int) func() {
	fires := 0
	return func() {
		fires++
		w.fired = fmt.Sprintf("t%d#%d", id, fires)
		w.observe()
		if w.rng.Intn(8) == 0 {
			w.stop(id) // a ticker stopping itself from its own callback
			w.n.selfStops++
			return
		}
		w.act(false)
	}
}

// stop cancels ticker id, which may already be stopped.
func (w *world) stop(id int) {
	if w.stopped[id] {
		w.n.doubleStops++
	}
	w.stopped[id] = true
	w.stops[id]()
}

// op performs one random scheduler operation.
func (w *world) op(inOneShot bool) {
	switch k := w.rng.Intn(10); {
	case k < 3:
		w.s.At(w.s.Now()+w.delay(), w.oneShot(w.rng.Int()))
	case k < 5:
		w.s.After(w.delay()-time.Millisecond, w.oneShot(w.rng.Int()))
	case k < 7:
		start := w.s.Now() + w.delay()
		period := Time(1+w.rng.Intn(100)) * time.Millisecond
		if w.rng.Intn(6) == 0 {
			period = Time(1+w.rng.Intn(3)) * year
		}
		if start-w.s.Now() >= year {
			w.n.farTickers++
		}
		id := len(w.stops)
		w.stopped = append(w.stopped, false)
		w.stops = append(w.stops, w.s.Every(start, period, w.tick(id)))
	default:
		if len(w.stops) == 0 {
			return
		}
		id := w.rng.Intn(len(w.stops))
		if w.ss != nil && !w.stopped[id] {
			w.countInterior(id)
		}
		if inOneShot && !w.stopped[id] {
			w.n.oneShotStops++
		}
		w.stop(id)
	}
}

// countInterior records whether the ticker about to be stopped sits
// strictly inside the heap (neither its root nor its last entry).
func (w *world) countInterior(id int) {
	q, tk := &w.ss.q, w.ss.tks[id]
	if q.hole || tk.idx < 0 {
		return
	}
	if p := int(q.pos[tk.idx]); p > 0 && p < len(q.heap)-1 {
		w.n.interiorStops++
	}
}

// act performs zero to two operations from inside a callback, keeping the
// population bounded.
func (w *world) act(inOneShot bool) {
	for n := w.rng.Intn(3); n > 0 && w.s.Pending() < 300; n-- {
		w.op(inOneShot)
	}
}

func TestSchedulerMatchesReference(t *testing.T) {
	var total diffCounts
	for seed := int64(1); seed <= 40; seed++ {
		ss := &simSched{Sim: New(seed)}
		a := &world{s: ss, ss: ss, rng: rand.New(rand.NewSource(seed))}
		b := &world{s: &refSched{}, rng: rand.New(rand.NewSource(seed))}
		for i := 0; i < 60; i++ {
			a.op(false)
			b.op(false)
		}
		for step := 0; step < 3000 && a.s.Now() < 60*year; step++ {
			if step%7 == 0 { // outside a callback: stop or schedule
				a.op(false)
				b.op(false)
			}
			a.fired, b.fired = "", ""
			okA, okB := a.s.Step(), b.s.Step()
			if okA != okB || a.fired != b.fired || a.s.Now() != b.s.Now() {
				t.Fatalf("seed %d step %d: sim fired %q at %v (ok=%v), reference fired %q at %v (ok=%v)",
					seed, step, a.fired, a.s.Now(), okA, b.fired, b.s.Now(), okB)
			}
			atA, nA := a.s.NextAt()
			atB, nB := b.s.NextAt()
			if atA != atB || nA != nB {
				t.Fatalf("seed %d step %d: NextAt = %v,%v, reference %v,%v", seed, step, atA, nA, atB, nB)
			}
			if pa, pb := a.s.Pending(), b.s.Pending(); pa != pb {
				t.Fatalf("seed %d step %d: Pending = %d, reference %d", seed, step, pa, pb)
			}
			checkHeap(t, ss.Sim)
			if !okA {
				break
			}
		}
		total.interiorStops += a.n.interiorStops
		total.selfStops += a.n.selfStops
		total.oneShotStops += a.n.oneShotStops
		total.doubleStops += a.n.doubleStops
		total.farTickers += a.n.farTickers
	}
	for name, n := range map[string]int{
		"interior stops":        total.interiorStops,
		"self stops":            total.selfStops,
		"stops from a one-shot": total.oneShotStops,
		"double stops":          total.doubleStops,
		"tickers years ahead":   total.farTickers,
	} {
		if n == 0 {
			t.Errorf("script never reached %s", name)
		}
	}
	t.Logf("edge cases reached: %+v", total)
}

// checkHeap verifies the heap order and the per-slot position index.
func checkHeap(t *testing.T, s *Sim) {
	t.Helper()
	q := &s.q
	if q.hole {
		t.Fatal("heap left with a hole between steps")
	}
	for c := 1; c < len(q.heap); c++ {
		if q.heap[c].less(&q.heap[(c-1)>>2]) {
			t.Fatalf("heap order violated at position %d", c)
		}
	}
	for p, e := range q.heap {
		if int(q.pos[e.idx]) != p {
			t.Fatalf("slot %d at heap position %d records position %d", e.idx, p, q.pos[e.idx])
		}
	}
}
