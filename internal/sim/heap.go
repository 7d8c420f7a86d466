package sim

// Event storage and ordering: a free-list arena of event values plus an
// inlined, monomorphic 4-ary min-heap. One-shot events (At/After) and
// recurring timers (Every) share both structures.
//
// Each heap entry carries its (at, seq) ordering key inline next to the
// arena slot it refers to, so sifts compare and move contiguous heap
// memory without touching the arena. A 4-ary layout halves tree depth
// versus binary: sift-down does more comparisons per level but far fewer
// cache-missing level hops, which is the right trade for the simulator's
// deep (10k+ event) queues. Steady-state scheduling performs zero
// allocations once the arena and heap slices have grown to the high-water
// mark.
//
// The queue tracks every slot's heap position, so Ticker.Stop removes an
// armed timer from the middle of the heap in O(log n) and no tombstone is
// ever left behind.
//
// While an event's callback runs, the root of the heap is a hole (the
// fired entry was taken but not yet replaced). The first push during the
// callback fills the hole and sifts down; a ticker re-armed after its
// callback does the same. Either way a firing that schedules its
// successor costs one sift instead of a pop plus a push. settle closes a
// hole that nothing filled.

// event is one scheduled callback. Its ordering key lives in the heap.
type event struct {
	fn     func()
	tk     *Ticker // owning ticker of a recurring timer, nil for one-shots
	period Time    // re-arm interval of a recurring timer
}

// entry is one heap element. Entries are ordered by (at, seq): virtual
// time first, then FIFO among events scheduled for the same time.
type entry struct {
	at  Time
	seq uint64
	idx int32 // arena slot
}

func (a *entry) less(b *entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// eventQueue is the scheduler state.
type eventQueue struct {
	pool []event
	pos  []int32 // per slot: heap position while queued, next free slot while free
	free int32   // head of the free-slot list, -1 when empty
	heap []entry // 4-ary min-heap; heap[0] is a hole while hole is set
	hole bool
}

func newEventQueue() eventQueue {
	return eventQueue{free: -1}
}

// alloc takes a slot from the free list (or grows the arena) and fills it.
func (q *eventQueue) alloc(fn func(), tk *Ticker, period Time) int32 {
	i := q.free
	if i >= 0 {
		q.free = q.pos[i]
	} else {
		q.pool = append(q.pool, event{})
		q.pos = append(q.pos, 0)
		i = int32(len(q.pool) - 1)
	}
	q.pool[i] = event{fn: fn, tk: tk, period: period}
	return i
}

// release returns a slot to the free list. The callback and ticker
// references are cleared so the arena does not pin dead closures.
func (q *eventQueue) release(i int32) {
	q.pool[i] = event{}
	q.pos[i] = q.free
	q.free = i
}

// freeLen counts free-listed slots (pool-occupancy introspection; the
// spritefs_sim_event_pool_free gauge reads it).
func (q *eventQueue) freeLen() int {
	n := 0
	for i := q.free; i >= 0; i = q.pos[i] {
		n++
	}
	return n
}

// len counts queued entries, excluding a hole.
func (q *eventQueue) len() int {
	if q.hole {
		return len(q.heap) - 1
	}
	return len(q.heap)
}

// take returns the minimum entry and leaves a hole in its place. The
// queue must be settled and non-empty.
func (q *eventQueue) take() entry {
	q.hole = true
	return q.heap[0]
}

// push queues e, filling the hole if there is one.
func (q *eventQueue) push(e entry) {
	if q.hole {
		q.hole = false
		q.heap[0] = e
		q.siftDown(0)
		return
	}
	q.heap = append(q.heap, e)
	q.siftUp(len(q.heap) - 1)
}

// settle closes an unfilled hole by moving the last entry into it.
func (q *eventQueue) settle() {
	if !q.hole {
		return
	}
	q.hole = false
	q.cut(0)
}

// remove takes slot i's entry out of the heap.
func (q *eventQueue) remove(i int32) {
	q.settle()
	q.cut(int(q.pos[i]))
}

// cut deletes the entry at heap position p, refilling it from the end.
func (q *eventQueue) cut(p int) {
	last := len(q.heap) - 1
	e := q.heap[last]
	q.heap = q.heap[:last]
	if p == last {
		return
	}
	q.heap[p] = e
	if p > 0 && e.less(&q.heap[(p-1)>>2]) {
		q.siftUp(p)
	} else {
		q.siftDown(p)
	}
}

// siftUp moves the entry at position c toward the root until its parent
// is smaller, recording every moved entry's new position.
func (q *eventQueue) siftUp(c int) {
	h := q.heap
	e := h[c]
	for c > 0 {
		p := (c - 1) >> 2
		if !e.less(&h[p]) {
			break
		}
		h[c] = h[p]
		q.pos[h[c].idx] = int32(c)
		c = p
	}
	h[c] = e
	q.pos[e.idx] = int32(c)
}

// siftDown moves the entry at position p toward the leaves until no child
// is smaller, recording every moved entry's new position.
func (q *eventQueue) siftDown(p int) {
	h := q.heap
	n := len(h)
	e := h[p]
	for {
		first := p<<2 + 1
		if first >= n {
			break
		}
		// Find the smallest of up to four children.
		m := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if h[c].less(&h[m]) {
				m = c
			}
		}
		if !h[m].less(&e) {
			break
		}
		h[p] = h[m]
		q.pos[h[p].idx] = int32(p)
		p = m
	}
	h[p] = e
	q.pos[e.idx] = int32(p)
}
