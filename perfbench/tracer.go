package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// span is one traced call: a named interval with the span that caused
// it, plus the runtime's allocation and GC-CPU deltas over the interval.
// The runtime counters are process-wide, so spans that overlap in time
// (the parallel sweep's configurations) each see the other's allocations.
type span struct {
	id, parent, tid int
	name            string
	start, end      time.Duration // since the tracer's origin
	rt0             rtSample
	allocObjs       uint64
	allocBytes      uint64
	gcCPU           float64
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps spans in memory for one traced run; they are written out
// as Chrome trace-event JSON when the run ends.
type tracer struct {
	run   string
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

// begin opens a span under parent (0 = top level) on display lane tid and
// returns its id.
func (t *tracer) begin(name string, parent, tid int) int {
	rt := readRuntime()
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{id: id, parent: parent, tid: tid, name: name, start: now, rt0: rt})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	rt := readRuntime()
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.end = now
	s.allocObjs = rt.allocObjs - s.rt0.allocObjs
	s.allocBytes = rt.allocBytes - s.rt0.allocBytes
	s.gcCPU = rt.gcCPU - s.rt0.gcCPU
}

// do runs fn inside a span and returns the span's duration.
func (t *tracer) do(name string, parent, tid int, fn func()) time.Duration {
	id := t.begin(name, parent, tid)
	fn()
	t.end(id)
	return t.get(id).dur()
}

// get returns a copy of span id.
func (t *tracer) get(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1]
}

// coverage is the share of [0, wall] covered by the union of top-level
// spans.
func (t *tracer) coverage(wall time.Duration) float64 {
	t.mu.Lock()
	var top []span
	for _, s := range t.spans {
		if s.parent == 0 {
			top = append(top, s)
		}
	}
	t.mu.Unlock()
	sort.Slice(top, func(i, j int) bool { return top[i].start < top[j].start })
	var covered, reach time.Duration
	for _, s := range top {
		if s.end <= reach {
			continue
		}
		from := s.start
		if from < reach {
			from = reach
		}
		covered += s.end - from
		reach = s.end
	}
	if wall <= 0 {
		return 0
	}
	return covered.Seconds() / wall.Seconds()
}

// writeChrome writes the spans as Chrome trace-event JSON ("X" complete
// events, microsecond timestamps), readable by chrome://tracing and
// Perfetto.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, event{
			Name: s.name, Cat: "perfbench", Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.dur()) / 1e3,
			Pid: 1, Tid: s.tid,
			Args: map[string]any{
				"id": s.id, "parent": s.parent, "run": t.run,
				"alloc_objects": s.allocObjs, "alloc_bytes": s.allocBytes, "gc_cpu_s": s.gcCPU,
			},
		})
	}
	t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// rtSample is a reading of the runtime counters the tracer attributes.
type rtSample struct {
	allocObjs, allocBytes uint64
	gcCPU, userCPU        float64
	heapBytes             uint64
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/user:cpu-seconds",
	"/memory/classes/heap/objects:bytes",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSample{allocObjs: u(0), allocBytes: u(1), gcCPU: f(2), userCPU: f(3), heapBytes: u(4)}
}

// heapPeak samples live heap bytes every 10 ms until stop, which returns
// the highest reading.
type heapPeak struct {
	stopc chan struct{}
	done  chan uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stopc: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		tk := time.NewTicker(10 * time.Millisecond)
		defer tk.Stop()
		peak := readRuntime().heapBytes
		for {
			select {
			case <-tk.C:
				if b := readRuntime().heapBytes; b > peak {
					peak = b
				}
			case <-h.stopc:
				if b := readRuntime().heapBytes; b > peak {
					peak = b
				}
				h.done <- peak
				return
			}
		}
	}()
	return h
}

func (h *heapPeak) stop() uint64 {
	close(h.stopc)
	return <-h.done
}
