package sim

import (
	"testing"
	"time"
)

// The scheduler's hot paths are required to be allocation-free in steady
// state: once the event arena and heap slice have grown to their
// high-water marks, At/After/Step and ticker firings must not touch the
// garbage collector. `make allocscheck` runs these gates.

func TestAfterZeroAllocSteadyState(t *testing.T) {
	s := New(1)
	fn := func() {}
	allocs := testing.AllocsPerRun(1000, func() {
		s.After(time.Microsecond, fn)
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("After+Step allocated %.1f/op in steady state, want 0", allocs)
	}
}

func TestEveryTickZeroAllocSteadyState(t *testing.T) {
	s := New(1)
	ticks := 0
	tk := s.Every(0, time.Millisecond, func() { ticks++ })
	defer tk.Stop()
	allocs := testing.AllocsPerRun(1000, func() {
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("ticker firing allocated %.1f/op in steady state, want 0", allocs)
	}
	if ticks == 0 {
		t.Fatal("ticker never fired")
	}
}

// TestTickerStopRecyclesEvent pins the Ticker.Stop contract: stopping a
// ticker removes its pending heap entry immediately — no tombstone is
// left in the queue — and the shared arena slot is recycled, so repeated
// start/stop cycles neither grow Pending nor leak pool slots.
func TestTickerStopRecyclesEvent(t *testing.T) {
	s := New(1)
	base := s.Pending()
	for i := 0; i < 1000; i++ {
		tk := s.Every(s.Now()+time.Second, time.Second, func() {})
		if got := s.Pending(); got != base+1 {
			t.Fatalf("cycle %d: pending = %d after start, want %d", i, got, base+1)
		}
		tk.Stop()
		if got := s.Pending(); got != base {
			t.Fatalf("cycle %d: pending = %d after stop, want %d (tombstone left behind?)", i, got, base)
		}
		tk.Stop() // double-stop must be a no-op
	}
	if got := len(s.q.pool); got != 1 {
		t.Fatalf("event arena grew to %d slots over 1000 start/stop cycles, want 1 (slot not recycled)", got)
	}
	if got := s.q.freeLen(); got != 1 {
		t.Fatalf("event free list has %d slots, want 1", got)
	}
	if got := s.Pending(); got != base {
		t.Fatalf("Pending = %d after all tickers stopped, want %d", got, base)
	}
}

// TestTickerStopFromOtherEvent stops an armed ticker from an unrelated
// one-shot event and checks the cancelled firing never happens.
func TestTickerStopFromOtherEvent(t *testing.T) {
	s := New(1)
	fired := 0
	tk := s.Every(10*time.Millisecond, 10*time.Millisecond, func() { fired++ })
	s.At(25*time.Millisecond, func() { tk.Stop() })
	s.RunUntil(time.Second)
	if fired != 2 {
		t.Fatalf("ticker fired %d times, want 2 (at 10ms and 20ms, stopped at 25ms)", fired)
	}
	if got := s.Pending(); got != 0 {
		t.Fatalf("pending = %d after stop, want 0", got)
	}
}

// TestTickerFarRearmOrder mixes tickers of very different periods with a
// one-shot event and checks the firing order stays exact; the "far"
// ticker re-arms more than eleven years ahead, so its entry sinks deep in
// the heap while the hourly ticker keeps cycling past it.
func TestTickerFarRearmOrder(t *testing.T) {
	s := New(1)
	var order []string
	s.Every(3*time.Hour, 100000*time.Hour, func() { order = append(order, "far") })
	s.Every(time.Hour, time.Hour, func() { order = append(order, "hourly") })
	s.At(30*time.Minute, func() { order = append(order, "oneshot") })
	s.RunUntil(3 * time.Hour)
	want := []string{"oneshot", "hourly", "hourly", "far", "hourly"}
	if len(order) != len(want) {
		t.Fatalf("got %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("firing %d: got %q, want %q (full order %v)", i, order[i], want[i], order)
		}
	}
}

// TestTickerFarFirstFire arms a ticker whose first firing is eleven years
// ahead and checks it still fires at its exact time and re-arms exactly
// one period later.
func TestTickerFarFirstFire(t *testing.T) {
	s := New(1)
	far := 11 * 365 * 24 * time.Hour
	fired := 0
	tk := s.Every(far, 24*time.Hour, func() { fired++ })
	s.RunUntil(far)
	if fired != 1 {
		t.Fatalf("far ticker fired %d times by %v, want 1", fired, far)
	}
	if at, ok := s.NextAt(); !ok || at != far+24*time.Hour {
		t.Fatalf("re-arm at %v (ok=%v), want %v", at, ok, far+24*time.Hour)
	}
	tk.Stop()
}
