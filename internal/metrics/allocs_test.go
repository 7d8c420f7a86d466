package metrics

import (
	"strconv"
	"testing"

	"spritefs/internal/stats"
)

// The handle-based registration contract: once a counter is registered
// through a Var form, incrementing it is a plain field bump and reading
// it back through the registry's aggregation paths allocates nothing.
// `make allocscheck` runs this gate.

func TestLabeledCounterIncrementZeroAlloc(t *testing.T) {
	r := New()
	d := Desc{Name: "test_ops_total", Unit: "ops", Help: "h", Kind: Counter}
	var counters [8]int64
	var ages [8]stats.Welford
	for i := range counters {
		ls := Labels{L("client", string(rune('a'+i)))}
		r.IntVar(d, ls, &counters[i])
		r.HistSecondsVar(Desc{Name: "test_age", Help: "h"}, ls, &ages[i])
	}
	sel := L("client", "a")

	allocs := testing.AllocsPerRun(1000, func() {
		for i := range counters {
			counters[i]++ // the hot path the registry must never touch
			ages[i].Add(float64(i))
		}
		if r.SumInt("test_ops_total") == 0 {
			t.Fatal("sum is zero after increments")
		}
		if r.SumInt("test_ops_total", sel) == 0 {
			t.Fatal("selected sum is zero after increments")
		}
	})
	if allocs != 0 {
		t.Fatalf("increment+SumInt allocated %.1f/op, want 0", allocs)
	}
}

// TestRegistrationAllocs pins the compact store: an instance is one slot
// in its family's column plus, for a new label set, one trie node, so
// registering allocates only when a column or the trie grows.
func TestRegistrationAllocs(t *testing.T) {
	const n = 10000
	d := Desc{Name: "test_ops_total", Unit: "ops", Help: "h", Kind: Counter}
	vals := make([]int64, n)
	sets := make([]Labels, n)
	for i := range sets {
		sets[i] = Labels{L("client", strconv.Itoa(i))}
	}
	allocs := testing.AllocsPerRun(3, func() {
		r := New()
		for i := range vals {
			r.IntVar(d, sets[i], &vals[i])
		}
	})
	if per := allocs / n; per >= 0.05 {
		t.Fatalf("registration allocated %.3f objects per instance (%.0f for %d), want < 0.05", per, allocs, n)
	}
}
