package metrics

import (
	"strings"
	"testing"
	"time"

	"spritefs/internal/stats"
)

func testRegistry() (*Registry, *int64, *int64) {
	r := New()
	a, b := new(int64), new(int64)
	d := Desc{Name: "spritefs_test_ops_total", Unit: "ops", Help: "test ops", Kind: Counter}
	r.Int(d, Labels{L("client", "0")}, func() int64 { return *a })
	r.Int(d, Labels{L("client", "1")}, func() int64 { return *b })
	busy := 1500 * time.Millisecond
	r.SecondsVar(Desc{Name: "spritefs_test_busy_seconds", Help: "busy", Kind: Gauge}, nil, &busy)
	return r, a, b
}

func TestSumAndSelectors(t *testing.T) {
	r, a, b := testRegistry()
	*a, *b = 3, 4
	if got := r.SumInt("spritefs_test_ops_total"); got != 7 {
		t.Fatalf("SumInt = %d, want 7", got)
	}
	if got := r.SumInt("spritefs_test_ops_total", L("client", "1")); got != 4 {
		t.Fatalf("SumInt{client=1} = %d, want 4", got)
	}
	if got := r.SumInt("spritefs_test_ops_total", L("client", "9")); got != 0 {
		t.Fatalf("SumInt{client=9} = %d, want 0", got)
	}
	if got := r.SumInt("no_such_family"); got != 0 {
		t.Fatalf("SumInt(missing) = %d, want 0", got)
	}
}

func TestSnapshotDeterminismAndLiveness(t *testing.T) {
	r, a, b := testRegistry()
	*a, *b = 1, 2
	var s1, s2 strings.Builder
	if err := r.WritePrometheus(&s1); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&s2); err != nil {
		t.Fatal(err)
	}
	if s1.String() != s2.String() {
		t.Fatalf("two snapshots of unchanged registry differ:\n%s\n---\n%s", s1.String(), s2.String())
	}
	if !strings.Contains(s1.String(), `spritefs_test_ops_total{client="0"} 1`) {
		t.Fatalf("missing instance line in:\n%s", s1.String())
	}
	*a = 10 // closures read live values: a later dump must see the change
	var s3 strings.Builder
	if err := r.WritePrometheus(&s3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s3.String(), `spritefs_test_ops_total{client="0"} 10`) {
		t.Fatalf("snapshot did not pick up counter change:\n%s", s3.String())
	}
}

func TestRegistrationOrderDoesNotChangeDump(t *testing.T) {
	build := func(reverse bool) string {
		r := New()
		d := Desc{Name: "x_total", Unit: "ops", Help: "h", Kind: Counter}
		ids := []string{"0", "1", "2"}
		if reverse {
			ids = []string{"2", "1", "0"}
		}
		for _, id := range ids {
			id := id
			r.Int(d, Labels{L("i", id)}, func() int64 { return int64(len(id)) })
		}
		var b strings.Builder
		if err := r.WriteTSV(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if build(false) != build(true) {
		t.Fatal("dump depends on registration order")
	}
}

func TestConflictingRedescriptionPanics(t *testing.T) {
	r := New()
	d := Desc{Name: "y_total", Unit: "ops", Help: "h", Kind: Counter}
	r.Int(d, Labels{L("i", "0")}, func() int64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting re-registration did not panic")
		}
	}()
	d.Help = "different"
	r.Int(d, Labels{L("i", "1")}, func() int64 { return 0 })
}

func TestDuplicateInstancePanics(t *testing.T) {
	r := New()
	d := Desc{Name: "z_total", Unit: "ops", Help: "h", Kind: Counter}
	r.Int(d, Labels{L("i", "0")}, func() int64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate instance did not panic")
		}
	}()
	r.Int(d, Labels{L("i", "0")}, func() int64 { return 0 })
}

func TestSummaryExpansion(t *testing.T) {
	r := New()
	var w stats.Welford
	w.Add(float64(2 * time.Second))
	w.Add(float64(4 * time.Second))
	r.HistSeconds(Desc{Name: "age_seconds", Help: "age"}, nil, func() stats.Welford { return w })
	pts := r.Snapshot()
	byName := map[string]Point{}
	for _, p := range pts {
		byName[p.Name] = p
	}
	if p := byName["age_seconds_count"]; !p.IsInt || p.Int != 2 {
		t.Fatalf("count = %+v", p)
	}
	if p := byName["age_seconds_mean"]; p.Float != 3 {
		t.Fatalf("mean = %v, want 3 (seconds)", p.Float)
	}
	if p := byName["age_seconds_max"]; p.Float != 4 {
		t.Fatalf("max = %v, want 4", p.Float)
	}
}

func TestMaxSeconds(t *testing.T) {
	r := New()
	d := Desc{Name: "worst_seconds", Help: "worst", Kind: Gauge}
	a, b := 2*time.Second, 5*time.Second
	r.SecondsVar(d, Labels{L("i", "0")}, &a)
	r.SecondsVar(d, Labels{L("i", "1")}, &b)
	if got := r.MaxSeconds("worst_seconds"); got != 5*time.Second {
		t.Fatalf("MaxSeconds = %v", got)
	}
	if got := r.SumSeconds("worst_seconds"); got != 7*time.Second {
		t.Fatalf("SumSeconds = %v", got)
	}
}

func TestScopedRegistry(t *testing.T) {
	r := New()
	var a, b int64 = 3, 5
	d := Desc{Name: "x_total", Unit: "ops", Help: "x.", Kind: Counter}
	r.Scoped(L("shard", "0")).Int(d, Labels{L("client", "1")}, func() int64 { return a })
	r.Scoped(L("shard", "1")).Int(d, Labels{L("client", "1")}, func() int64 { return b })
	if got := r.SumInt("x_total"); got != 8 {
		t.Fatalf("SumInt over scopes = %d, want 8", got)
	}
	if got := r.SumInt("x_total", L("shard", "1")); got != 5 {
		t.Fatalf("SumInt shard=1 = %d, want 5", got)
	}
	fams := r.Families()
	if len(fams) != 1 || fams[0].Instances() != 2 {
		t.Fatalf("want one family with two instances, got %d families", len(fams))
	}
	if keys := fams[0].LabelKeys(); len(keys) != 1 || keys[0] != "shard,client" {
		t.Fatalf("label keys = %v, want [shard,client]", keys)
	}
	// Same name+labels in the same scope is still a duplicate.
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate scoped instance did not panic")
		}
	}()
	r.Scoped(L("shard", "0")).Int(d, Labels{L("client", "1")}, func() int64 { return 0 })
}

// TestScopedViewReadsOwnScope pins the read side of a scoped view: its
// projections, snapshot and sampler see only the instances carrying its
// scope labels, while the root sees every scope.
func TestScopedViewReadsOwnScope(t *testing.T) {
	r := New()
	d := Desc{Name: "x_total", Unit: "ops", Help: "x.", Kind: Counter}
	var a, b, c, g int64 = 3, 5, 7, 11
	s0, s1 := r.Scoped(L("shard", "0")), r.Scoped(L("shard", "1"))
	s0.IntVar(d, Labels{L("client", "1")}, &a)
	s0.IntVar(d, Labels{L("client", "2")}, &b)
	s1.IntVar(d, Labels{L("client", "1")}, &c)
	r.IntVar(Desc{Name: "y", Unit: "x", Help: "y.", Kind: Gauge}, nil, &g)

	for _, tc := range []struct {
		name     string
		reg      *Registry
		sum, len int64
		points   int
	}{
		{`shard="0"`, s0, 8, 2, 2},
		{`shard="1"`, s1, 7, 1, 1},
		{"root", r, 15, 4, 4},
	} {
		if got := tc.reg.SumInt("x_total"); got != tc.sum {
			t.Errorf("%s: SumInt = %d, want %d", tc.name, got, tc.sum)
		}
		if got := tc.reg.Len(); int64(got) != tc.len {
			t.Errorf("%s: Len = %d, want %d", tc.name, got, tc.len)
		}
		pts := tc.reg.Snapshot()
		if len(pts) != tc.points {
			t.Errorf("%s: Snapshot has %d points, want %d: %+v", tc.name, len(pts), tc.points, pts)
		}
		smp := NewSampler(tc.reg, 0, nil)
		smp.Sample(time.Second)
		if got := len(smp.All()); got != tc.points {
			t.Errorf("%s: sampler has %d series, want %d", tc.name, got, tc.points)
		}
		if tc.reg != r {
			for _, p := range pts {
				if !strings.Contains(p.Labels, tc.name) {
					t.Errorf("%s: Snapshot point %s%s is outside the scope", tc.name, p.Name, p.Labels)
				}
			}
		}
	}
	if got := s0.SumInt("x_total", L("client", "1")); got != 3 {
		t.Errorf("shard=0 SumInt{client=1} = %d, want 3", got)
	}
	if got := s0.Scoped(L("client", "2")).SumInt("x_total"); got != 5 {
		t.Errorf("nested scope SumInt = %d, want 5", got)
	}
}
