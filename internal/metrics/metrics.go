package metrics

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"

	"spritefs/internal/stats"
)

// Kind classifies a metric family.
type Kind uint8

// Metric kinds.
const (
	// Counter is a monotonically non-decreasing count (ops, bytes).
	Counter Kind = iota
	// Gauge is an instantaneous value that may go up and down (cache
	// size) or a running maximum (worst dirty age).
	Gauge
	// Summary is a streaming distribution (count/sum/mean/stddev/min/max),
	// backed by a stats.Welford accumulator.
	Summary
)

var kindNames = [...]string{"counter", "gauge", "summary"}

// String returns the kind name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Label is one key="value" pair attached to a metric instance.
type Label struct{ Key, Value string }

// Labels is an ordered label set. Order is preserved in rendered output,
// so register instances of one family with the same key order.
type Labels []Label

// L is the Label constructor: L("client", "7").
func L(key, value string) Label { return Label{Key: key, Value: value} }

// String renders the set as {k="v",...}, or "" when empty. Label values
// are escaped per the Prometheus text exposition format: backslash, double
// quote and newline get a backslash escape, every other byte — including
// tabs and other control characters, which the grammar permits raw — is
// written as-is. For the plain alphanumeric values the simulators use this
// matches Go's %q byte for byte, which is what keeps the golden dumps
// stable; it diverges only on inputs %q would over-escape into sequences a
// strict exposition-format parser rejects.
func (ls Labels) String() string {
	if len(ls) == 0 {
		return ""
	}
	buf := []byte{'{'}
	for i, l := range ls {
		buf = appendLabel(buf, l, i > 0)
	}
	return string(append(buf, '}'))
}

func appendLabel(buf []byte, l Label, comma bool) []byte {
	if comma {
		buf = append(buf, ',')
	}
	buf = append(buf, l.Key...)
	buf = append(buf, '=', '"')
	buf = appendEscapedLabelValue(buf, l.Value)
	return append(buf, '"')
}

// appendEscapedLabelValue writes v with the three escapes the exposition
// format defines for label values: \\ for backslash, \" for double quote,
// \n for line feed.
func appendEscapedLabelValue(buf []byte, v string) []byte {
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			buf = append(buf, '\\', '\\')
		case '"':
			buf = append(buf, '\\', '"')
		case '\n':
			buf = append(buf, '\\', 'n')
		default:
			buf = append(buf, c)
		}
	}
	return buf
}

// Desc is a metric family's self-description: everything docs/METRICS.md
// needs to document it and everything an export needs to render it.
type Desc struct {
	// Name is the full metric name, e.g. "spritefs_cache_read_ops_total".
	// Counter names end in _total by convention.
	Name string
	// Unit is the value's unit: "ops", "bytes", "blocks", "seconds", ...
	Unit string
	// Help is the one-line human description emitted as # HELP and into
	// the generated documentation.
	Help string
	// Kind is the family's metric kind.
	Kind Kind
}

// Family is one named metric with all its registered instances, held as a
// dense column: instance i reads its value from src[i] and carries the
// label set refs[i]. There is no per-instance heap object, and label
// strings are rendered only at export.
type Family struct {
	Desc Desc
	// src holds each instance's value source: *int64, *time.Duration or
	// *stats.Welford for the Var registrations (the hot path stays a
	// plain field increment and the registry costs nothing per event), or
	// a func returning one of those types for values computed at snapshot
	// time. Pointers and funcs are pointer-shaped, so storing them in an
	// interface allocates nothing.
	src []any
	// refs holds each instance's label set as a node of the store's
	// label trie.
	refs []int32
	// seen indexes refs for the duplicate check once registrations stop
	// arriving in increasing label-set order. Until then the last ref is
	// the largest, and a larger one cannot be a duplicate: components
	// register their own fresh label sets, so the common case keeps no
	// per-instance index at all.
	seen map[int32]struct{}
	s    *store
}

// Instances returns the number of registered instances.
func (f *Family) Instances() int { return len(f.refs) }

// LabelKeys returns the label key sets in use by the family's instances,
// deduplicated and sorted (normally a single entry, e.g. "client,scope").
func (f *Family) LabelKeys() []string {
	seen := map[string]bool{}
	var out []string
	for _, ref := range f.refs {
		ls := f.s.labels(ref)
		keys := make([]string, len(ls))
		for i, l := range ls {
			keys[i] = l.Key
		}
		k := strings.Join(keys, ",")
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	slices.Sort(out)
	return out
}

// Registry is the central metric store. It is not safe for concurrent
// mutation; the simulators are single-threaded per run, and sweep workers
// each own a private registry (which is what keeps dumps worker-count
// invariant). A Registry is a view onto a shared family store plus a
// label scope; Scoped derives views that stamp extra labels onto every
// registration and read only their own scope, which is how the scale-out
// engine gives each shard's component stack a shard="N" label without the
// components knowing.
type Registry struct {
	s     *store
	scope Labels
	ref   int32 // the scope's label set
}

// labelNode is one node of the store's label trie: the label set made of
// the parent node's labels followed by one more label. Node 0 is the
// empty set. Each distinct label sequence is stored once however many
// families share it (a client's client="7" set carries some sixty).
type labelNode struct {
	parent int32
	label  Label
}

// store is the family set shared by a registry and all its scoped views.
type store struct {
	fams   []*Family
	byName map[string]*Family
	nodes  []labelNode
	// child interns trie edges: (parent, label) to the child node.
	child map[labelNode]int32
	// last remembers the previous intern call: its base node, a copy of
	// its labels and the node reached after each of them. A component
	// registers dozens of families under one label set, so most calls
	// resolve from here without hashing a label.
	lastBase int32
	lastLs   Labels
	lastRefs []int32
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{s: &store{
		byName: make(map[string]*Family),
		nodes:  make([]labelNode, 1),
		child:  make(map[labelNode]int32),
	}}
}

// Scoped returns a view of the same registry that prepends the given
// labels to every instance registered through it, and whose reads (Len,
// the Sum/Max projections, Snapshot and the exports) see only instances
// carrying those labels. Families are shared: a family registered through
// any view appears once, with instances from every scope, and the root
// view reads them all. Scopes nest (scoping a scoped view concatenates
// labels).
func (r *Registry) Scoped(ls ...Label) *Registry {
	scope := make(Labels, 0, len(r.scope)+len(ls))
	scope = append(scope, r.scope...)
	scope = append(scope, ls...)
	return &Registry{s: r.s, scope: scope, ref: r.s.intern(r.ref, ls)}
}

// intern returns the node for base's label set followed by ls, adding the
// missing nodes.
func (s *store) intern(base int32, ls Labels) int32 {
	k := 0 // labels shared with the previous call
	if base == s.lastBase {
		for k < len(ls) && k < len(s.lastLs) && ls[k] == s.lastLs[k] {
			k++
		}
	}
	s.lastBase = base
	s.lastLs = append(s.lastLs[:k], ls[k:]...)
	s.lastRefs = s.lastRefs[:k]
	ref := base
	if k > 0 {
		ref = s.lastRefs[k-1]
	}
	for _, l := range ls[k:] {
		edge := labelNode{parent: ref, label: l}
		next, ok := s.child[edge]
		if !ok {
			next = int32(len(s.nodes))
			s.nodes = append(s.nodes, edge)
			s.child[edge] = next
		}
		ref = next
		s.lastRefs = append(s.lastRefs, ref)
	}
	return ref
}

// labels returns ref's label set in registration order.
func (s *store) labels(ref int32) Labels {
	n := 0
	for r := ref; r != 0; r = s.nodes[r].parent {
		n++
	}
	ls := make(Labels, n)
	for r := ref; r != 0; r = s.nodes[r].parent {
		n--
		ls[n] = s.nodes[r].label
	}
	return ls
}

// matches reports whether ref's label set carries every selector pair.
func (s *store) matches(ref int32, sel []Label) bool {
	for _, want := range sel {
		r := ref
		for r != 0 && s.nodes[r].label != want {
			r = s.nodes[r].parent
		}
		if r == 0 {
			return false
		}
	}
	return true
}

// selects reports whether an instance with label set ref is in the view's
// scope and carries every selector pair.
func (r *Registry) selects(ref int32, sel []Label) bool {
	return r.s.matches(ref, r.scope) && r.s.matches(ref, sel)
}

// family fetches or creates the named family, enforcing that every
// registration of the same name agrees on unit, help and kind — the
// property that makes the generated documentation trustworthy.
func (r *Registry) family(d Desc) *Family {
	if d.Name == "" {
		panic("metrics: empty metric name")
	}
	if f := r.s.byName[d.Name]; f != nil {
		if f.Desc != d {
			panic(fmt.Sprintf("metrics: %s re-registered with conflicting description (%+v vs %+v)",
				d.Name, f.Desc, d))
		}
		return f
	}
	f := &Family{Desc: d, s: r.s}
	r.s.fams = append(r.s.fams, f)
	r.s.byName[d.Name] = f
	return f
}

func (r *Registry) add(d Desc, ls Labels, src any) {
	f := r.family(d)
	ref := r.s.intern(r.ref, ls)
	if n := len(f.refs); f.seen != nil || (n > 0 && ref <= f.refs[n-1]) {
		if f.seen == nil {
			f.seen = make(map[int32]struct{}, n+1)
			for _, x := range f.refs {
				f.seen[x] = struct{}{}
			}
		}
		if _, dup := f.seen[ref]; dup {
			panic(fmt.Sprintf("metrics: duplicate instance %s%s", d.Name, r.s.labels(ref)))
		}
		f.seen[ref] = struct{}{}
	}
	f.src = append(f.src, src)
	f.refs = append(f.refs, ref)
}

// Int registers an integer-valued instance (counter or gauge) whose value
// is computed by fn at snapshot time. Use IntVar when the value is a
// field.
func (r *Registry) Int(d Desc, ls Labels, fn func() int64) {
	if d.Kind == Summary {
		panic("metrics: Int registration with Summary kind")
	}
	r.add(d, ls, fn)
}

// IntVar registers an integer-valued instance read directly from *v at
// snapshot time. This is the handle form: the owner keeps incrementing
// its own field and the registry never touches the hot path.
func (r *Registry) IntVar(d Desc, ls Labels, v *int64) {
	if d.Kind == Summary {
		panic("metrics: IntVar registration with Summary kind")
	}
	r.add(d, ls, v)
}

// SecondsVar registers a duration-valued instance read directly from *v
// at snapshot time and exported in seconds (see IntVar). The raw
// nanosecond integer is preserved internally, so sums and maxima over
// instances stay exact.
func (r *Registry) SecondsVar(d Desc, ls Labels, v *time.Duration) {
	if d.Kind == Summary {
		panic("metrics: SecondsVar registration with Summary kind")
	}
	if d.Unit == "" {
		d.Unit = "seconds"
	}
	r.add(d, ls, v)
}

// HistSeconds registers a distribution instance whose stats.Welford
// accumulator collected nanosecond samples (the simulators store
// time.Duration as float64), computed by fn at snapshot time. Exports
// expand it into _count/_sum/_mean/_stddev/_min/_max, scaled to seconds.
func (r *Registry) HistSeconds(d Desc, ls Labels, fn func() stats.Welford) {
	r.add(histDesc(d), ls, fn)
}

// HistSecondsVar registers a nanosecond-sample distribution read directly
// from *w at snapshot time (see HistSeconds and IntVar).
func (r *Registry) HistSecondsVar(d Desc, ls Labels, w *stats.Welford) {
	r.add(histDesc(d), ls, w)
}

func histDesc(d Desc) Desc {
	d.Kind = Summary
	if d.Unit == "" {
		d.Unit = "seconds"
	}
	return d
}

// intValue reads an integer instance; ok is false for other value types.
func intValue(src any) (v int64, ok bool) {
	switch p := src.(type) {
	case *int64:
		return *p, true
	case func() int64:
		return p(), true
	}
	return 0, false
}

// durValue reads a duration instance; ok is false for other value types.
func durValue(src any) (v time.Duration, ok bool) {
	switch p := src.(type) {
	case *time.Duration:
		return *p, true
	case func() time.Duration:
		return p(), true
	}
	return 0, false
}

// sumValue reads a distribution instance.
func sumValue(src any) stats.Welford {
	if p, ok := src.(*stats.Welford); ok {
		return *p
	}
	return src.(func() stats.Welford)()
}

// Families returns every family of the shared store sorted by name (the
// documentation and export order). A scoped view returns the same set.
func (r *Registry) Families() []*Family {
	out := make([]*Family, len(r.s.fams))
	copy(out, r.s.fams)
	slices.SortFunc(out, func(a, b *Family) int { return cmp.Compare(a.Desc.Name, b.Desc.Name) })
	return out
}

// Len returns the number of registered instances in the view's scope
// across all families.
func (r *Registry) Len() int {
	n := 0
	for _, f := range r.s.fams {
		for _, ref := range f.refs {
			if r.s.matches(ref, r.scope) {
				n++
			}
		}
	}
	return n
}

// SumInt sums the named family's integer instances matching every selector
// label. Summing raw int64 values keeps registry projections bit-exact
// with direct counter loops, which is what lets the report tables read
// through the registry without perturbing golden outputs. Missing families
// sum to zero (a subsystem that never constructed is a subsystem with all
// counters at zero).
func (r *Registry) SumInt(name string, sel ...Label) int64 {
	f := r.s.byName[name]
	if f == nil {
		return 0
	}
	var sum int64
	for i, ref := range f.refs {
		if !r.selects(ref, sel) {
			continue
		}
		if v, ok := intValue(f.src[i]); ok {
			sum += v
		}
	}
	return sum
}

// SumSeconds sums a duration family's instances matching the selectors.
func (r *Registry) SumSeconds(name string, sel ...Label) time.Duration {
	f := r.s.byName[name]
	if f == nil {
		return 0
	}
	var sum time.Duration
	for i, ref := range f.refs {
		if !r.selects(ref, sel) {
			continue
		}
		if v, ok := durValue(f.src[i]); ok {
			sum += v
		}
	}
	return sum
}

// MaxSeconds returns the maximum over a duration family's matching
// instances (zero when none match).
func (r *Registry) MaxSeconds(name string, sel ...Label) time.Duration {
	f := r.s.byName[name]
	if f == nil {
		return 0
	}
	var max time.Duration
	for i, ref := range f.refs {
		if !r.selects(ref, sel) {
			continue
		}
		if v, ok := durValue(f.src[i]); ok && v > max {
			max = v
		}
	}
	return max
}

// Point is one exported value: a flat (name, labels, value) triple with
// summary instances already expanded into suffixed points.
type Point struct {
	Name   string
	Labels string
	Unit   string
	Kind   Kind
	// IsInt selects which of Int/Float carries the value. Integer points
	// print without a decimal point, keeping counter dumps exact.
	IsInt bool
	Int   int64
	Float float64
}

// Value renders the point's value deterministically.
func (p Point) Value() string {
	if p.IsInt {
		return fmt.Sprintf("%d", p.Int)
	}
	return formatFloat(p.Float)
}

// Snapshot reads every instance in the view's scope now and returns the
// flat point list, sorted by (name, labels) — summaries expanded,
// durations in seconds.
func (r *Registry) Snapshot() []Point {
	type inst struct {
		labels string
		src    any
	}
	var out []Point
	var insts []inst
	for _, f := range r.Families() {
		insts = insts[:0]
		for i, ref := range f.refs {
			if r.s.matches(ref, r.scope) {
				insts = append(insts, inst{r.s.labels(ref).String(), f.src[i]})
			}
		}
		slices.SortFunc(insts, func(a, b inst) int { return cmp.Compare(a.labels, b.labels) })
		for _, in := range insts {
			out = appendPoints(out, f.Desc, in.labels, in.src)
		}
	}
	return out
}

// appendPoints expands one instance into its exported points.
func appendPoints(out []Point, d Desc, labels string, src any) []Point {
	base := Point{Name: d.Name, Labels: labels, Unit: d.Unit, Kind: d.Kind}
	if v, ok := intValue(src); ok {
		base.IsInt = true
		base.Int = v
		return append(out, base)
	}
	if v, ok := durValue(src); ok {
		base.Float = v.Seconds()
		return append(out, base)
	}
	w := sumValue(src)
	mk := func(suffix, unit string, isInt bool, iv int64, fv float64) Point {
		return Point{Name: d.Name + suffix, Labels: labels, Unit: unit, Kind: d.Kind,
			IsInt: isInt, Int: iv, Float: fv}
	}
	const s = 1e-9 // nanosecond samples export in seconds
	out = append(out,
		mk("_count", "samples", true, w.N(), 0),
		mk("_sum", d.Unit, false, 0, w.Sum()*s),
		mk("_mean", d.Unit, false, 0, w.Mean()*s),
		mk("_stddev", d.Unit, false, 0, w.Stddev()*s))
	if w.N() > 0 {
		out = append(out,
			mk("_min", d.Unit, false, 0, w.Min()*s),
			mk("_max", d.Unit, false, 0, w.Max()*s))
	}
	return out
}
