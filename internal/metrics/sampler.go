package metrics

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"time"
)

// Sampler turns the registry into time series: each Sample(now) call
// appends one row of metric values into a bounded ring buffer. The owner
// drives it from the simulation clock (cluster and replay schedule it at
// Config.SamplePeriod), which is what keeps sampled series deterministic:
// virtual time, not wall time, indexes every row.
//
// Summary metrics are skipped — series of expanded summary points are
// rarely what an interval study wants, and skipping them keeps rows
// compact. Use Match to restrict sampling further (e.g. only the
// per-client traffic counters for a Table 2 style activity study).
type Sampler struct {
	reg *Registry
	// match selects which metric instances are sampled (nil = all
	// non-summary instances).
	match func(name string) bool

	cols []seriesCol
	// fams maps the store's families, by creation index, to the columns
	// of their instances. Families and instances are append-only, so a
	// (family, slot) pair names one column for the sampler's lifetime,
	// and each column's labels render once, when it first appears.
	fams []famCols

	capPoints int
	rows      []row
	start     int   // ring start index when full
	dropped   int64 // rows overwritten by the ring
}

type seriesCol struct {
	name   string
	labels string
	unit   string
}

// famCols is one family's slot-to-column map.
type famCols struct {
	sampled bool    // false for summaries and families match rejects
	cols    []int32 // per instance slot; -1 when outside the view's scope
}

type row struct {
	t time.Duration
	v []float64
}

// NewSampler returns a sampler over reg holding at most capPoints rows
// (the ring buffer bound; <= 0 selects the 4096-row default). match, when
// non-nil, restricts sampling to metric families it accepts. A scoped reg
// samples only its own scope.
func NewSampler(reg *Registry, capPoints int, match func(name string) bool) *Sampler {
	if capPoints <= 0 {
		capPoints = 4096
	}
	return &Sampler{reg: reg, match: match, capPoints: capPoints}
}

// Sample reads every selected metric now and appends one row stamped with
// the given virtual time. New metric instances (replay materializes
// clients lazily) extend the column set; earlier rows read as NaN in the
// missing columns.
func (s *Sampler) Sample(now time.Duration) {
	st := s.reg.s
	for _, f := range st.fams[len(s.fams):] {
		s.fams = append(s.fams, famCols{
			sampled: f.Desc.Kind != Summary && (s.match == nil || s.match(f.Desc.Name)),
		})
	}
	for fi, f := range st.fams {
		fc := &s.fams[fi]
		if !fc.sampled {
			continue
		}
		for _, ref := range f.refs[len(fc.cols):] {
			col := int32(-1)
			if st.matches(ref, s.reg.scope) {
				col = int32(len(s.cols))
				s.cols = append(s.cols, seriesCol{name: f.Desc.Name, labels: st.labels(ref).String(), unit: f.Desc.Unit})
			}
			fc.cols = append(fc.cols, col)
		}
	}
	vals := make([]float64, len(s.cols))
	for fi, f := range st.fams {
		for i, col := range s.fams[fi].cols {
			if col < 0 {
				continue
			}
			if v, ok := intValue(f.src[i]); ok {
				vals[col] = float64(v)
			} else if d, ok := durValue(f.src[i]); ok {
				vals[col] = d.Seconds()
			}
		}
	}
	if len(s.rows) < s.capPoints {
		s.rows = append(s.rows, row{t: now, v: vals})
		return
	}
	// Ring full: overwrite the oldest row.
	s.rows[s.start] = row{t: now, v: vals}
	s.start = (s.start + 1) % s.capPoints
	s.dropped++
}

// Len returns the number of retained rows.
func (s *Sampler) Len() int { return len(s.rows) }

// Dropped returns how many rows the ring buffer has overwritten.
func (s *Sampler) Dropped() int64 { return s.dropped }

// Series is one sampled metric's full time series, in time order.
type Series struct {
	Name   string
	Labels string
	Unit   string
	Times  []time.Duration
	Values []float64 // NaN where the instance did not exist yet
}

// orderedRows returns the retained rows oldest first.
func (s *Sampler) orderedRows() []row {
	out := make([]row, 0, len(s.rows))
	for i := 0; i < len(s.rows); i++ {
		out = append(out, s.rows[(s.start+i)%len(s.rows)])
	}
	return out
}

// sortedCols returns column indices sorted by (name, labels), the
// deterministic export order.
func (s *Sampler) sortedCols() []int {
	idx := make([]int, len(s.cols))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		ca, cb := s.cols[a], s.cols[b]
		if c := cmp.Compare(ca.name, cb.name); c != 0 {
			return c
		}
		return cmp.Compare(ca.labels, cb.labels)
	})
	return idx
}

// All returns every sampled series sorted by (name, labels).
func (s *Sampler) All() []Series {
	rows := s.orderedRows()
	var out []Series
	for _, ci := range s.sortedCols() {
		c := s.cols[ci]
		ser := Series{Name: c.name, Labels: c.labels, Unit: c.unit}
		for _, r := range rows {
			ser.Times = append(ser.Times, r.t)
			if ci < len(r.v) {
				ser.Values = append(ser.Values, r.v[ci])
			} else {
				ser.Values = append(ser.Values, nan())
			}
		}
		out = append(out, ser)
	}
	return out
}

// Get returns the series for one metric instance (labels as rendered by
// Labels.String, "" for none), or an empty series if never sampled.
func (s *Sampler) Get(name, labels string) Series {
	for _, ser := range s.All() {
		if ser.Name == name && ser.Labels == labels {
			return ser
		}
	}
	return Series{Name: name, Labels: labels}
}

// WriteTSV renders the series as a matrix: one row per sample time, one
// column per metric instance, columns sorted by (name, labels). Missing
// values render as "-".
func (s *Sampler) WriteTSV(w io.Writer) error {
	cols := s.sortedCols()
	var b strings.Builder
	b.WriteString("time_seconds")
	for _, ci := range cols {
		b.WriteByte('\t')
		b.WriteString(s.cols[ci].name)
		b.WriteString(s.cols[ci].labels)
	}
	b.WriteByte('\n')
	for _, r := range s.orderedRows() {
		b.WriteString(formatFloat(r.t.Seconds()))
		for _, ci := range cols {
			b.WriteByte('\t')
			if ci < len(r.v) && !isNaN(r.v[ci]) {
				b.WriteString(formatFloat(r.v[ci]))
			} else {
				b.WriteByte('-')
			}
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteJSONL renders one JSON object per (time, metric) value.
func (s *Sampler) WriteJSONL(w io.Writer) error {
	cols := s.sortedCols()
	for _, r := range s.orderedRows() {
		for _, ci := range cols {
			if ci >= len(r.v) || isNaN(r.v[ci]) {
				continue
			}
			c := s.cols[ci]
			if _, err := fmt.Fprintf(w, "{\"t\":%s,\"name\":%q,\"labels\":%q,\"value\":%s}\n",
				formatFloat(r.t.Seconds()), c.name, c.labels, formatFloat(r.v[ci])); err != nil {
				return err
			}
		}
	}
	return nil
}

// WritePrometheus renders the series in Prometheus text format with
// millisecond timestamps — a scrape archive a TSDB can ingest directly.
func (s *Sampler) WritePrometheus(w io.Writer) error {
	cols := s.sortedCols()
	for _, ci := range cols {
		c := s.cols[ci]
		for _, r := range s.orderedRows() {
			if ci >= len(r.v) || isNaN(r.v[ci]) {
				continue
			}
			if _, err := fmt.Fprintf(w, "%s%s %s %d\n",
				c.name, c.labels, formatFloat(r.v[ci]), r.t.Milliseconds()); err != nil {
				return err
			}
		}
	}
	return nil
}

// Dump renders the sampled series in the named format.
func (s *Sampler) Dump(w io.Writer, format string) error {
	switch format {
	case "prom", "prometheus":
		return s.WritePrometheus(w)
	case "tsv":
		return s.WriteTSV(w)
	case "jsonl", "json":
		return s.WriteJSONL(w)
	default:
		return fmt.Errorf("metrics: unknown series format %q (prom, tsv, jsonl)", format)
	}
}

func nan() float64 { return math.NaN() }

func isNaN(v float64) bool { return math.IsNaN(v) }
