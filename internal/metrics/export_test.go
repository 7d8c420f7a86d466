package metrics

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"spritefs/internal/stats"
)

// TestPrometheusContentType pins the exact Content-Type the live /metrics
// endpoint must declare; Prometheus rejects scrapes with a different
// version token.
func TestPrometheusContentType(t *testing.T) {
	const want = "text/plain; version=0.0.4; charset=utf-8"
	if PrometheusContentType != want {
		t.Fatalf("PrometheusContentType = %q, want %q", PrometheusContentType, want)
	}
}

func promDump(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return b.String()
}

// TestPrometheusLabelEscaping covers the three escapes the exposition
// format defines for label values — backslash, double quote, newline —
// and checks that other bytes (tab, unicode) pass through untouched.
func TestPrometheusLabelEscaping(t *testing.T) {
	cases := []struct {
		raw, escaped string
	}{
		{`plain`, `plain`},
		{`back\slash`, `back\\slash`},
		{`quo"te`, `quo\"te`},
		{"new\nline", `new\nline`},
		{"tab\there", "tab\there"}, // tabs are NOT escaped in label values
		{`all"three\of` + "\nthem", `all\"three\\of\nthem`},
		{"μnicode", "μnicode"},
	}
	r := New()
	for i, c := range cases {
		i, c := i, c
		r.Int(Desc{Name: "esc_test_total", Unit: "ops", Help: "escape cases", Kind: Counter},
			Labels{L("case", strconv.Itoa(i)), L("value", c.raw)},
			func() int64 { return int64(i) })
	}
	out := promDump(t, r)
	for i, c := range cases {
		want := `esc_test_total{case="` + strconv.Itoa(i) + `",value="` + c.escaped + `"} ` + strconv.Itoa(i)
		if !strings.Contains(out, want+"\n") {
			t.Errorf("case %d: output missing %q\ngot:\n%s", i, want, out)
		}
	}
}

// TestPrometheusHelpTypeOrdering checks the family-header discipline: each
// family emits exactly one # HELP line immediately followed by its # TYPE
// line, both before any of its samples, and no header repeats.
func TestPrometheusHelpTypeOrdering(t *testing.T) {
	r := New()
	r.Int(Desc{Name: "bbb_gauge", Unit: "x", Help: "a gauge", Kind: Gauge}, nil, func() int64 { return 1 })
	for _, c := range []string{"0", "1", "2"} {
		c := c
		r.Int(Desc{Name: "aaa_total", Unit: "ops", Help: "a counter", Kind: Counter},
			Labels{L("client", c)}, func() int64 { return 7 })
	}
	sec := time.Second
	r.SecondsVar(Desc{Name: "ccc_seconds", Help: "a duration", Kind: Gauge}, nil, &sec)

	lines := strings.Split(strings.TrimRight(promDump(t, r), "\n"), "\n")
	helpSeen := map[string]bool{}
	sampleSeen := map[string]bool{}
	var lastHelp string
	for i, ln := range lines {
		switch {
		case strings.HasPrefix(ln, "# HELP "):
			name := strings.Fields(ln)[2]
			if helpSeen[name] {
				t.Errorf("line %d: repeated # HELP for %s", i, name)
			}
			if sampleSeen[name] {
				t.Errorf("line %d: # HELP for %s after its samples", i, name)
			}
			helpSeen[name] = true
			lastHelp = name
		case strings.HasPrefix(ln, "# TYPE "):
			name := strings.Fields(ln)[2]
			if name != lastHelp {
				t.Errorf("line %d: # TYPE %s does not immediately follow its # HELP (last was %s)", i, name, lastHelp)
			}
		default:
			name := ln
			if j := strings.IndexAny(ln, "{ "); j >= 0 {
				name = ln[:j]
			}
			if !helpSeen[name] {
				t.Errorf("line %d: sample %q before its # HELP", i, name)
			}
			sampleSeen[name] = true
		}
	}
	// Families must appear in sorted order: aaa samples before bbb before ccc.
	a, b, c := strings.Index(promDump(t, r), "aaa_total"), strings.Index(promDump(t, r), "bbb_gauge"), strings.Index(promDump(t, r), "ccc_seconds")
	if !(a < b && b < c) {
		t.Errorf("families not sorted: offsets aaa=%d bbb=%d ccc=%d", a, b, c)
	}
}

// Exposition-format grammar (version 0.0.4), used to validate whole dumps
// rather than string-diffing expected output.
var (
	promMetricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelName  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
	promTypes      = map[string]bool{"counter": true, "gauge": true, "histogram": true, "summary": true, "untyped": true}
)

// validatePromLine checks one non-comment sample line against the grammar:
// metric_name[{label="value",...}] value. Returns the metric name.
func validatePromLine(t *testing.T, ln string) string {
	t.Helper()
	rest := ln
	nameEnd := strings.IndexAny(rest, "{ ")
	if nameEnd < 0 {
		t.Errorf("sample line %q: no value", ln)
		return ""
	}
	name := rest[:nameEnd]
	if !promMetricName.MatchString(name) {
		t.Errorf("sample line %q: invalid metric name %q", ln, name)
	}
	rest = rest[nameEnd:]
	if rest[0] == '{' {
		end := -1
		inQuote, esc := false, false
		for i := 1; i < len(rest); i++ {
			c := rest[i]
			switch {
			case esc:
				if c != '\\' && c != '"' && c != 'n' {
					t.Errorf("sample line %q: invalid escape \\%c", ln, c)
				}
				esc = false
			case inQuote && c == '\\':
				esc = true
			case c == '"':
				inQuote = !inQuote
			case !inQuote && c == '}':
				end = i
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			t.Errorf("sample line %q: unterminated label set", ln)
			return name
		}
		for _, pair := range splitPromLabels(rest[1:end]) {
			eq := strings.Index(pair, "=")
			if eq < 0 {
				t.Errorf("sample line %q: label %q has no =", ln, pair)
				continue
			}
			if !promLabelName.MatchString(pair[:eq]) {
				t.Errorf("sample line %q: invalid label name %q", ln, pair[:eq])
			}
			v := pair[eq+1:]
			if len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
				t.Errorf("sample line %q: label value %q not quoted", ln, v)
			}
		}
		rest = rest[end+1:]
	}
	if len(rest) == 0 || rest[0] != ' ' {
		t.Errorf("sample line %q: expected space before value", ln)
		return name
	}
	val := rest[1:]
	if _, err := strconv.ParseFloat(val, 64); err != nil {
		// The format also allows +Inf/-Inf/NaN, which ParseFloat accepts.
		t.Errorf("sample line %q: unparseable value %q: %v", ln, val, err)
	}
	return name
}

// splitPromLabels splits `a="x",b="y"` on commas outside quotes.
func splitPromLabels(s string) []string {
	var out []string
	start, inQuote, esc := 0, false, false
	for i := 0; i < len(s); i++ {
		switch {
		case esc:
			esc = false
		case inQuote && s[i] == '\\':
			esc = true
		case s[i] == '"':
			inQuote = !inQuote
		case !inQuote && s[i] == ',':
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// TestPrometheusGrammar validates a dump with every metric shape — counter,
// gauge, duration, labeled instances, summary expansion, hostile label
// values — line by line against the exposition grammar.
func TestPrometheusGrammar(t *testing.T) {
	r := New()
	r.Int(Desc{Name: "g_things", Unit: "things", Help: "gauge", Kind: Gauge}, nil, func() int64 { return -3 })
	r.Int(Desc{Name: "c_ops_total", Unit: "ops", Help: "counter", Kind: Counter},
		Labels{L("verb", "open"), L("path", `C:\tmp "x"`+"\n")}, func() int64 { return 42 })
	d := 1500 * time.Millisecond
	r.SecondsVar(Desc{Name: "d_seconds", Help: "duration", Kind: Gauge}, nil, &d)
	var w stats.Welford
	w.Add(1e6)
	w.Add(3e6)
	r.HistSeconds(Desc{Name: "lat_seconds", Help: "latency"}, Labels{L("verb", "read")},
		func() stats.Welford { return w })

	out := promDump(t, r)
	if out == "" {
		t.Fatal("empty dump")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	samples := 0
	for i, ln := range lines {
		if ln == "" {
			t.Errorf("line %d: empty line inside dump", i)
			continue
		}
		if strings.HasPrefix(ln, "#") {
			f := strings.SplitN(ln, " ", 4)
			if len(f) < 4 || (f[1] != "HELP" && f[1] != "TYPE") {
				t.Errorf("line %d: malformed comment %q", i, ln)
				continue
			}
			if !promMetricName.MatchString(f[2]) {
				t.Errorf("line %d: invalid family name %q", i, f[2])
			}
			if f[1] == "TYPE" && !promTypes[f[3]] {
				t.Errorf("line %d: invalid type %q", i, f[3])
			}
			continue
		}
		validatePromLine(t, ln)
		samples++
	}
	if samples == 0 {
		t.Fatal("dump contained no sample lines")
	}
	// Summary expansion must carry the whole suffix set.
	for _, suf := range []string{"_count", "_sum", "_mean", "_stddev", "_min", "_max"} {
		if !strings.Contains(out, "lat_seconds"+suf+`{verb="read"}`) {
			t.Errorf("summary expansion missing lat_seconds%s", suf)
		}
	}
	// The nanosecond samples must export in seconds (scale 1e-9).
	if !strings.Contains(out, `lat_seconds_mean{verb="read"} 0.002`) {
		t.Errorf("summary scale wrong; dump:\n%s", out)
	}
}
