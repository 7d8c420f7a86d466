// Command perfbench benchmarks the reproduction runs people actually
// make: the Section 4 reproduction, a 10,000-client WAN-scale run and a
// trace-replay cache sweep. Every timed run is a fresh child process of
// the repository's own CLI (cmd/experiments or cmd/replay), so the
// benchmark measures the surface users run; the child's output is checked
// against a reference before its time counts.
//
// Run it through the launcher, which builds the CLIs first:
//
//	bash perfbench/run.sh --workload section4 --seed 0 --seconds 20 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics (wall_s, setup_s, opens_per_s, peak_rss_mb).
// With --trace 1 the benchmark instead repeats the CLI's work in its own
// process through the layers' public functions, recording a span around
// every call and a CPU profile, and reports the per-layer metrics. Every
// time is host time; the simulated statistics are checked, not measured.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// options are the command-line settings of one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // checkout root the CLIs run in
	bin      string // directory holding the built CLIs
	quick    bool   // tiny inputs, for the self-test
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 0, "input seed (0 = the CLIs' default inputs, checked against the committed references)")
	fs.Float64Var(&o.seconds, "seconds", 20, "host seconds of timed child runs")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.root, "root", ".", "repository checkout the CLIs run in")
	fs.StringVar(&o.bin, "bin", ".bench_build/bin", "directory holding the built experiments, replay and tracegen binaries")
	fs.BoolVar(&o.quick, "quick", false, "tiny inputs (self-test mode)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace must be 0 or 1 (got %d)\n", traceFlag)
		return 2
	}
	o.trace = traceFlag == 1
	w := lookupWorkload(o.workload, o.quick)
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive")
		return 2
	}
	var err error
	if o.root, err = filepath.Abs(o.root); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !filepath.IsAbs(o.bin) {
		o.bin = filepath.Join(o.root, o.bin)
	}
	for _, b := range []string{"experiments", "replay", "tracegen"} {
		if _, err := os.Stat(filepath.Join(o.bin, b)); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v (build the CLIs with perfbench/run.sh)\n", err)
			return 1
		}
	}

	want, err := reference(o, w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	fmt.Println(hostLine(o, w))
	var res *result
	if o.trace {
		res, err = tracedRun(w, o, want)
	} else {
		res, err = timedRun(w, o, want)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := finite(res.Metrics); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printSummary(res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// finite rejects NaN and infinite values, which JSON cannot carry.
func finite(m map[string]metric) error {
	for name, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is not finite (%v)", name, v.Value)
		}
	}
	return nil
}

// printSummary writes the metrics one per line, sorted by name, ahead of
// the JSON line so a person reading the output sees them too.
func printSummary(r *result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-28s %16.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Printf("  attempted %d, failed %d\n", r.Attempted, r.Failed)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
