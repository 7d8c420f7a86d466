// Command experiments regenerates every table and figure of the paper's
// evaluation and prints them side by side with the published values. It is
// the tool behind EXPERIMENTS.md.
//
// Usage:
//
//	experiments -exp section4 -traces 1,2 -hours 4 -scale 0.5
//	experiments -exp section5 -days 1 -scale 0.5
//	experiments -exp all -hours 24 -days 14        # full-scale, slow
//	experiments -exp scale -clients 1000 -shards 1,2,4,8 -hours 0.25
//	experiments -exp wanscale -clients 10000 -segments 8 -sites 1,2,4,8
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"spritefs/internal/core"
	"spritefs/internal/prof"
	"spritefs/internal/shutdown"
	"spritefs/internal/stats"
)

// flagScope says which experiments each flag applies to; validateFlags
// rejects explicitly-set flags the chosen experiment would silently
// ignore. Flags absent from the map (exp, seed, cpuprofile,
// memprofile) apply everywhere.
var flagScope = map[string][]string{
	"traces":         {"all", "section4"},
	"hours":          {"all", "section4", "faults", "timeseries", "scale", "wanscale", "workloads"},
	"days":           {"all", "section5"},
	"scale":          {"all", "section4", "section5", "faults", "timeseries", "workloads"},
	"cdfdir":         {"all", "section4"},
	"faults":         {"faults"},
	"metrics-out":    {"timeseries"},
	"metrics-format": {"timeseries"},
	"metrics-sample": {"timeseries"},
	"shards":         {"scale"},
	"clients":        {"scale", "wanscale"},
	"sequential":     {"scale", "wanscale"},
	"workers":        {"scale", "wanscale"},
	"sites":          {"wanscale"},
	"segments":       {"wanscale"},
}

var validExps = []string{"all", "section4", "section5", "faults", "timeseries", "scale", "wanscale", "workloads"}

// validateFlags fails fast on unknown -exp names and on contradictory
// combinations instead of silently running the default.
func validateFlags(exp string, set map[string]bool, metricsFmt string) error {
	known := false
	for _, e := range validExps {
		if exp == e {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("unknown experiment %q (want one of %s)", exp, strings.Join(validExps, ", "))
	}
	for name := range set {
		scope, ok := flagScope[name]
		if !ok {
			continue
		}
		applies := false
		for _, e := range scope {
			if e == exp {
				applies = true
				break
			}
		}
		if !applies {
			return fmt.Errorf("-%s does not apply to -exp %s (valid for: %s)",
				name, exp, strings.Join(scope, ", "))
		}
	}
	if set["metrics-format"] && !set["metrics-out"] {
		return fmt.Errorf("-metrics-format without -metrics-out writes nothing; add -metrics-out")
	}
	switch metricsFmt {
	case "tsv", "prom", "jsonl":
	default:
		return fmt.Errorf("unknown -metrics-format %q (want tsv, prom or jsonl)", metricsFmt)
	}
	return nil
}

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: all, section4, section5, faults, timeseries, scale, wanscale, workloads")
		traces  = flag.String("traces", "1,2,3,4,5,6,7,8", "comma-separated trace numbers for section4")
		hours   = flag.Float64("hours", 24, "simulated hours per trace")
		days    = flag.Float64("days", 14, "simulated days for the counter study")
		scale   = flag.Float64("scale", 1.0, "community scale factor (1.0 = 40 clients)")
		seed    = flag.Int64("seed", 0, "seed offset")
		cdfDir  = flag.String("cdfdir", "", "write the Figure 1-4 CDF series as TSV files into this directory")
		sched   = flag.String("faults", "", "fault schedule for -exp faults (default: one server crash per hour)")
		tsOut   = flag.String("metrics-out", "", "for -exp timeseries: also write the sampled series to this file ('-' = stdout)")
		tsFmt   = flag.String("metrics-format", "tsv", "series dump format: tsv | prom | jsonl")
		tsIntv  = flag.Duration("metrics-sample", 10*time.Second, "sampling interval for -exp timeseries")
		shards  = flag.String("shards", "1,2,4,8", "comma-separated shard counts for -exp scale")
		clients = flag.Int("clients", 0, "total community size for -exp scale (default 1000) or wanscale (default 10000)")
		seqExec = flag.Bool("sequential", false, "for -exp scale/wanscale: force the sequential executor")
		workers = flag.Int("workers", 0, "for -exp scale/wanscale: parallel executor goroutines (0 = GOMAXPROCS)")
		sites   = flag.String("sites", "1,2,4,8", "comma-separated site counts for -exp wanscale")
		segs    = flag.Int("segments", 8, "total segment count for -exp wanscale (each site count must divide it)")
		cpuProf = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf = flag.String("memprofile", "", "write a pprof heap profile (taken after the run) to this file")
	)
	flag.Parse()

	setFlags := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })
	if err := validateFlags(*exp, setFlags, *tsFmt); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		flag.Usage()
		os.Exit(2)
	}
	// Profile files are created before any experiment runs so a bad path
	// fails in milliseconds, not after hours of simulation.
	pp, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	defer func() {
		if err := pp.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}()
	// SIGINT/SIGTERM mid-study: flush the profiles before exiting so a
	// -cpuprofile of an aborted multi-hour run is still loadable.
	guard := shutdown.NewGuard()
	defer guard.Close()
	guard.Add(func() { pp.Stop() })

	if *exp == "all" || *exp == "section4" {
		nums, err := parseTraces(*traces)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		var results []*core.TraceResult
		for _, n := range nums {
			fmt.Fprintf(os.Stderr, "running trace %d (%.1fh, scale %.2f)...\n", n, *hours, *scale)
			r, err := core.RunTrace(n, core.TraceOptions{Hours: *hours, Scale: *scale, SeedOffset: *seed})
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "  %d records\n", r.Records)
			results = append(results, r)
		}
		fmt.Println(core.TraceReport(results))
		if *cdfDir != "" {
			if err := writeCDFs(*cdfDir, results); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
		}
	}

	if *exp == "all" || *exp == "section5" {
		fmt.Fprintf(os.Stderr, "running counter study (%.1f days, scale %.2f)...\n", *days, *scale)
		r := core.RunCounterStudy(core.CounterOptions{Days: *days, Scale: *scale, Seed: *seed})
		fmt.Println(core.CounterTables(r))
	}

	if *exp == "timeseries" {
		fmt.Fprintf(os.Stderr, "running timeseries study (%.1fh, scale %.2f, sample %v)...\n",
			*hours, *scale, *tsIntv)
		r := core.RunTimeseries(core.TimeseriesOptions{
			Hours: *hours, Scale: *scale, Seed: *seed, Sample: *tsIntv,
		})
		fmt.Println(core.TimeseriesTables(r))
		if *tsOut != "" {
			if err := dumpSeries(r, *tsOut, *tsFmt); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
		}
	}

	if *exp == "faults" {
		fmt.Fprintf(os.Stderr, "running fault study (%.1fh per writeback setting, scale %.2f)...\n",
			*hours, *scale)
		r, err := core.RunFaultStudy(core.FaultOptions{
			Hours: *hours, Scale: *scale, Seed: *seed, Schedule: *sched,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Println(core.FaultTables(r))
	}

	if *exp == "scale" {
		counts, err := parseShards(*shards)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(2)
		}
		scaleHours := *hours
		if !setFlags["hours"] {
			scaleHours = 0 // RunScaleStudy's short default, not the trace studies' 24h
		}
		fmt.Fprintf(os.Stderr, "running scale study (%d clients, shards %s)...\n", *clients, *shards)
		r, err := core.RunScaleStudy(core.ScaleOptions{
			Clients: *clients, Shards: counts, Hours: scaleHours,
			Seed: *seed, Sequential: *seqExec, Workers: *workers,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Println(core.ScaleTables(r))
	}

	if *exp == "workloads" {
		wlHours := *hours
		if !setFlags["hours"] {
			wlHours = 0 // RunWorkloadStudy's 2h default, not the trace studies' 24h
		}
		fmt.Fprintf(os.Stderr, "running workload study (%.1fh per community, scale %.2f)...\n",
			wlHours, *scale)
		r := core.RunWorkloadStudy(core.WorkloadOptions{
			Hours: wlHours, Scale: *scale, Seed: *seed,
		})
		fmt.Println(core.WorkloadTables(r))
	}

	if *exp == "wanscale" {
		counts, err := parseShards(*sites)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(2)
		}
		wanHours := *hours
		if !setFlags["hours"] {
			wanHours = 0 // RunWANScaleStudy's short default, not the trace studies' 24h
		}
		wanClients := *clients
		if wanClients <= 0 {
			wanClients = 10000 // RunWANScaleStudy's default
		}
		fmt.Fprintf(os.Stderr, "running wanscale study (%d clients, %d segments, sites %s)...\n",
			wanClients, *segs, *sites)
		r, err := core.RunWANScaleStudy(core.WANScaleOptions{
			Clients: *clients, Segments: *segs, Sites: counts, Hours: wanHours,
			Seed: *seed, Sequential: *seqExec, Workers: *workers,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Println(core.WANScaleTables(r))
	}
}

// parseShards parses the -shards list.
func parseShards(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad shard count %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no shard counts selected")
	}
	return out, nil
}

// dumpSeries writes the timeseries study's sampled registry series.
func dumpSeries(r *core.TimeseriesResult, path, format string) error {
	if path == "-" {
		return r.Sampler.Dump(os.Stdout, format)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.Sampler.Dump(f, format); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeCDFs dumps the Figure 1-4 cumulative distributions as TSV series,
// one file per (figure, weighting, trace), ready for gnuplot:
//
//	fig1-runs.t3.tsv   fig1-bytes.t3.tsv   fig2-files.t3.tsv ...
func writeCDFs(dir string, results []*core.TraceResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, r := range results {
		series := map[string]*stats.Hist{
			"fig1-runs":  r.Access.RunsByCount,
			"fig1-bytes": r.Access.RunsByBytes,
			"fig2-files": r.Access.SizeByFiles,
			"fig2-bytes": r.Access.SizeByBytes,
			"fig3-opens": r.Access.OpenTimes,
			"fig4-files": r.Lifetime.ByFiles,
			"fig4-bytes": r.Lifetime.ByBytes,
		}
		for name, h := range series {
			path := filepath.Join(dir, fmt.Sprintf("%s.t%d.tsv", name, r.TraceNum))
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(f, "# %s trace %d: x, cumulative fraction\n", name, r.TraceNum)
			for _, p := range h.CDF() {
				fmt.Fprintf(f, "%g\t%.5f\n", p.X, p.Frac)
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	fmt.Fprintf(os.Stderr, "wrote CDF series for %d traces to %s\n", len(results), dir)
	return nil
}

func parseTraces(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 || n > 8 {
			return nil, fmt.Errorf("bad trace number %q (want 1-8)", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no traces selected")
	}
	return out, nil
}
