package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"spritefs/internal/cluster"
	"spritefs/internal/scale"
	"spritefs/internal/trace"
	gen "spritefs/internal/workload"
)

// workload is one benchmarked reproduction run: the CLI invocation that
// is timed, the set-up it starts with, how to read its simulated open
// count and how to check its output.
type workload struct {
	name string
	// reference is the file, relative to the checkout root, holding the
	// output every run at the default seed must reproduce.
	reference string
	// seeded is set when the seed changes the inputs. Unseeded workloads
	// run the same inputs at every seed, so every run is checked against
	// the reference.
	seeded bool
	// setupReps is how many times set-up is timed per run (median), and
	// setupBatch how many set-ups one repetition times (their mean), so
	// that a short set-up is timed over a long enough stretch of the
	// host's time.
	setupReps, setupBatch int

	// prepare makes the run's inputs from the seed, before any timing.
	prepare func(o options) (*inputs, error)
	// command is the CLI binary and its arguments.
	command func(in *inputs) (bin string, args []string)
	// setup builds the simulated system once, in this process, and
	// returns how long that took.
	setup func(in *inputs) (time.Duration, error)
	// opens reads the simulated file-open count from the CLI's output.
	opens func(out []byte) (float64, error)
	// mask blanks the host-time fields of an output before comparison
	// (nil: outputs are compared byte for byte).
	mask func(out []byte) []byte
	// traced repeats the CLI's work through the layers' public functions
	// under the tracer and returns the same output plus layer counts.
	traced func(tr *tracer, in *inputs) ([]byte, layerStats, error)
}

// inputs are one run's seeded settings and generated files.
type inputs struct {
	seed  int64
	files []string // generated trace capture (replay-sweep)
	dir   string   // scratch directory of generated files, removed by cleanup
}

func (in *inputs) cleanup() {
	if in.dir != "" {
		os.RemoveAll(in.dir)
	}
}

// workloadNames lists the workloads in BENCHMARK.json order.
func workloadNames() []string { return []string{"section4", "wan-scale", "replay-sweep"} }

// lookupWorkload returns the named workload; quick shrinks every input to
// a self-test size.
func lookupWorkload(name string, quick bool) *workload {
	switch name {
	case "section4":
		if quick {
			return section4Workload(0.2, []int{1, 3}, 1, 1)
		}
		return section4Workload(24, []int{1, 2, 3, 4, 5, 6, 7, 8}, 15, 10)
	case "wan-scale":
		if quick {
			return wanScaleWorkload(wanParams{clients: 1000, segments: 4, sites: 2, hours: 0.02}, 1, 1)
		}
		return wanScaleWorkload(wanParams{clients: 10000, segments: 8, sites: 2, hours: 0.25}, 5, 1)
	case "replay-sweep":
		if quick {
			return replaySweepWorkload(1, []int{512, 8192}, 1, 1)
		}
		return replaySweepWorkload(24, []int{512, 1024, 2048, 8192}, 31, 1)
	}
	return nil
}

func seededInputs(o options) (*inputs, error) { return &inputs{seed: o.seed}, nil }

// --- section4: the canonical reproduction ---

// traceConfig is the cluster cmd/experiments builds for Section 4 trace
// n (core.RunTrace at scale 1 and the default seed).
func traceConfig(n int) cluster.Config {
	cfg := cluster.DefaultConfig(gen.TraceParams(n))
	cfg.SamplePeriod = 0
	return cfg
}

// section4Workload runs the paper's trace configurations at their
// published seeds: the canonical reproduction, identical at every seed.
func section4Workload(hours float64, traces []int, setupReps, setupBatch int) *workload {
	return &workload{
		name:       "section4",
		reference:  "results_section4.txt",
		setupReps:  setupReps,
		setupBatch: setupBatch,
		prepare:    seededInputs,
		command: func(*inputs) (string, []string) {
			return "experiments", []string{"-exp", "section4", "-hours", ftoa(hours), "-traces", joinInts(traces)}
		},
		setup: func(*inputs) (time.Duration, error) {
			start := time.Now()
			for _, n := range traces {
				cluster.New(traceConfig(n))
			}
			return time.Since(start), nil
		},
		opens: section4Opens,
		traced: func(tr *tracer, _ *inputs) ([]byte, layerStats, error) {
			return tracedSection4(tr, hours, traces)
		},
	}
}

// section4Opens sums the measured side of Table 1's "Open events" row
// (cells read "measured|paper").
func section4Opens(out []byte) (float64, error) {
	for _, line := range strings.Split(string(out), "\n") {
		if !strings.HasPrefix(line, "Open events") {
			continue
		}
		var sum float64
		for _, cell := range strings.Fields(strings.TrimPrefix(line, "Open events")) {
			measured, _, _ := strings.Cut(cell, "|")
			v, err := strconv.ParseFloat(measured, 64)
			if err != nil {
				return 0, fmt.Errorf("section4: bad Open events cell %q", cell)
			}
			sum += v
		}
		return sum, nil
	}
	return 0, fmt.Errorf("section4: no Open events row in the output")
}

// --- wan-scale: the sharded executor at 10,000 clients ---

// wanParams sizes the WAN-scale run.
type wanParams struct {
	clients, segments, sites int
	hours                    float64
}

// config is the scale.Config cmd/experiments builds for -exp wanscale
// (core.RunWANScaleStudy with full, non-lean metrics).
func (p wanParams) config(seed int64) scale.Config {
	if seed == 0 {
		seed = 4242 // RunWANScaleStudy's default base seed
	}
	base := gen.Default(seed)
	return scale.Config{
		Base:   base,
		Factor: float64(p.clients) / float64(base.NumClients),
		Shards: p.segments,
		Sites:  p.sites,
	}
}

func wanScaleWorkload(p wanParams, setupReps, setupBatch int) *workload {
	return &workload{
		name:       "wan-scale",
		reference:  "perfbench/testdata/wan-scale.seed0.txt",
		seeded:     true,
		setupReps:  setupReps,
		setupBatch: setupBatch,
		prepare:    seededInputs,
		command: func(in *inputs) (string, []string) {
			return "experiments", []string{"-exp", "wanscale",
				"-clients", strconv.Itoa(p.clients), "-segments", strconv.Itoa(p.segments),
				"-sites", strconv.Itoa(p.sites), "-workers", strconv.Itoa(workers),
				"-hours", ftoa(p.hours), "-seed", strconv.FormatInt(in.seed, 10)}
		},
		setup: func(in *inputs) (time.Duration, error) {
			start := time.Now()
			_, err := scale.New(p.config(in.seed))
			return time.Since(start), err
		},
		opens: func(out []byte) (float64, error) {
			rate, err := tableCell(out, "opens/s", 0)
			return rate * p.hours * 3600, err
		},
		mask: maskWANWall,
		traced: func(tr *tracer, in *inputs) ([]byte, layerStats, error) {
			return tracedWAN(tr, p, in.seed)
		},
	}
}

// maskWANWall normalizes column padding and blanks the host wall-clock
// column of the "Executor wall-clock" table, the one non-deterministic
// field of the wanscale report.
func maskWANWall(out []byte) []byte {
	var b bytes.Buffer
	inExec := false
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "Executor wall-clock"):
			inExec = true
		case len(f) == 0:
			inExec = false
		case strings.Trim(line, "-") == "":
			f = []string{"-"}
		case inExec && f[len(f)-1] != "wall":
			f[len(f)-1] = "<wall>"
		}
		b.WriteString(strings.Join(f, " "))
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// --- replay-sweep: a 24-hour trace-3 capture replayed under four caches ---

// replaySweepWorkload replays a cmd/tracegen capture of trace 3 at its
// published seed under each cache size, identically at every seed.
func replaySweepWorkload(hours float64, caches []int, setupReps, setupBatch int) *workload {
	return &workload{
		name:       "replay-sweep",
		reference:  "perfbench/testdata/replay-sweep.seed0.txt",
		setupReps:  setupReps,
		setupBatch: setupBatch,
		prepare: func(o options) (*inputs, error) {
			build := filepath.Join(o.root, ".bench_build")
			if err := os.MkdirAll(build, 0o755); err != nil {
				return nil, err
			}
			dir, err := os.MkdirTemp(build, "capture-")
			if err != nil {
				return nil, err
			}
			in := &inputs{seed: o.seed, dir: dir}
			if in.files, err = writeCapture(o, dir, 3, hours); err != nil {
				in.cleanup()
				return nil, err
			}
			return in, nil
		},
		command: func(in *inputs) (string, []string) {
			return "replay", []string{"-trace", strings.Join(in.files, ","),
				"-sweep", "cache=" + joinInts(caches), "-workers", strconv.Itoa(workers)}
		},
		setup: func(in *inputs) (time.Duration, error) {
			start := time.Now()
			_, err := decodeCapture(in.files)
			return time.Since(start), err
		},
		opens: func(out []byte) (float64, error) {
			var sum float64
			for i := 0; ; i++ {
				v, err := tableCell(out, "opens", i)
				if err != nil {
					if i == 0 {
						return 0, err
					}
					return sum, nil
				}
				sum += v
			}
		},
		traced: func(tr *tracer, in *inputs) ([]byte, layerStats, error) {
			return tracedReplay(tr, in.files, caches)
		},
	}
}

// writeCapture runs cmd/tracegen for Section 4 trace configuration num
// and returns the per-server trace files it wrote into dir.
func writeCapture(o options, dir string, num int, hours float64) ([]string, error) {
	cmd := exec.Command(filepath.Join(o.bin, "tracegen"), "-trace", strconv.Itoa(num), "-hours", ftoa(hours), "-out", dir)
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("tracegen: %w\n%s", err, out)
	}
	paths, err := filepath.Glob(filepath.Join(dir, fmt.Sprintf("trace%d.srv*", num)))
	if err == nil && len(paths) == 0 {
		err = fmt.Errorf("tracegen wrote no trace%d.srv* files into %s", num, dir)
	}
	return paths, err
}

// decodeCapture reads the per-server files and merges them into one
// time-ordered record slice, as cmd/replay does before a sweep.
func decodeCapture(paths []string) ([]trace.Record, error) {
	var streams []trace.Stream
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r, err := trace.NewReader(bufio.NewReaderSize(f, 64<<10))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		streams = append(streams, r)
	}
	return trace.Collect(trace.Merge(streams...))
}

// tableCell returns the numeric cell in the named column of the row-th
// data row of the first table whose header has that column.
func tableCell(out []byte, column string, row int) (float64, error) {
	lines := strings.Split(string(out), "\n")
	for i, line := range lines {
		col := -1
		for j, h := range strings.Fields(line) {
			if h == column {
				col = j
			}
		}
		if col < 0 {
			continue
		}
		// Header, dashes, then data rows up to the blank line.
		at := i + 2 + row
		if at >= len(lines) {
			break
		}
		f := strings.Fields(lines[at])
		if len(f) <= col {
			break
		}
		return strconv.ParseFloat(f[col], 64)
	}
	return 0, fmt.Errorf("no row %d in a table with column %q", row, column)
}

// joinInts formats a comma-separated flag value.
func joinInts(xs []int) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = strconv.Itoa(x)
	}
	return strings.Join(s, ",")
}

// ftoa formats a float flag value.
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
