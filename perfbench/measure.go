package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// childTimeout bounds one CLI child; the longest (section4) takes about
// 15 s on a 2-core host.
const childTimeout = 150 * time.Second

// child is one finished CLI run.
type child struct {
	wall   time.Duration
	rssMB  float64
	stdout []byte
	err    error // non-zero exit, timeout or failed output check
}

// runChild starts the workload's CLI as a child of this process, waits
// for it and records its wall time and peak RSS.
func runChild(o options, w *workload, in *inputs) child {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	bin, args := w.command(in)
	cmd := exec.CommandContext(ctx, filepath.Join(o.bin, bin), args...)
	cmd.Dir = o.root
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	c := child{wall: time.Since(start), stdout: stdout.Bytes()}
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			c.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	if err != nil {
		tail := stderr.Bytes()
		if len(tail) > 2000 {
			tail = tail[len(tail)-2000:]
		}
		c.err = fmt.Errorf("%s %v: %w\n%s", bin, args, err, tail)
	}
	return c
}

// children runs CLI children one after another until budget has elapsed
// (and at least min have run), checking each output against want, or
// against the first child's output when want is nil.
func children(o options, w *workload, in *inputs, want []byte, budget time.Duration, min int) []child {
	var out []child
	start := time.Now()
	for len(out) < min || time.Since(start) < budget {
		c := runChild(o, w, in)
		if c.err == nil {
			if want == nil {
				want = c.stdout
			}
			c.err = w.check(c.stdout, want)
		}
		if c.err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: run failed:", c.err)
		}
		out = append(out, c)
	}
	return out
}

// reference returns the output every child must reproduce: the
// workload's reference where the inputs are the default ones, else nil
// where only run-to-run identity is checked.
func reference(o options, w *workload) ([]byte, error) {
	if o.quick || w.seeded && o.seed != 0 {
		return nil, nil
	}
	return os.ReadFile(filepath.Join(o.root, w.reference))
}

// timedRun measures the end-to-end metrics: wall time, throughput and
// peak RSS of fresh CLI children checked against want, then set-up time
// in this process.
func timedRun(w *workload, o options, want []byte) (*result, error) {
	in, err := w.prepare(o)
	if err != nil {
		return nil, err
	}
	defer in.cleanup()

	// The children run first, while this process is still small: a child
	// starts out sharing this process's memory, so Linux counts this
	// process's peak RSS so far into the child's. At least three
	// children, so the median sets aside one child slowed by the host.
	runs := children(o, w, in, want, time.Duration(o.seconds*float64(time.Second)), 3)

	setups, err := timeSetup(w, in)
	if err != nil {
		return nil, err
	}

	res := &result{Attempted: len(runs), Metrics: map[string]metric{}}
	var walls, rss []float64
	var opens float64
	for _, c := range runs {
		if c.err != nil {
			res.Failed++
			continue
		}
		walls = append(walls, c.wall.Seconds())
		rss = append(rss, c.rssMB)
		if opens == 0 {
			if opens, err = w.opens(c.stdout); err != nil {
				return nil, err
			}
		}
	}
	res.Correct = res.Failed == 0
	if len(walls) == 0 {
		// Every child failed: report their times so the line stays
		// well-formed; correct=false and failed carry the verdict.
		for _, c := range runs {
			walls = append(walls, c.wall.Seconds())
			rss = append(rss, c.rssMB)
		}
	}
	wall := median(walls)
	res.Metrics["wall_s"] = metric{wall, "s"}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["opens_per_s"] = metric{opens / wall, "1/s"}
	res.Metrics["peak_rss_mb"] = metric{median(rss), "MB"}
	fmt.Printf("children: %d, wall_s %v, peak_rss_mb %v, setup_s %v\n", len(runs), walls, rss, setups)
	return res, nil
}

// timeSetup times the workload's set-up w.setupReps times, each time as
// the mean of w.setupBatch set-ups. Each repetition starts from a
// collected heap and runs with the collector off, so a collection cycle
// that lands in one repetition and not in another does not spread the
// figures.
func timeSetup(w *workload, in *inputs) ([]float64, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	setups := make([]float64, 0, w.setupReps)
	for i := 0; i < w.setupReps; i++ {
		runtime.GC()
		var sum time.Duration
		for j := 0; j < w.setupBatch; j++ {
			d, err := w.setup(in)
			if err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			sum += d
		}
		setups = append(setups, sum.Seconds()/float64(w.setupBatch))
	}
	runtime.GC()
	return setups, nil
}
