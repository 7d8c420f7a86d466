package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"
)

var (
	toolsOnce sync.Once
	toolsDir  string
	toolsErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if toolsDir != "" {
		os.RemoveAll(toolsDir)
	}
	os.Exit(code)
}

type buildError struct {
	args []string
	out  []byte
	err  error
}

func (e *buildError) Error() string { return fmt.Sprintf("go %v: %v\n%s", e.args, e.err, e.out) }

// buildTools builds perfbench and the CLIs it runs into a
// temporary directory, once per test binary.
func buildTools(t *testing.T) string {
	t.Helper()
	toolsOnce.Do(func() {
		dir, err := os.MkdirTemp("", "perfbench-bin-")
		if err != nil {
			toolsErr = err
			return
		}
		toolsDir = dir
		for _, args := range [][]string{
			{"build", "-o", dir + "/", "spritefs/cmd/experiments", "spritefs/cmd/replay", "spritefs/cmd/tracegen"},
			{"build", "-o", filepath.Join(dir, "perfbench"), "."},
		} {
			if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
				toolsErr = &buildError{args, out, err}
				return
			}
		}
	})
	if toolsErr != nil {
		t.Fatal(toolsErr)
	}
	return toolsDir
}

// benchFile is the part of BENCHMARK.json the self-test checks.
type benchFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Workload []struct{ Name string }       `json:"workloads"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// runBench runs the perfbench binary and decodes its last output line.
func runBench(t *testing.T, bin string, args ...string) result {
	t.Helper()
	cmd := exec.Command(filepath.Join(bin, "perfbench"), append([]string{"-bin", bin, "-root", t.TempDir()}, args...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("perfbench %v: %v\n%s", args, err, stderr.Bytes())
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return r
}

// TestQuickRuns runs every workload once at a tiny size, timed and traced,
// and checks that every metric BENCHMARK.json names is reported with its
// unit and a finite value, that the CPU shares sum to 1 and that the
// top-level spans cover the traced run.
func TestQuickRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLIs and runs every workload")
	}
	bin := buildTools(t)
	b := readBenchFile(t)
	if len(b.Workload) != len(workloadNames()) {
		t.Fatalf("BENCHMARK.json lists %d workloads, perfbench %d", len(b.Workload), len(workloadNames()))
	}
	for _, w := range b.Workload {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace="+trace, func(t *testing.T) {
				r := runBench(t, bin, "-quick", "-workload", w.Name, "-seed", "5", "-seconds", "0.01", "-trace", trace)
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
				}
				want := b.EndToEnd
				if trace == "1" {
					want = b.PerLayer
				}
				if len(r.Metrics) != len(want) {
					t.Errorf("%d metrics reported, BENCHMARK.json names %d", len(r.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := r.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s = %v", m.Name, got.Value)
					}
				}
				if trace == "0" {
					for _, m := range b.EndToEnd {
						if r.Metrics[m.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, r.Metrics[m.Name].Value)
						}
					}
					return
				}
				var sum float64
				for name, m := range r.Metrics {
					if strings.HasPrefix(name, "cpu.") {
						sum += m.Value
					}
				}
				if math.Abs(sum-1) > 1e-9 {
					t.Errorf("cpu.* shares sum to %v, want 1", sum)
				}
				if e := r.Metrics["sim.events"].Value; e <= 0 {
					t.Errorf("sim.events = %v, want > 0", e)
				}
				if c := r.Metrics["bench.span_coverage"].Value; c < 0.95 {
					t.Errorf("top-level spans cover %.3f of the traced run, want >= 0.95", c)
				}
			})
		}
	}
}

// TestCorruptReferenceFails checks that a run whose output differs from
// the expected output by a single digit counts as failed, while the true
// output passes, timed and traced.
func TestCorruptReferenceFails(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLIs")
	}
	o := options{workload: "section4", seed: 5, seconds: 0.01, root: t.TempDir(), bin: buildTools(t), quick: true}
	w := lookupWorkload(o.workload, o.quick)
	in, err := w.prepare(o)
	if err != nil {
		t.Fatal(err)
	}
	name, args := w.command(in)
	good, err := exec.Command(filepath.Join(o.bin, name), args...).Output()
	if err != nil {
		t.Fatal(err)
	}
	bad := corrupt(t, good)
	for _, mode := range []struct {
		name string
		run  func(*workload, options, []byte) (*result, error)
	}{{"timed", timedRun}, {"traced", tracedRun}} {
		r, err := mode.run(w, o, good)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Correct || r.Failed != 0 {
			t.Errorf("%s, true output: correct=%v failed=%d", mode.name, r.Correct, r.Failed)
		}
		if r, err = mode.run(w, o, bad); err != nil {
			t.Fatal(err)
		}
		if r.Correct || r.Failed != r.Attempted {
			t.Errorf("%s, corrupted output: correct=%v attempted=%d failed=%d, want every run failed",
				mode.name, r.Correct, r.Attempted, r.Failed)
		}
	}
}

// corrupt changes the first digit of the output's Open events row.
func corrupt(t *testing.T, out []byte) []byte {
	t.Helper()
	i := bytes.Index(out, []byte("Open events"))
	if i < 0 {
		t.Fatal("no Open events row")
	}
	bad := append([]byte(nil), out...)
	for j := i; j < len(bad); j++ {
		if c := bad[j]; c >= '0' && c <= '9' {
			bad[j] = '0' + (c-'0'+1)%10
			return bad
		}
	}
	t.Fatal("no digit in the Open events row")
	return nil
}

// TestReferenceChecks runs the output check on the committed references:
// each passes against itself, fails with one digit changed, and the
// wan-scale check ignores only the host wall-clock column.
func TestReferenceChecks(t *testing.T) {
	for _, name := range workloadNames() {
		w := lookupWorkload(name, false)
		ref, err := os.ReadFile(filepath.Join("..", w.reference))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.check(ref, ref); err != nil {
			t.Errorf("%s: reference does not match itself: %v", name, err)
		}
		if _, err := w.opens(ref); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		bad := append([]byte(nil), ref...)
		i := bytes.IndexAny(bad, "123456789")
		bad[i] = '0'
		if w.check(bad, ref) == nil {
			t.Errorf("%s: a changed digit passed the check", name)
		}
	}
	w := lookupWorkload("wan-scale", false)
	ref, err := os.ReadFile(filepath.Join("..", w.reference))
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.LastIndex(ref, []byte("s\n\nWall-clock"))
	j := bytes.LastIndexByte(ref[:i], ' ')
	slower := append(append(append([]byte(nil), ref[:j+1]...), "12.345"...), ref[i:]...)
	if err := w.check(slower, ref); err != nil {
		t.Errorf("a different host wall-clock failed the check: %v", err)
	}
	if err := w.check(bytes.Replace(slower, []byte("297.31"), []byte("297.32"), 1), ref); err == nil {
		t.Error("a changed opens/s passed the check")
	}
}

// TestCPUShares profiles a busy loop and checks the profile decodes into
// shares that sum to 1.
func TestCPUShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	x := 0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		x += len(strings.Repeat("a", 64))
	}
	pprof.StopCPUProfile()
	sink = x
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 || len(shares) == 0 {
		t.Errorf("shares %v sum to %v", shares, sum)
	}
}

func TestCPUBucket(t *testing.T) {
	for fn, want := range map[string]string{
		"spritefs/internal/fscache.(*Cache).Read":      "fscache",
		"spritefs/internal/sim.(*wheel).scanList":      "sim",
		"spritefs/internal/faults/check.Run":           "other",
		"runtime.mallocgc":                             "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall": "runtime",
		"slices.SortFunc[...]":                         "other",
		"":                                             "other",
	} {
		if got := cpuBucket(fn); got != want {
			t.Errorf("cpuBucket(%q) = %q, want %q", fn, got, want)
		}
	}
}

var sink int
