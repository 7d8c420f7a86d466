package replay

import (
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"spritefs/internal/faults"
	"spritefs/internal/trace"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_replay.txt from this run")

// TestReplayGolden pins the absolute output of replaying the package's
// captured trace three ways: the default configuration (bookkeeping,
// report tables and the full metric dump), a schedule that crashes a
// server and a traced client and partitions another, and a 3-shard
// partitioned replay. Any change to how replay assembles or drives the
// component stack — event ordering, daemon scheduling, client
// materialization — shows up here byte for byte.
func TestReplayGolden(t *testing.T) {
	live := capturedTrace(t)
	var b strings.Builder

	res, err := Run(replayCfg("golden"), trace.NewSliceStream(live.recs))
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString("== default ==\n")
	writeTables(&b, res)
	var prom strings.Builder
	if err := res.Metrics.Registry().Dump(&prom, "prom"); err != nil {
		t.Fatal(err)
	}
	b.WriteString(sortedModelLines(prom.String()))

	cfg := replayCfg("golden-faults")
	cfg.Faults, err = faults.Parse("server-crash:0@40m/30s,client-crash:3@50m,partition:5@70m/20s")
	if err != nil {
		t.Fatal(err)
	}
	res, err = Run(cfg, trace.NewSliceStream(live.recs))
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString("== faults ==\n")
	writeTables(&b, res)

	sharded, err := RunSharded(live.recs, replayCfg("golden"), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString("== sharded ==\n")
	b.WriteString(ShardedTable(sharded).String())
	b.WriteString("\n")

	got := b.String()
	path := filepath.Join("testdata", "golden_replay.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update-golden): %v", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < min(len(gl), len(wl)); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("replay output drifted at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("replay output drifted: line counts differ (got %d, want %d)", len(gl), len(wl))
}

// writeTables renders one result's bookkeeping and report tables.
func writeTables(b *strings.Builder, r *Result) {
	b.WriteString(ReplayTable(r).String())
	b.WriteString("\n")
	for _, t := range ReportTables(&r.Report) {
		b.WriteString(t.String())
		b.WriteString("\n")
	}
}

// sortedModelLines sorts a prom dump's lines and drops the spritefs_sim_*
// scheduler gauges, as the cluster golden test does: they describe the
// event queue, not the simulated file system.
func sortedModelLines(dump string) string {
	var lines []string
	for _, line := range strings.Split(strings.TrimSuffix(dump, "\n"), "\n") {
		if !strings.Contains(line, "spritefs_sim_") {
			lines = append(lines, line)
		}
	}
	slices.Sort(lines)
	return strings.Join(lines, "\n") + "\n"
}
