package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// workers is the goroutine count handed to the CLIs' parallel paths
// (-workers) and used by the traced sweep. It matches the 2-core hosts
// the benchmark was tuned on; the host line records the real core count
// so a parallel figure is always read against it.
const workers = 2

// hostLine records where and on what a run was measured: core count,
// GOMAXPROCS, Go version, the commit (when the build carried one), a
// digest of the program sources, the worker count and the seed.
func hostLine(o options, w *workload) string {
	return fmt.Sprintf("host: workload=%s seed=%d trace=%t nproc=%d GOMAXPROCS=%d go=%s commit=%s tree=%s workers=%d",
		w.name, o.seed, o.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(),
		commit(), treeDigest(o.root), workers)
}

// commit returns the VCS revision stamped into this binary, or "none"
// when it was built outside a repository.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "none"
}

// treeDigest hashes go.mod and every Go file under cmd/ and internal/, so
// two runs can be matched to the same program source even where the
// checkout carries no VCS metadata.
func treeDigest(root string) string {
	var files []string
	for _, dir := range []string{"cmd", "internal"} {
		_ = filepath.WalkDir(filepath.Join(root, dir), func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
				files = append(files, p)
			}
			return nil // an unreadable entry only weakens the digest
		})
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range append([]string{filepath.Join(root, "go.mod")}, files...) {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel+"\x00")
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}
