#!/usr/bin/env bash
# Builds perfbench and the CLIs it runs (cmd/experiments, cmd/replay
# and cmd/tracegen) from the tree under test, then runs perfbench with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload section4 --seed 0 --seconds 20 --trace 0
#
# Every build product, cache and scratch file stays under .bench_build/
# in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off
mkdir -p "$GOCACHE" "$GOTMPDIR" "$out/bin"

[ -f "$root/go.mod" ] || { echo "perfbench: no go.mod in $root; run from the repository root" >&2; exit 2; }
go build -o "$out/bin/" ./cmd/experiments ./cmd/replay ./cmd/tracegen
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" -bin "$out/bin" "$@"
