# Convenience targets for the spritefs reproduction.

GO ?= go

.PHONY: all check build vet pkgdoc metricscheck docs test race faults faultsmoke scalecheck allocscheck soaksmoke importcheck bench benchcheck benchbaseline benchall profile experiments experiments-diff section4 section5 clean

all: check

# The gate every change must pass: compile, static checks, package-doc
# and metrics-doc drift gates, tests, the race detector over the full
# module, the fault-injection suite (twice under race, plus a
# randomized-schedule smoke with a fixed seed), the parallel-executor
# byte-identity gate, the steady-state allocation gates, the
# live-service smoke (a real 5-second wall-clock soak with a mid-run
# /metrics scrape), the trace-import gate (golden imports, round-trips
# and worker-invariant replay of foreign traces, plus the runnable
# pipeline example), and the perf-regression gate against the committed
# benchmark baselines.
check: build vet pkgdoc metricscheck test race faults faultsmoke scalecheck allocscheck soaksmoke importcheck benchcheck

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	@if $(GO) vet -vettool=$$(command -v shadow) ./internal/faults/... 2>/dev/null; then \
		echo "shadow: ok"; \
	else \
		echo "shadow: tool not installed, skipping"; \
	fi

# Every package must carry a package comment (go doc has something to
# say about every import path in the module).
pkgdoc:
	@missing=$$($(GO) list -f '{{if not .Doc}}{{.ImportPath}}{{end}}' ./...); \
	if [ -n "$$missing" ]; then \
		echo "packages missing a package comment:"; \
		echo "$$missing"; \
		exit 1; \
	fi; \
	echo "pkgdoc: every package documented"

# docs/METRICS.md is generated from the metric registry; fail if it has
# drifted from the code (regenerate with `go run ./cmd/metricsdoc`).
metricscheck:
	$(GO) run ./cmd/metricsdoc -check

# Regenerate the generated documentation and vet the hand-written kind:
# rewrite docs/METRICS.md from the registry, then require every package
# to carry a package comment.
docs: pkgdoc
	$(GO) run ./cmd/metricsdoc

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The crash-recovery subsystem, twice under the race detector: the fault
# hook and recovery sweeps are exactly the code where a latent data race
# would corrupt the determinism guarantees.
faults:
	$(GO) test -race -count=2 ./internal/faults/...

# Quick randomized-schedule audit with a pinned seed (15 schedules in
# -short mode; the full 100-schedule run happens under `make test`).
faultsmoke:
	$(GO) test -short -run TestFaultSchedules ./internal/faults/check -faultseed 7

# The parallel-vs-sequential byte-identity gate: the channel-clock
# executor must produce identical reports and metric dumps at 1, 4 and 8
# workers, under the race detector (TestParallelMatchesSequential runs
# all three worker counts as subtests, and TestDetermFuzzSmoke replays
# the fuzz corpus's smallest seed at the same worker counts).
scalecheck:
	$(GO) test -race -run 'TestParallelMatchesSequential|TestDeterministicAcrossRuns|TestDetermFuzzSmoke' -count=1 ./internal/scale

# The allocation-regression gate: testing.AllocsPerRun pins the
# scheduler's After/Every steady state, the netsim RPC round-trip, the
# fscache cleaner sweep (dirty-set walk plus scratch-buffer reuse) and
# the metrics labeled-counter increment-and-sum path at exactly zero
# allocations per operation, the metrics registration gate holds 10,000
# instance registrations under 0.05 allocations each (only column and
# label-trie growth may allocate), and the scale pool tests pin the
# executor's message recycling (a warm-seeded run allocates zero
# messages), which is what keeps the benchmarks' allocs/op at steady
# state.
allocscheck:
	$(GO) test -run 'ZeroAlloc|RegistrationAllocs' -count=1 ./internal/sim ./internal/netsim ./internal/fscache ./internal/metrics
	$(GO) test -run 'TestMessagePoolSteadyState|TestDrainMessagePoolsEmpties' -count=1 ./internal/scale

# The live-service gate: a 2-second in-package mini-soak under the race
# detector (the wall-clock dispatcher, agent fleet and live exporter are
# exactly the concurrent code), then a real 5-second `serve` run — 8
# agents, a mid-soak /metrics scrape, clean exit, non-empty report.
soaksmoke:
	$(GO) test -race -run TestLiveSoakShort -count=1 ./internal/live
	$(GO) test -run TestSoakSmoke -count=1 ./cmd/serve

# The trace-import gate: the golden import (a committed text rendering
# of the sample CSV pipeline), the worker-invariance acceptance test
# (imported-then-modernized traces replay byte-identically at 1/2/4/8
# workers), the importer determinism tests, a pass over the fuzz seed
# corpora, and the runnable end-to-end example.
importcheck:
	$(GO) test -run 'TestImportGolden|TestImportedTrace|TestImportCSVDeterministic|TestModernizeDeterministic' -count=1 ./internal/traceio
	$(GO) test -run '^$$' -fuzz FuzzImportCSV -fuzztime 1x ./internal/traceio
	$(GO) test -run '^$$' -fuzz FuzzImportStrace -fuzztime 1x ./internal/traceio
	$(GO) run ./examples/trace-import >/dev/null
	@echo "importcheck: ok"

# The scale and recovery macro benchmarks, with machine-readable output:
# BENCH_scale.json records name, ns/op, allocs, clients, shards and
# workers per benchmark plus two derived wall-clock speedups — the
# shards=8-over-shards=1 sharding payoff and the workers=8-over-workers=1
# multi-core payoff of the channel-clock executor — and, via the
# BenchmarkWANScale sites sweep (sites=/segs= labels), the cost of
# hierarchical tier pricing vs the flat topology — and a vs_baseline
# section against the committed BENCH_scale_baseline.json. Each run also
# appends one line to the BENCH_history.jsonl perf log. The second block
# runs the simulation-core micro benchmarks and the sharded-replay macro
# benchmark and writes BENCH_simcore.json, including a vs_baseline
# section against the committed pre-optimization numbers.
bench:
	$(GO) test -bench='BenchmarkScaleEngine|BenchmarkScaleWorkers|BenchmarkWANScale$$|BenchmarkScaleBarrier|BenchmarkRecoveryStorm' -benchmem -benchtime=1x -count=3 -run '^$$' \
		./internal/scale ./internal/faults/check | tee bench_output.txt
	$(GO) run ./cmd/benchjson -in bench_output.txt -baseline BENCH_scale_baseline.json -history BENCH_history.jsonl -o BENCH_scale.json
	$(GO) test -bench='BenchmarkEventThroughput|BenchmarkHeapChurn|BenchmarkSimCore' -benchmem -run '^$$' \
		./internal/sim | tee bench_simcore_output.txt
	$(GO) test -bench=BenchmarkShardedReplay -benchmem -benchtime=1x -run '^$$' \
		./internal/replay | tee -a bench_simcore_output.txt
	$(GO) run ./cmd/benchjson -in bench_simcore_output.txt -baseline BENCH_simcore_baseline.json -o BENCH_simcore.json
	$(GO) run ./cmd/serve -clients 8 -rate 100 -duration 5s -bench-json BENCH_live.json

# Shared recipe for the perf-regression gate: a quick benchstat-style
# sweep (median of -count runs) over the executor-dominated scale
# benchmark and the simulation-core micro benchmarks.
define BENCHCHECK_RUN
	$(GO) test -bench='BenchmarkScaleBarrier|BenchmarkWANScaleQuick' -benchmem -benchtime=3x -count=5 -run '^$$' \
		./internal/scale | tee benchcheck_output.txt
	$(GO) test -bench='BenchmarkEventThroughput|BenchmarkHeapChurn|BenchmarkSimCore$$' -benchmem -benchtime=0.3s -count=3 -run '^$$' \
		./internal/sim | tee -a benchcheck_output.txt
endef

# The perf-regression gate: rerun the quick benchmark sweep and fail if
# any median ns/op regresses more than 15% against the committed
# BENCH_check_baseline.json, or any allocs/op grows more than 25% (the
# -allocgate ratio is baseline-over-current; allocation counts are
# deterministic at steady state, so the alloc gate has no significance
# test). Each run appends a line to BENCH_history.jsonl. Refresh the
# baseline with `make benchbaseline` after an intentional perf change
# (on the machine that enforces the gate — baselines are host-specific).
benchcheck:
	$(BENCHCHECK_RUN)
	$(GO) run ./cmd/benchjson -in benchcheck_output.txt -baseline BENCH_check_baseline.json -gate 0.85 -allocgate 0.8 -history BENCH_history.jsonl -o BENCH_check.json

# Re-baseline the perf gate from the current tree.
benchbaseline:
	$(BENCHCHECK_RUN)
	$(GO) run ./cmd/benchjson -in benchcheck_output.txt -o BENCH_check_baseline.json

# One iteration of every table/figure benchmark (reduced scale).
benchall:
	$(GO) test -bench=. -benchmem -benchtime=1x ./...

# CPU and heap profiles of the execution-dominated macro benchmark, plus
# pprof -top snapshots, under profiles/ — the raw material for the
# docs/PERFORMANCE.md hot-path tables. The profile run uses the largest
# single-shard-free configuration (clients=1000/shards=8) so the sweep,
# workload and metrics hot paths dominate rather than the coordinator.
profile:
	mkdir -p profiles
	$(GO) test -bench='BenchmarkScaleEngine/clients=1000/shards=8$$' -benchtime=1x -run '^$$' \
		-cpuprofile profiles/scale_cpu.out -memprofile profiles/scale_mem.out \
		-o profiles/scale.test ./internal/scale
	$(GO) tool pprof -top -nodecount 25 profiles/scale.test profiles/scale_cpu.out | tee profiles/scale_cpu_top.txt
	$(GO) tool pprof -top -nodecount 25 -sample_index=alloc_objects profiles/scale.test profiles/scale_mem.out | tee profiles/scale_alloc_top.txt

# Full-scale regeneration of the paper's evaluation, then a diff against
# the committed results: determinism means any difference is a real
# behaviour change, not noise.
experiments: section4 section5 experiments-diff

experiments-diff:
	@git --no-pager diff --exit-code results_section4.txt results_section5.txt \
		&& echo "experiments: results match the committed files" \
		|| { echo "experiments: results drifted from the committed files (see diff above)"; exit 1; }

section4:
	$(GO) run ./cmd/experiments -exp section4 -hours 24 | tee results_section4.txt

section5:
	$(GO) run ./cmd/experiments -exp section5 -days 2 | tee results_section5.txt

clean:
	rm -f results_section4.txt results_section5.txt test_output.txt bench_output.txt bench_simcore_output.txt benchcheck_output.txt BENCH_check.json
