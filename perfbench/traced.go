package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"sync"
	"time"

	"spritefs/internal/analysis"
	"spritefs/internal/client"
	"spritefs/internal/cluster"
	"spritefs/internal/consistency"
	"spritefs/internal/core"
	"spritefs/internal/metrics"
	"spritefs/internal/replay"
	"spritefs/internal/scale"
	"spritefs/internal/sim"
	"spritefs/internal/trace"
)

// layerStats collects per-layer figures by metric name.
type layerStats map[string]float64

// layerMetric is one per-layer metric as declared in BENCHMARK.json.
type layerMetric struct{ name, unit string }

// perLayer lists every per-layer metric a traced run reports. A layer a
// workload does not exercise reports 0.
var perLayer = func() []layerMetric {
	m := []layerMetric{
		{"sim.events", "count"}, {"sim.ns_per_event", "ns"},
		{"scale.run_s", "s"}, {"scale.rounds", "count"}, {"scale.null_advances", "count"},
		{"scale.rescues", "count"}, {"scale.routed_msgs", "count"}, {"scale.msg_allocs", "count"},
		{"scale.ns_per_round", "ns"},
		{"metrics.instances", "count"}, {"scale.new_s", "s"}, {"scale.new_allocs", "count"},
		{"workload.programs", "count"}, {"workload.sessions", "count"},
		{"fscache.read_ops", "count"}, {"fscache.read_misses", "count"}, {"fscache.hit_ratio", "ratio"},
		{"fscache.replaced", "count"}, {"fscache.writeback_bytes", "bytes"},
		{"netsim.ops", "count"}, {"netsim.bytes", "bytes"},
		{"server.file_opens", "count"}, {"server.recalls", "count"}, {"server.disk_reads", "count"},
		{"vm.paged_in_bytes", "bytes"},
		{"trace.records", "count"}, {"trace.merge_s", "s"}, {"trace.decode_s", "s"},
		{"analysis.run_s", "s"}, {"analysis.records_per_s", "1/s"}, {"consistency.sim_s", "s"},
		{"cluster.new_s", "s"},
	}
	for n := 1; n <= 8; n++ {
		m = append(m, layerMetric{fmt.Sprintf("cluster.run_s.t%d", n), "s"})
	}
	m = append(m,
		layerMetric{"replay.run_s", "s"}, layerMetric{"replay.records_applied", "count"},
		layerMetric{"replay.records_per_s", "1/s"}, layerMetric{"replay.sweep_eff", "ratio"},
		layerMetric{"runtime.gc_cpu_frac", "ratio"}, layerMetric{"runtime.alloc_objects", "count"},
		layerMetric{"runtime.alloc_bytes", "bytes"}, layerMetric{"runtime.heap_peak_mb", "MB"},
		layerMetric{"bench.trace_overhead_s", "s"}, layerMetric{"bench.traced_wall_s", "s"},
		layerMetric{"bench.span_coverage", "ratio"},
	)
	for _, p := range append(append([]string(nil), cpuLayers...), "runtime", "other") {
		m = append(m, layerMetric{"cpu." + p, "ratio"})
	}
	return m
}()

// tracedRun produces the per-layer metrics. It first runs the untraced
// CLI for reference (output checked against want, and wall time), then
// repeats the same work in this process under the tracer and a CPU
// profile, and checks that the traced run printed exactly what the CLI
// printed.
func tracedRun(w *workload, o options, want []byte) (*result, error) {
	in, err := w.prepare(o)
	if err != nil {
		return nil, err
	}
	defer in.cleanup()
	runs := children(o, w, in, want, time.Duration(o.seconds*float64(time.Second)/2), 1)
	res := &result{Attempted: len(runs) + 1, Metrics: map[string]metric{}}
	var walls []float64
	for _, c := range runs {
		if c.err != nil {
			res.Failed++
			continue
		}
		walls = append(walls, c.wall.Seconds())
		if want == nil {
			want = c.stdout
		}
	}

	tr := newTracer(fmt.Sprintf("%s/seed=%d", w.name, o.seed))
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	peak := startHeapPeak()
	rt0 := readRuntime()
	out, ls, terr := w.traced(tr, in)
	wall := time.Since(tr.t0)
	rt1 := readRuntime()
	heapPeak := peak.stop()
	pprof.StopCPUProfile()

	switch {
	case terr != nil:
		fmt.Fprintln(os.Stderr, "perfbench: traced run failed:", terr)
		res.Failed++
	case want == nil:
		fmt.Fprintln(os.Stderr, "perfbench: traced run unchecked: no untraced run succeeded")
		res.Failed++
	default:
		if err := w.check(out, want); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: traced run differs from the CLI:", err)
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0
	if ls == nil {
		ls = layerStats{}
	}

	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	for k, v := range shares {
		ls["cpu."+k] = v
	}
	if ops := ls["fscache.read_ops"]; ops > 0 {
		ls["fscache.hit_ratio"] = 1 - ls["fscache.read_misses"]/ops
	}
	if cpu := (rt1.gcCPU - rt0.gcCPU) + (rt1.userCPU - rt0.userCPU); cpu > 0 {
		ls["runtime.gc_cpu_frac"] = (rt1.gcCPU - rt0.gcCPU) / cpu
	}
	ls["runtime.alloc_objects"] = float64(rt1.allocObjs - rt0.allocObjs)
	ls["runtime.alloc_bytes"] = float64(rt1.allocBytes - rt0.allocBytes)
	ls["runtime.heap_peak_mb"] = float64(heapPeak) / (1 << 20)
	ls["bench.traced_wall_s"] = wall.Seconds()
	if len(walls) > 0 {
		ls["bench.trace_overhead_s"] = wall.Seconds() - median(walls)
	}
	ls["bench.span_coverage"] = tr.coverage(wall)

	for _, m := range perLayer {
		res.Metrics[m.name] = metric{ls[m.name], m.unit}
	}

	// The span trace and the profile stay in the build directory for
	// chrome://tracing / Perfetto and go tool pprof.
	dir := filepath.Join(o.root, ".bench_build", "traces")
	base := filepath.Join(dir, fmt.Sprintf("%s.seed%d", w.name, o.seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := tr.writeChrome(base + ".trace.json"); err != nil {
		return nil, err
	}
	if err := os.WriteFile(base+".cpu.pprof", prof.Bytes(), 0o644); err != nil {
		return nil, err
	}
	fmt.Printf("traced: wall %.3fs, untraced %v, spans and profile in %s.*\n", wall.Seconds(), walls, base)
	return res, nil
}

// check compares a run's output with the expected one, after masking
// host-time fields.
func (w *workload) check(out, want []byte) error {
	if w.mask != nil {
		out, want = w.mask(out), w.mask(want)
	}
	if bytes.Equal(out, want) {
		return nil
	}
	line := 1 + bytes.Count(out[:commonPrefix(out, want)], []byte("\n"))
	return fmt.Errorf("%s: output differs from the expected output at line %d", w.name, line)
}

func commonPrefix(a, b []byte) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// simEvents reads a simulator's event sequence number: the count of
// events it has scheduled, each timer re-arm included. The program, not
// the benchmark, drives the clocks, and Sim exports no event count, so
// this reads the unexported field by reflection. A renamed or retyped
// field is an error, never a silent 0.
func simEvents(s *sim.Sim) (float64, error) {
	f := reflect.ValueOf(s).Elem().FieldByName("seq")
	if !f.IsValid() || f.Kind() != reflect.Uint64 {
		return 0, fmt.Errorf("sim.Sim has no uint64 field seq to count events with")
	}
	return float64(f.Uint()), nil
}

// addRegistry adds one run's component counters from its metric registry.
func addRegistry(ls layerStats, r *metrics.Registry) {
	sum := func(names ...string) float64 {
		var v int64
		for _, n := range names {
			v += r.SumInt(n)
		}
		return float64(v)
	}
	addWorkload(ls, r)
	ls["fscache.read_ops"] += sum("spritefs_cache_read_ops_total")
	ls["fscache.read_misses"] += sum("spritefs_cache_read_misses_total")
	ls["fscache.replaced"] += sum("spritefs_cache_replaced_file_total", "spritefs_cache_replaced_vm_total")
	ls["fscache.writeback_bytes"] += sum("spritefs_cache_writeback_bytes_total")
	ls["netsim.ops"] += sum("spritefs_net_ops_total")
	ls["netsim.bytes"] += sum("spritefs_net_bytes_total")
	ls["server.file_opens"] += sum("spritefs_server_file_opens_total")
	ls["server.recalls"] += sum("spritefs_server_recalls_total")
	ls["server.disk_reads"] += sum("spritefs_server_store_disk_reads_total")
	ls["vm.paged_in_bytes"] += sum("spritefs_vm_paged_in_bytes_total")
}

// addWorkload adds a registry's instance count and generator counters.
// A scale engine keeps these in each shard cluster's own registry, apart
// from the topology-wide one.
func addWorkload(ls layerStats, r *metrics.Registry) {
	ls["metrics.instances"] += float64(r.Len())
	ls["workload.programs"] += float64(r.SumInt("spritefs_workload_programs_total"))
	ls["workload.sessions"] += float64(r.SumInt("spritefs_workload_sessions_total"))
}

// tracedSection4 is cmd/experiments -exp section4: core.RunTrace for each
// trace, then core.TraceReport, with a span around every layer call.
func tracedSection4(tr *tracer, hours float64, traces []int) ([]byte, layerStats, error) {
	ls := layerStats{}
	horizon := time.Duration(hours * float64(time.Hour))
	var results []*core.TraceResult
	var runTotal time.Duration
	for _, n := range traces {
		top := tr.begin(fmt.Sprintf("trace t%d", n), 0, 0)
		var cl *cluster.Cluster
		ls["cluster.new_s"] += tr.do("cluster.New", top, 0, func() {
			cl = cluster.New(traceConfig(n))
		}).Seconds()

		run := tr.do("cluster.Run", top, 0, func() { cl.Run(horizon) })
		ls[fmt.Sprintf("cluster.run_s.t%d", n)] = run.Seconds()
		runTotal += run
		events, err := simEvents(cl.Sim)
		if err != nil {
			return nil, nil, err
		}
		ls["sim.events"] += events

		// Merge, analyze and simulate consistency exactly as core.RunTrace.
		var merged []trace.Record
		ls["trace.merge_s"] += tr.do("trace.Merge", top, 0, func() {
			merged, err = trace.Collect(trace.Merge(cl.PerServerStreams()...))
		}).Seconds()
		if err != nil {
			return nil, nil, err
		}
		res := &core.TraceResult{
			TraceNum: n, Hours: hours, Records: len(merged),
			Overall: analysis.NewOverall(), Activity: analysis.NewUserActivity(),
			Access: analysis.NewAccessPatterns(), Lifetime: analysis.NewLifetimes(),
			Actions: analysis.NewConsistencyActions(),
		}
		ls["trace.records"] += float64(len(merged))
		ls["analysis.run_s"] += tr.do("analysis.Run", top, 0, func() {
			err = analysis.Run(trace.NewSliceStream(merged),
				res.Overall, res.Activity, res.Access, res.Lifetime, res.Actions)
		}).Seconds()
		if err != nil {
			return nil, nil, err
		}
		ls["consistency.sim_s"] += tr.do("consistency.Simulate", top, 0, func() {
			shared := consistency.CollectShared(merged)
			res.Stale60 = consistency.SimulateStale(shared, 60*time.Second)
			res.Stale3 = consistency.SimulateStale(shared, 3*time.Second)
			res.Overhead = consistency.SimulateOverhead(shared)
		}).Seconds()
		addRegistry(ls, cl.Reg)
		tr.end(top)
		results = append(results, res)
	}
	var out string
	tr.do("core.TraceReport", 0, 0, func() { out = fmt.Sprintln(core.TraceReport(results)) })

	ls["sim.ns_per_event"] = perUnit(float64(runTotal.Nanoseconds()), ls["sim.events"])
	ls["analysis.records_per_s"] = perUnit(ls["trace.records"], ls["analysis.run_s"])
	return []byte(out), ls, nil
}

// tracedWAN is cmd/experiments -exp wanscale for one site count:
// scale.New, Engine.Run, Report and core.WANScaleTables.
func tracedWAN(tr *tracer, p wanParams, seed int64) ([]byte, layerStats, error) {
	ls := layerStats{}
	var eng *scale.Engine
	var err error
	id := tr.begin("scale.New", 0, 0)
	eng, err = scale.New(p.config(seed))
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	sp := tr.get(id)
	ls["scale.new_s"] = sp.dur().Seconds()
	ls["scale.new_allocs"] = float64(sp.allocObjs)

	var st scale.RunStats
	run := tr.do("scale.Engine.Run", 0, 0, func() {
		st = eng.Run(scale.RunOptions{
			Horizon:  time.Duration(p.hours * float64(time.Hour)),
			Parallel: p.segments > 1,
			Workers:  workers,
		})
	})
	var rep scale.Report
	tr.do("scale.Engine.Report", 0, 0, func() { rep = eng.Report() })
	var out string
	tr.do("core.WANScaleTables", 0, 0, func() {
		out = fmt.Sprintln(core.WANScaleTables(&core.WANScaleResult{
			Clients: p.clients, Segments: p.segments, Hours: p.hours,
			Rows: []core.WANScaleRow{{Sites: p.sites, Report: rep, Stats: st}},
		}))
	})

	for _, sh := range eng.Shards {
		events, err := simEvents(sh.C.Sim)
		if err != nil {
			return nil, nil, err
		}
		ls["sim.events"] += events
		addWorkload(ls, sh.C.Reg)
	}
	ls["sim.ns_per_event"] = perUnit(float64(run.Nanoseconds()), ls["sim.events"])
	ls["scale.run_s"] = run.Seconds()
	ls["scale.rounds"] = float64(st.Exec.Rounds)
	ls["scale.null_advances"] = float64(st.Exec.NullAdvances)
	ls["scale.rescues"] = float64(st.Exec.Rescues)
	ls["scale.routed_msgs"] = float64(st.Exec.Routed)
	ls["scale.msg_allocs"] = float64(st.Exec.MsgAllocs)
	ls["scale.ns_per_round"] = perUnit(float64(run.Nanoseconds()), ls["scale.rounds"])
	addRegistry(ls, eng.Reg)
	return []byte(out), ls, nil
}

// sweepConfigs is the configuration list cmd/replay builds for
// -sweep cache=<pages,...> with every other flag at its default.
func sweepConfigs(caches []int) []replay.Config {
	base := replay.Config{
		Name:         "base",
		NumServers:   4,
		Seed:         1,
		PollInterval: 3 * time.Second,
		Consistency:  client.ConsistencySprite,
		Speed:        1,
	}
	cfgs := make([]replay.Config, len(caches))
	for i, pages := range caches {
		c := base
		c.FixedCachePages = pages
		c.Name = fmt.Sprintf("cache=%d", pages)
		cfgs[i] = c
	}
	return cfgs
}

// tracedReplay is cmd/replay -sweep: decode and merge the capture, replay
// it once per configuration over the worker pool, render the sweep table.
func tracedReplay(tr *tracer, files []string, caches []int) ([]byte, layerStats, error) {
	ls := layerStats{}
	var recs []trace.Record
	var err error
	ls["trace.decode_s"] = tr.do("trace.decode", 0, 0, func() { recs, err = decodeCapture(files) }).Seconds()
	if err != nil {
		return nil, nil, err
	}
	ls["trace.records"] = float64(len(recs))

	cfgs := sweepConfigs(caches)
	results := make([]*replay.Result, len(cfgs))
	errs := make([]error, len(cfgs))
	busy := make([]time.Duration, len(cfgs))
	events := make([]float64, len(cfgs))
	evErrs := make([]error, len(cfgs))
	pool := min(workers, len(cfgs))
	sweep := tr.begin("replay.sweep", 0, 0)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 1; w <= pool; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := range jobs {
				busy[i] = tr.do("replay.Run "+cfgs[i].Name, sweep, tid, func() {
					e := replay.New(cfgs[i])
					results[i], errs[i] = e.Run(trace.NewSliceStream(recs))
					events[i], evErrs[i] = simEvents(e.Sim)
				})
			}
		}(w)
	}
	for i := range cfgs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	tr.end(sweep)
	for i, err := range errs {
		if err == nil {
			err = evErrs[i]
		}
		if err != nil {
			return nil, nil, fmt.Errorf("replay %q: %w", cfgs[i].Name, err)
		}
	}
	var out string
	tr.do("replay.SweepTable", 0, 0, func() { out = fmt.Sprintln(replay.SweepTable(results)) })

	var runTotal time.Duration
	for i, r := range results {
		runTotal += busy[i]
		ls["sim.events"] += events[i]
		ls["replay.records_applied"] += float64(r.Stats.Applied)
		addRegistry(ls, r.Metrics.Registry())
	}
	ls["replay.run_s"] = runTotal.Seconds()
	ls["replay.records_per_s"] = perUnit(ls["replay.records_applied"], runTotal.Seconds())
	ls["replay.sweep_eff"] = perUnit(runTotal.Seconds(), float64(pool)*tr.get(sweep).dur().Seconds())
	ls["sim.ns_per_event"] = perUnit(float64(runTotal.Nanoseconds()), ls["sim.events"])
	return []byte(out), ls, nil
}

// perUnit divides, reading 0 for an empty denominator.
func perUnit(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
