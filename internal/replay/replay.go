// Package replay re-executes captured trace streams against the cluster's
// client caches, servers and consistency machinery — the trace-driven
// methodology of the paper's Section 5 simulations, which evaluated
// cache-consistency alternatives by feeding kernel traces through cache
// models rather than re-running the user community.
//
// The engine consumes a time-ordered trace.Record stream (binary or text,
// merged across per-server files with trace.Merge) and replaces the
// generative workload as the event source on the deterministic sim event
// loop: every open/read/write/close/seek/create/delete/truncate is issued
// to a real client kernel, flowing through the block cache, the shared
// network, the servers and the consistency coordinator exactly as live
// traffic does. Because the components and their counters are the same,
// a replay produces a cluster.Report of identical shape to a live run, so
// all downstream tables work unchanged.
//
// What replay cannot reproduce is traffic the paper's tracing never
// logged: virtual-memory paging and the resident system processes. Their
// absence perturbs cache contents slightly, which is why replayed
// cache-hit ratios match live runs within a small tolerance rather than
// exactly (the fidelity tests document the bound); record-level quantities
// — opens, application bytes presented, write-sharing events — match
// exactly.
package replay

import (
	"errors"
	"io"
	"slices"
	"time"

	"spritefs/internal/client"
	"spritefs/internal/cluster"
	"spritefs/internal/faults"
	"spritefs/internal/fscache"
	"spritefs/internal/metrics"
	"spritefs/internal/netsim"
	"spritefs/internal/server"
	"spritefs/internal/sim"
	"spritefs/internal/trace"
	"spritefs/internal/vm"
)

// Config selects one replay experiment: the cluster shape the trace is
// replayed against plus the replay controls (time scaling, filtering).
// The zero value replays at recorded speed against the paper's defaults.
type Config struct {
	// Name labels the configuration in sweep reports.
	Name string
	// NumServers is the number of file servers (default 4, as the paper).
	// Traces referencing higher server indices fall back to server 0, the
	// same clamp the live cluster applies.
	NumServers int
	// Speed is the virtual-time scale: 2 replays the trace at twice the
	// recorded rate (inter-record gaps halved), stressing the fixed-period
	// machinery (30-second delayed writes, cleaner daemons, poll windows)
	// with denser traffic. Zero or negative defaults to 1 (recorded speed).
	Speed float64
	// AsFastAsPossible ignores record timestamps entirely: records apply
	// back-to-back with virtual time frozen at the start, so time-dependent
	// daemons only run in the final drain. Use it for pure reference-string
	// experiments where timing fidelity does not matter.
	AsFastAsPossible bool
	// Seed seeds the engine's simulator (replay itself draws no random
	// numbers; the seed exists so latency models that jitter in the future
	// stay reproducible).
	Seed int64
	// SamplePeriod enables the Table 4 cache-size sampler (zero disables).
	SamplePeriod time.Duration
	// MemoryPagesPerClient overrides the default 24 MB workstations. When
	// zero, every third client gets 32 MB — the same mix the live cluster
	// builds, so replayed cache sizing matches.
	MemoryPagesPerClient int
	// FixedCachePages pins every client cache at a constant size.
	FixedCachePages int
	// WritebackDelay overrides the 30-second delayed-write interval.
	WritebackDelay time.Duration
	// PrefetchBlocks enables sequential prefetch of that many blocks.
	PrefetchBlocks int
	// Consistency selects the cache-consistency scheme under replay —
	// the knob the paper's Section 5.5 trace simulations existed to turn.
	Consistency client.ConsistencyMode
	// PollInterval is the validity window under ConsistencyPoll.
	PollInterval time.Duration
	// Keep, when set, drops records for which it returns false (after the
	// engine's own scrub of self-trace records). Use KeepClients /
	// KeepServers / KeepKinds / And to build filters.
	Keep func(*trace.Record) bool
	// Faults injects crashes, partitions and network perturbations into
	// the replay on the virtual clock — replaying the same trace with and
	// without a mid-run server crash isolates exactly what the fault cost.
	Faults faults.Schedule
	// MetricsSample enables the registry time-series sampler at this
	// interval on the virtual clock (zero disables); the collected series
	// are on Engine.MetricSampler after Run.
	MetricsSample time.Duration
	// MetricsSampleCap bounds the sampler ring in rows; zero = default.
	MetricsSampleCap int
	// MetricsMatch restricts sampling to families for which it returns
	// true; nil samples every non-summary family.
	MetricsMatch func(name string) bool
}

// Stats counts what the engine did with the stream.
type Stats struct {
	Read          int64 // records pulled from the stream
	Applied       int64 // records re-executed
	Filtered      int64 // dropped by Config.Keep
	Scrubbed      int64 // self-trace or clientless records dropped
	UnknownHandle int64 // ops referencing a handle with no replayed open
	Errors        int64 // open/close errors tolerated and skipped
	Bootstrapped  int64 // files materialized on first reference
	Creates       int64 // creations replayed
	Migrations    int64 // migration markers (no file-system effect)
}

// Result is one replay's outcome: the bookkeeping counters and the full
// counter-table report, shaped exactly like a live cluster's.
type Result struct {
	Config  Config
	Stats   Stats
	Report  cluster.Report
	Faults  faults.Stats  // what the schedule injected (zero when empty)
	Horizon time.Duration // virtual time of the last applied record
	End     time.Duration // virtual time after the drain
	// Metrics is the counter view (with its central registry) the report
	// was computed from; Metrics.Registry().Dump exports every counter,
	// and Series carries the time series when Config.MetricsSample is set.
	Metrics *cluster.Metrics
	// Series is the ring-buffered time-series sampler, nil unless
	// Config.MetricsSample was set.
	Series *metrics.Sampler
}

// liveHandle maps a trace open-instance to the replayed client handle.
type liveHandle struct {
	cl  *client.Client
	hid uint64
}

// Engine replays one trace stream against one cluster configuration.
type Engine struct {
	cfg     Config
	Sim     *sim.Sim
	Net     *netsim.Network
	Servers []*server.Server

	clients map[int32]*client.Client
	handles map[uint64]liveHandle

	// Injector drives cfg.Faults; nil when the schedule is empty.
	Injector *faults.Injector

	// Reg is the central metric registry; servers and the network register
	// at construction, clients as they materialize.
	Reg *metrics.Registry
	// MetricSampler holds the time series collected when
	// Config.MetricsSample is set; nil otherwise.
	MetricSampler *metrics.Sampler

	samples []cluster.Sample
	lastOps map[int32]int64
	tickers []*sim.Ticker

	stats Stats
	ran   bool
}

// New assembles an idle replay engine. Servers exist up front (their
// identity is baked into file ids); clients materialize lazily at the
// first record that names them, mirroring how the trace itself only
// mentions workstations that did something.
func New(cfg Config) *Engine {
	if cfg.NumServers <= 0 {
		cfg.NumServers = 4
	}
	if cfg.Speed <= 0 {
		cfg.Speed = 1
	}
	e := &Engine{
		cfg:     cfg,
		Sim:     sim.New(cfg.Seed),
		Net:     netsim.New(netsim.DefaultConfig()),
		clients: make(map[int32]*client.Client),
		handles: make(map[uint64]liveHandle),
		lastOps: make(map[int32]int64),
	}
	for i := 0; i < cfg.NumServers; i++ {
		srv := server.New(int16(i))
		// Same storage split as the live cluster: the main Sun 4 with
		// 128 MB of cache, smaller secondaries.
		if i == 0 {
			srv.AttachStorage(128 << 20 / 4096)
		} else {
			srv.AttachStorage(64 << 20 / 4096)
		}
		e.Servers = append(e.Servers, srv)
	}
	if !cfg.Faults.Empty() {
		e.Injector = faults.Attach(e, cfg.Faults)
	}
	e.Reg = metrics.New()
	cluster.RegisterComponents(e.Reg, e.Sim, nil, e.Servers, e.Net, e.Injector)
	e.registerMetrics(e.Reg)
	return e
}

// registerMetrics registers the engine's own stream bookkeeping, so a
// metrics dump states what the replay did with the trace alongside what
// the components did with the replayed operations.
func (e *Engine) registerMetrics(r *metrics.Registry) {
	ctr := func(name, unit, help string, v *int64) {
		r.IntVar(metrics.Desc{Name: name, Unit: unit, Help: help, Kind: metrics.Counter}, nil, v)
	}
	ctr("spritefs_replay_records_read_total", "records",
		"Records pulled from the trace stream.", &e.stats.Read)
	ctr("spritefs_replay_records_applied_total", "records",
		"Records re-executed against the replayed cluster.", &e.stats.Applied)
	ctr("spritefs_replay_records_filtered_total", "records",
		"Records dropped by the configured Keep filter.", &e.stats.Filtered)
	ctr("spritefs_replay_records_scrubbed_total", "records",
		"Self-trace or clientless records scrubbed, as the paper's merge step scrubbed backup noise.", &e.stats.Scrubbed)
	ctr("spritefs_replay_unknown_handle_total", "records",
		"Operations referencing a handle whose open was never replayed.", &e.stats.UnknownHandle)
	ctr("spritefs_replay_errors_total", "records",
		"Open/close errors tolerated and skipped.", &e.stats.Errors)
	ctr("spritefs_replay_bootstrapped_files_total", "files",
		"Files materialized on first reference — the source run's pre-existing population.", &e.stats.Bootstrapped)
	ctr("spritefs_replay_creates_total", "records",
		"File creations replayed.", &e.stats.Creates)
	ctr("spritefs_replay_migrations_total", "records",
		"Process-migration markers seen (no file-system effect).", &e.stats.Migrations)
}

// Clock implements faults.System.
func (e *Engine) Clock() *sim.Sim { return e.Sim }

// Wire implements faults.System.
func (e *Engine) Wire() *netsim.Network { return e.Net }

// FileServers implements faults.System.
func (e *Engine) FileServers() []*server.Server { return e.Servers }

// Workstations implements faults.System: the clients materialized so far,
// in id order. Consulted at fault-fire time, so a crash only ever hits
// workstations the trace has already brought up.
func (e *Engine) Workstations() []*client.Client {
	ids := e.sortedIDs()
	out := make([]*client.Client, 0, len(ids))
	for _, id := range ids {
		out = append(out, e.clients[id])
	}
	return out
}

// route maps file ids to servers, identically to the live cluster.
func (e *Engine) route(file uint64) *server.Server {
	idx := int(file >> 48)
	if idx >= len(e.Servers) {
		idx = 0
	}
	return e.Servers[idx]
}

// clientFor returns the workstation with the given id, building it (and
// starting its cleaner daemon) on first reference.
func (e *Engine) clientFor(id int32) *client.Client {
	if cl, ok := e.clients[id]; ok {
		return cl
	}
	ccfg := client.DefaultConfig(id)
	if e.cfg.MemoryPagesPerClient > 0 {
		ccfg.MemoryPages = e.cfg.MemoryPagesPerClient
	} else if id%3 == 0 {
		// Memory sizes vary 24-32 MB across the cluster, as in the live run.
		ccfg.MemoryPages = 32 << 20 / vm.PageSize
	}
	ccfg.FixedCachePages = e.cfg.FixedCachePages
	ccfg.Consistency = e.cfg.Consistency
	ccfg.PollInterval = e.cfg.PollInterval
	cl := client.New(ccfg, e.Sim, e.Net, e.route, e.Servers[0], client.NopTracer{})
	cl.SetCoordinator(e)
	if e.cfg.WritebackDelay > 0 {
		cl.Cache.SetWritebackDelay(e.cfg.WritebackDelay)
	}
	if e.cfg.PrefetchBlocks > 0 {
		cl.Cache.SetPrefetch(e.cfg.PrefetchBlocks)
	}
	cl.StartCleaner()
	cl.RegisterMetrics(e.Reg)
	e.clients[id] = cl
	return cl
}

// RecallFrom implements client.Coordinator.
func (e *Engine) RecallFrom(clientID int32, file uint64) {
	if cl, ok := e.clients[clientID]; ok {
		cl.FlushForRecall(file)
	}
}

// DisableCaching implements client.Coordinator.
func (e *Engine) DisableCaching(ids []int32, file uint64) {
	for _, id := range ids {
		if cl, ok := e.clients[id]; ok {
			cl.DisableFor(file)
		}
	}
}

// sortedIDs returns the materialized client ids in ascending order, so
// every aggregate over clients is deterministic.
func (e *Engine) sortedIDs() []int32 {
	ids := make([]int32, 0, len(e.clients))
	for id := range e.clients {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// Metrics returns the counter view of the replayed components; its Report
// is shaped identically to a live cluster's.
func (e *Engine) Metrics() *cluster.Metrics {
	ids := e.sortedIDs()
	cls := make([]*client.Client, 0, len(ids))
	for _, id := range ids {
		cls = append(cls, e.clients[id])
	}
	return &cluster.Metrics{Clients: cls, Servers: e.Servers, Net: e.Net, Samples: e.samples, Reg: e.Reg}
}

// sample records each client's cache size, as the live counter sampler does.
func (e *Engine) sample() {
	now := e.Sim.Now()
	for _, id := range e.sortedIDs() {
		cl := e.clients[id]
		st := cl.Cache.Stats()
		ops := st.All.ReadOps + st.All.WriteOps
		active := ops != e.lastOps[id]
		e.lastOps[id] = ops
		e.samples = append(e.samples, cluster.Sample{
			Time: now, Client: id, CacheSize: cl.Cache.SizeBytes(), Active: active,
		})
	}
}

// scaledTime maps a record timestamp to replay virtual time.
func (e *Engine) scaledTime(t time.Duration) time.Duration {
	if e.cfg.AsFastAsPossible {
		return e.Sim.Now()
	}
	if e.cfg.Speed == 1 {
		return t
	}
	return time.Duration(float64(t) / e.cfg.Speed)
}

// Run replays the stream to exhaustion, drains the delayed-write pipeline,
// and returns the replay's report. An engine runs once.
func (e *Engine) Run(s trace.Stream) (*Result, error) {
	if e.ran {
		return nil, errors.New("replay: engine already ran")
	}
	e.ran = true

	// Server-side cleaners, staggered as in the live cluster: writebacks
	// reach the disk after the server's own 30-second delay.
	for i, srv := range e.Servers {
		srv := srv
		e.tickers = append(e.tickers, e.Sim.Every(time.Duration(i)*time.Second, 5*time.Second, func() {
			srv.Store.Clean(e.Sim.Now())
		}))
	}
	if e.cfg.SamplePeriod > 0 {
		e.tickers = append(e.tickers, e.Sim.Every(e.cfg.SamplePeriod, e.cfg.SamplePeriod, e.sample))
	}
	if e.cfg.MetricsSample > 0 {
		e.MetricSampler = metrics.NewSampler(e.Reg, e.cfg.MetricsSampleCap, e.cfg.MetricsMatch)
		e.tickers = append(e.tickers, e.Sim.Every(e.cfg.MetricsSample, e.cfg.MetricsSample, func() {
			e.MetricSampler.Sample(e.Sim.Now())
		}))
	}

	for {
		rec, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		e.stats.Read++
		// Scrub what the paper's merge step scrubs, plus records with no
		// issuing workstation (raw per-server files fed in without Merge).
		if rec.Flags&trace.FlagSelfTrace != 0 || rec.Client < 0 {
			e.stats.Scrubbed++
			continue
		}
		if e.cfg.Keep != nil && !e.cfg.Keep(&rec) {
			e.stats.Filtered++
			continue
		}
		// Advance the cluster (daemons, delayed writes, samplers) to the
		// record's moment, then re-execute it. Out-of-order timestamps are
		// tolerated by applying at the current clock.
		if at := e.scaledTime(rec.Time); at > e.Sim.Now() {
			e.Sim.RunUntil(at)
		}
		e.apply(&rec)
		e.stats.Applied++
	}
	horizon := e.Sim.Now()

	// Drain: let the cleaner daemons age out and flush the delayed writes
	// accumulated at the horizon, then stop all periodic machinery.
	maxDelay := 30 * time.Second
	for _, id := range e.sortedIDs() {
		if d := e.clients[id].Cache.WriteDelay(); d > maxDelay {
			maxDelay = d
		}
	}
	e.Sim.RunUntil(horizon + maxDelay + 2*fscache.CleanerPeriod + time.Minute)
	for _, id := range e.sortedIDs() {
		e.clients[id].StopCleaner()
	}
	for _, tk := range e.tickers {
		tk.Stop()
	}

	m := e.Metrics()
	res := &Result{
		Config:  e.cfg,
		Stats:   e.stats,
		Report:  m.Report(),
		Horizon: horizon,
		End:     e.Sim.Now(),
		Metrics: m,
		Series:  e.MetricSampler,
	}
	if e.Injector != nil {
		res.Faults = e.Injector.Stats()
	}
	return res, nil
}

// ensureFile materializes a file the trace references but never created
// inside the captured window — the pre-existing population of the source
// run. sizeHint is the best lower bound the referencing record implies.
func (e *Engine) ensureFile(file uint64, sizeHint int64, directory bool) *server.File {
	srv := e.route(file)
	if f := srv.Lookup(file); f != nil {
		if f.Size < sizeHint {
			srv.Grow(file, sizeHint, e.Sim.Now())
		}
		return f
	}
	e.stats.Bootstrapped++
	if sizeHint < 0 {
		sizeHint = 0
	}
	return srv.Install(file, sizeHint, directory, e.Sim.Now())
}

// apply re-executes one record against the replayed cluster.
func (e *Engine) apply(rec *trace.Record) {
	switch rec.Kind {
	case trace.KindOpen:
		// Size at open re-syncs any drift in the bootstrap estimate.
		e.ensureFile(rec.File, rec.Size, rec.IsDirectory())
		cl := e.clientFor(rec.Client)
		read := rec.Flags&trace.FlagReadMode != 0
		write := rec.Flags&trace.FlagWriteMode != 0
		if !read && !write {
			read = true // hand-written traces may omit modes
		}
		hid, _, err := cl.Open(rec.User, rec.Proc, rec.File, read, write, rec.IsMigrated())
		if err != nil {
			e.stats.Errors++
			return
		}
		if rec.Handle != 0 {
			e.handles[rec.Handle] = liveHandle{cl: cl, hid: hid}
		}

	case trace.KindClose:
		h, ok := e.handles[rec.Handle]
		if !ok {
			e.stats.UnknownHandle++
			return
		}
		delete(e.handles, rec.Handle)
		if _, err := h.cl.Close(h.hid); err != nil {
			e.stats.Errors++
		}

	case trace.KindRead, trace.KindDirRead:
		h, ok := e.handles[rec.Handle]
		if !ok {
			e.stats.UnknownHandle++
			return
		}
		e.ensureFile(rec.File, rec.Offset+rec.Length, rec.IsDirectory())
		h.cl.ReadAt(h.hid, rec.Offset, rec.Length)

	case trace.KindWrite:
		h, ok := e.handles[rec.Handle]
		if !ok {
			e.stats.UnknownHandle++
			return
		}
		e.ensureFile(rec.File, 0, false)
		h.cl.WriteAt(h.hid, rec.Offset, rec.Length)

	case trace.KindReposition:
		h, ok := e.handles[rec.Handle]
		if !ok {
			e.stats.UnknownHandle++
			return
		}
		h.cl.Seek(h.hid, rec.Offset)

	case trace.KindCreate:
		srv := e.route(rec.File)
		if srv.Lookup(rec.File) == nil {
			srv.Install(rec.File, 0, rec.IsDirectory(), e.Sim.Now())
		}
		e.stats.Creates++
		e.clientFor(rec.Client)
		e.Net.RPC(rec.Client, netsim.Control, 0)

	case trace.KindDelete:
		cl := e.clientFor(rec.Client)
		cl.Delete(rec.User, rec.Proc, rec.File, rec.IsMigrated())

	case trace.KindTruncate:
		cl := e.clientFor(rec.Client)
		cl.Truncate(rec.User, rec.Proc, rec.File, rec.IsMigrated())

	case trace.KindMigrate:
		// Process migration markers carry no file-system state; the
		// migrated flag on subsequent records is what matters.
		e.stats.Migrations++
	}
}

// Run is the one-shot convenience: build an engine for cfg and replay s.
func Run(cfg Config, s trace.Stream) (*Result, error) {
	return New(cfg).Run(s)
}

// --- Record filters ---

// KeepClients keeps only records issued by the given workstations.
func KeepClients(ids ...int32) func(*trace.Record) bool {
	set := make(map[int32]bool, len(ids))
	for _, id := range ids {
		set[id] = true
	}
	return func(r *trace.Record) bool { return set[r.Client] }
}

// KeepServers keeps only records logged by the given servers.
func KeepServers(ids ...int16) func(*trace.Record) bool {
	set := make(map[int16]bool, len(ids))
	for _, id := range ids {
		set[id] = true
	}
	return func(r *trace.Record) bool { return set[r.Server] }
}

// KeepKinds keeps only records of the given kinds. Note that dropping
// opens orphans the dropped handles' reads and closes; kind filters are
// for analyses that tolerate that (the engine counts the orphans).
func KeepKinds(kinds ...trace.Kind) func(*trace.Record) bool {
	var set [32]bool
	for _, k := range kinds {
		if int(k) < len(set) {
			set[k] = true
		}
	}
	return func(r *trace.Record) bool { return int(r.Kind) < len(set) && set[r.Kind] }
}

// And composes filters conjunctively.
func And(fs ...func(*trace.Record) bool) func(*trace.Record) bool {
	return func(r *trace.Record) bool {
		for _, f := range fs {
			if !f(r) {
				return false
			}
		}
		return true
	}
}
