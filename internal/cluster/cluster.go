// Package cluster assembles the full measured system: four file servers,
// a shared Ethernet, forty diskless client workstations with dynamic file
// caches and virtual memory, the cache-consistency coordinator, the user
// community workload, the kernel tracing machinery (per-server trace
// streams with nightly-backup noise), and the periodic counter sampler
// behind the Section 5 tables. One Cluster is one experiment run.
package cluster

import (
	"fmt"
	"time"

	"spritefs/internal/client"
	"spritefs/internal/faults"
	"spritefs/internal/metrics"
	"spritefs/internal/netsim"
	"spritefs/internal/server"
	"spritefs/internal/sim"
	"spritefs/internal/trace"
	"spritefs/internal/vm"
	"spritefs/internal/workload"
)

// Config selects a cluster experiment.
type Config struct {
	Params workload.Params
	// NumServers is the number of file servers (the paper's cluster had 4,
	// with most traffic on one Sun 4).
	NumServers int
	// Net overrides the segment's wire parameters when BandwidthBps is
	// non-zero; the zero value keeps the paper's 10 Mbit/s Ethernet. The
	// scale-out topology uses this to give each shard its own segment
	// configuration.
	Net netsim.Config
	// CollectTrace enables trace-record collection (Section 4 study).
	CollectTrace bool
	// TraceSink, when set with CollectTrace, receives records instead of
	// the in-memory buffer (cmd/tracegen writes per-server files).
	TraceSink func(trace.Record)
	// SamplePeriod is the kernel-counter sampling interval (Section 5
	// study); zero disables sampling. The paper's user-level process read
	// the counters "at regular intervals".
	SamplePeriod time.Duration
	// MemoryPagesPerClient overrides the default 24 MB of client memory
	// when non-zero.
	MemoryPagesPerClient int
	// FixedCachePages pins every client cache at a constant size
	// (cache-size sweep ablation). Zero keeps Sprite's dynamic sizing.
	FixedCachePages int
	// WritebackDelay overrides the 30-second delayed-write interval
	// (writeback-delay ablation). Zero keeps the default.
	WritebackDelay time.Duration
	// PrefetchBlocks enables sequential prefetch of that many blocks per
	// miss (prefetch ablation). Zero disables prefetch, as in Sprite.
	PrefetchBlocks int
	// Consistency selects the cache-consistency scheme for every client
	// (live weak-consistency runs; the paper could only simulate this
	// from traces).
	Consistency client.ConsistencyMode
	// PollInterval is the validity window under ConsistencyPoll.
	PollInterval time.Duration
	// Faults is the fault-injection schedule (crashes, partitions, drop
	// and delay windows) driven against the run. Empty injects nothing.
	Faults faults.Schedule
	// MetricsSample enables the registry time-series sampler at this
	// interval on the virtual clock; zero disables it. The per-client
	// counter sampler behind Table 4 (SamplePeriod) is separate.
	MetricsSample time.Duration
	// MetricsSampleCap bounds the sampler's ring buffer in sample rows
	// (oldest rows are overwritten); zero uses the sampler's default.
	MetricsSampleCap int
	// MetricsMatch restricts sampling to metric families for which it
	// returns true; nil samples every non-summary family.
	MetricsMatch func(name string) bool
	// Reg is the registry every component registers into; nil gives the
	// cluster a fresh one. The scale-out engine passes a shard-scoped view
	// of its topology-wide registry, so each component registers once.
	Reg *metrics.Registry
}

// DefaultConfig returns the paper's cluster: 4 servers, 40 clients.
func DefaultConfig(p workload.Params) Config {
	return Config{
		Params:       p,
		NumServers:   4,
		CollectTrace: true,
		SamplePeriod: time.Minute,
	}
}

// Sample is one counter-sampler observation of one client.
type Sample struct {
	Time      time.Duration
	Client    int32
	CacheSize int64
	Active    bool // user activity since the previous sample
}

// Cluster is one assembled experiment.
type Cluster struct {
	Cfg      Config
	Sim      *sim.Sim
	Net      *netsim.Network
	Servers  []*server.Server
	Clients  []*client.Client
	Engine   *workload.Engine
	Registry *workload.Registry
	// Injector drives Cfg.Faults; nil when the schedule is empty.
	Injector *faults.Injector
	// Reg is the central metric registry every component registered into
	// at construction; Report reads its sum-shaped tables from here.
	Reg *metrics.Registry
	// MetricSampler holds the time series collected when Cfg.MetricsSample
	// is set; nil otherwise.
	MetricSampler *metrics.Sampler

	recs    []trace.Record
	sink    func(trace.Record)
	tracing bool

	samples  []Sample
	lastOps  map[int32]int64
	sampler  *sim.Ticker
	tickers  []*sim.Ticker
	backupAt time.Duration
}

// New builds a cluster. The workload is bootstrapped (file population
// created) but not started; call Run.
func New(cfg Config) *Cluster {
	if cfg.NumServers < 1 {
		panic("cluster: need at least one server")
	}
	p := cfg.Params
	ncfg := cfg.Net
	if ncfg.BandwidthBps == 0 {
		ncfg = netsim.DefaultConfig()
	}
	c := &Cluster{
		Cfg:     cfg,
		Sim:     sim.New(p.Seed),
		Net:     netsim.New(ncfg),
		lastOps: make(map[int32]int64),
	}
	c.tracing = cfg.CollectTrace
	c.sink = cfg.TraceSink
	for i := 0; i < cfg.NumServers; i++ {
		srv := server.New(int16(i))
		// The main server (a Sun 4 with 128 MB) carries most traffic; the
		// others are smaller. Server caches fill nearly all of memory.
		if i == 0 {
			srv.AttachStorage(128 << 20 / 4096)
		} else {
			srv.AttachStorage(64 << 20 / 4096)
		}
		c.Servers = append(c.Servers, srv)
	}
	route := func(file uint64) *server.Server {
		idx := int(file >> 48)
		if idx >= len(c.Servers) {
			idx = 0
		}
		return c.Servers[idx]
	}

	bootRng := sim.NewRand(p.Seed ^ 0x5eed)
	c.Registry = workload.Bootstrap(p, c.Servers, bootRng)

	hosts := make(map[int32]workload.Host, p.NumClients)
	for i := 0; i < p.NumClients; i++ {
		ccfg := client.DefaultConfig(int32(i))
		if cfg.MemoryPagesPerClient > 0 {
			ccfg.MemoryPages = cfg.MemoryPagesPerClient
		}
		// Memory sizes vary 24-32 MB across the cluster, as in the paper.
		if cfg.MemoryPagesPerClient == 0 && i%3 == 0 {
			ccfg.MemoryPages = 32 << 20 / vm.PageSize
		}
		ccfg.FixedCachePages = cfg.FixedCachePages
		ccfg.Consistency = cfg.Consistency
		ccfg.PollInterval = cfg.PollInterval
		// Most traffic lands on server 0; creations go there.
		cl := client.New(ccfg, c.Sim, c.Net, route, c.Servers[0], c)
		cl.SetCoordinator(c)
		if cfg.WritebackDelay > 0 {
			cl.Cache.SetWritebackDelay(cfg.WritebackDelay)
		}
		if cfg.PrefetchBlocks > 0 {
			cl.Cache.SetPrefetch(cfg.PrefetchBlocks)
		}
		c.Clients = append(c.Clients, cl)
		hosts[int32(i)] = cl
	}
	if !cfg.Faults.Empty() {
		c.Injector = faults.Attach(c, cfg.Faults)
	}
	c.Reg = cfg.Reg
	if c.Reg == nil {
		c.Reg = metrics.New()
	}
	RegisterComponents(c.Reg, c.Sim, c.Clients, c.Servers, c.Net, c.Injector)
	c.Engine = workload.NewEngine(c.Sim, p, c.Registry, hosts)
	c.Engine.RegisterMetrics(c.Reg)
	c.Engine.OnMigrate = func(user, pid, from, to int32) {
		c.Emit(trace.Record{
			Time:   c.Sim.Now(),
			Kind:   trace.KindMigrate,
			Flags:  trace.FlagMigrated,
			Client: to,
			User:   user,
			Proc:   pid,
		})
	}
	return c
}

// Emit implements client.Tracer: records flow to the sink or buffer while
// tracing is enabled.
func (c *Cluster) Emit(rec trace.Record) {
	if !c.tracing {
		return
	}
	if c.sink != nil {
		c.sink(rec)
		return
	}
	c.recs = append(c.recs, rec)
}

// RecallFrom implements client.Coordinator.
func (c *Cluster) RecallFrom(clientID int32, file uint64) {
	if int(clientID) < len(c.Clients) {
		c.Clients[clientID].FlushForRecall(file)
	}
}

// DisableCaching implements client.Coordinator.
func (c *Cluster) DisableCaching(clients []int32, file uint64) {
	for _, id := range clients {
		if int(id) < len(c.Clients) {
			c.Clients[id].DisableFor(file)
		}
	}
}

// Clock implements faults.System.
func (c *Cluster) Clock() *sim.Sim { return c.Sim }

// Wire implements faults.System.
func (c *Cluster) Wire() *netsim.Network { return c.Net }

// FileServers implements faults.System.
func (c *Cluster) FileServers() []*server.Server { return c.Servers }

// Workstations implements faults.System.
func (c *Cluster) Workstations() []*client.Client { return c.Clients }

// Trace returns the collected records (empty when a sink was used).
func (c *Cluster) Trace() []trace.Record { return c.recs }

// Samples returns the counter-sampler observations.
func (c *Cluster) Samples() []Sample { return c.samples }

// Run executes the experiment for the given duration: cleaner daemons and
// the counter sampler start, the community runs, and the clock advances
// past the horizon until all activity drains.
func (c *Cluster) Run(duration time.Duration) {
	c.Start(duration)
	c.Sim.RunUntil(duration)
	c.Finish()
	c.Sim.RunUntil(duration + DrainTime)
}

// DrainTime is how far past the measurement horizon the clock advances so
// in-flight programs and final writebacks settle (Run and the scale-out
// executor both use it).
const DrainTime = 10 * time.Minute

// Start schedules everything a run needs — system processes, cleaner
// daemons, samplers, backups, and the user community — without advancing
// the clock. Callers that drive the clock themselves (the epoch-stepped
// scale-out executor) pair it with Finish; Run wraps the whole sequence.
func (c *Cluster) Start(duration time.Duration) {
	c.StartDaemons()
	if c.Cfg.Params.EmitBackupNoise && c.tracing {
		c.scheduleBackups(duration)
	}
	c.Engine.Run(duration)
}

// StartDaemons schedules the standing machinery only — system processes,
// client and server cleaners, and the samplers — without the user
// community or backups. The live-service frontend uses this: its agent
// fleet replaces the synthetic community, but delayed writes, consistency
// and the VM balance still need their daemons. The scheduling order is
// exactly Start's (event sequence numbers, and so replay determinism,
// depend on it).
func (c *Cluster) StartDaemons() {
	c.startSystemProcs()
	for _, cl := range c.Clients {
		cl.StartCleaner()
	}
	// Server-side cleaners: writebacks reach the disk after the server's
	// own 30-second delay ("an additional 30 seconds later it is written
	// to disk").
	for i, srv := range c.Servers {
		srv := srv
		c.tickers = append(c.tickers, c.Sim.Every(time.Duration(i)*time.Second, 5*time.Second, func() {
			srv.Store.Clean(c.Sim.Now())
		}))
	}
	if c.Cfg.SamplePeriod > 0 {
		c.sampler = c.Sim.Every(c.Cfg.SamplePeriod, c.Cfg.SamplePeriod, c.sample)
	}
	if c.Cfg.MetricsSample > 0 {
		c.MetricSampler = metrics.NewSampler(c.Reg, c.Cfg.MetricsSampleCap, c.Cfg.MetricsMatch)
		c.tickers = append(c.tickers, c.Sim.Every(c.Cfg.MetricsSample, c.Cfg.MetricsSample, func() {
			c.MetricSampler.Sample(c.Sim.Now())
		}))
	}
}

// Finish stops the daemons and samplers at measurement end. The caller
// then advances the clock (by DrainTime past the horizon) so in-flight
// programs and final writebacks drain.
func (c *Cluster) Finish() {
	for _, cl := range c.Clients {
		cl.StopCleaner()
	}
	if c.sampler != nil {
		c.sampler.Stop()
	}
	for _, tk := range c.tickers {
		tk.Stop()
	}
}

// startSystemProcs gives every workstation its long-lived resident memory
// consumers — the window system, shell, and daemons that occupy a third
// or so of physical memory and are touched continuously. They are what
// keeps the virtual memory system's preference meaningful: without them
// the file cache would swallow nearly all of memory, instead of the
// quarter-to-third the paper measures (Table 4).
func (c *Cluster) startSystemProcs() {
	if len(c.Registry.Binaries) == 0 {
		return
	}
	rng := c.Sim.Rand()
	for i, cl := range c.Clients {
		cl := cl
		bin := c.Registry.Binaries[i%len(c.Registry.Binaries)]
		pid := int32(-1000 - i)
		// Mostly anonymous (stack/heap) pages: zero-fill, no start-up I/O.
		resident := 1900 + rng.Intn(400) // stack/anonymous share
		cl.ExecProcess(pid, bin.File, bin.CodePages, bin.DataPages, resident, false)
		// Seed the heap so working-set trimming has pages to cycle from
		// the start of the run.
		cl.TouchProcess(pid, 400+rng.Intn(200))
		// Touched regularly so the 20-minute idle rule never lets the
		// file cache steal these pages; a balanced grow/free random walk
		// keeps the FS/VM boundary moving (Table 4's size changes).
		c.tickers = append(c.tickers, c.Sim.Every(time.Duration(i%180)*time.Second, 3*time.Minute, func() {
			switch {
			case rng.Bool(0.25):
				cl.TouchProcess(pid, rng.Intn(64))
			case rng.Bool(0.35):
				cl.VM.Free(pid, rng.Intn(96), c.Sim.Now())
				cl.TouchProcess(pid, 0)
			case rng.Bool(0.5):
				// Working-set trimming: part of the heap goes to the
				// backing file and faults back on the next touch — the
				// steady backing-store traffic of Section 5.3 (about one
				// 4 KB page every few seconds per workstation).
				cl.VM.PageOut(pid, rng.Intn(90), c.Sim.Now())
			default:
				cl.TouchProcess(pid, 0)
			}
		}))
	}
}

// sample records each client's cache size and whether it was active since
// the last sample (the paper screened out inactive machine-intervals).
func (c *Cluster) sample() {
	now := c.Sim.Now()
	for _, cl := range c.Clients {
		st := cl.Cache.Stats()
		ops := st.All.ReadOps + st.All.WriteOps
		active := ops != c.lastOps[cl.ID()]
		c.lastOps[cl.ID()] = ops
		c.samples = append(c.samples, Sample{
			Time:      now,
			Client:    cl.ID(),
			CacheSize: cl.Cache.SizeBytes(),
			Active:    active,
		})
	}
}

// scheduleBackups emits the nightly tape backup's trace noise: a burst of
// self-trace-flagged reads of every file, which the merge step must scrub
// (the paper's merger removed backup records the same way).
func (c *Cluster) scheduleBackups(duration time.Duration) {
	first := 2 * time.Hour
	if first >= duration {
		first = duration / 2 // short runs still exercise the scrub path
	}
	for at := first; at < duration; at += 24 * time.Hour {
		at := at
		c.Sim.At(at, func() {
			now := c.Sim.Now()
			for _, f := range c.Registry.AllFiles {
				srv := int16(f >> 48)
				c.Emit(trace.Record{
					Time:   now,
					Kind:   trace.KindRead,
					Flags:  trace.FlagSelfTrace,
					Server: srv,
					Client: -1,
					User:   -1,
					File:   f,
					Length: 4096,
				})
			}
		})
	}
}

// PerServerStreams splits the collected trace by logging server, modelling
// the paper's per-server trace files; merging them back with trace.Merge
// reconstructs the analysis input.
func (c *Cluster) PerServerStreams() []trace.Stream {
	buckets := make([][]trace.Record, len(c.Servers))
	for _, r := range c.recs {
		idx := int(r.Server)
		if idx < 0 || idx >= len(buckets) {
			idx = 0
		}
		buckets[idx] = append(buckets[idx], r)
	}
	out := make([]trace.Stream, len(buckets))
	for i, b := range buckets {
		out[i] = trace.NewSliceStream(b)
	}
	return out
}

// String summarizes the cluster configuration.
func (c *Cluster) String() string {
	return fmt.Sprintf("cluster{clients=%d servers=%d users=%d+%d}",
		len(c.Clients), len(c.Servers),
		c.Cfg.Params.DailyUsers, c.Cfg.Params.OccasionalUsers)
}
