package cluster

import (
	"spritefs/internal/metrics"
)

// registerStack registers what NewStack built — the simulation core's
// scheduler gauges (event-queue depth and event-pool occupancy, so
// profiling runs can watch scheduler pressure alongside the model
// metrics), the network and the servers. Clients register as AddClient
// builds them and the fault injector as AttachFaults attaches it, so a
// community run and a trace replay expose the identical metric families
// and Report projections read from one store.
func (c *Cluster) registerStack() {
	r, sm := c.Reg, c.Sim
	r.Int(metrics.Desc{Name: "spritefs_sim_events_pending", Unit: "events",
		Help: "Events currently scheduled on the simulator (one-shot events plus armed tickers).",
		Kind: metrics.Gauge},
		nil, func() int64 { return int64(sm.Pending()) })
	r.Int(metrics.Desc{Name: "spritefs_sim_event_pool_free", Unit: "events",
		Help: "Recycled event arena slots awaiting reuse; one-shot events and tickers share the arena, and the steady-state allocation-free scheduler draws from this pool.",
		Kind: metrics.Gauge},
		nil, func() int64 { return int64(sm.EventPoolFree()) })
	c.Net.RegisterMetrics(r)
	for _, s := range c.Servers {
		s.RegisterMetrics(r)
	}
}

// Registry returns the central metric registry every component of the
// cluster registered into at construction.
func (m *Metrics) Registry() *metrics.Registry { return m.Reg }
