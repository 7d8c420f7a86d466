package cluster

import (
	"spritefs/internal/client"
	"spritefs/internal/faults"
	"spritefs/internal/metrics"
	"spritefs/internal/netsim"
	"spritefs/internal/server"
	"spritefs/internal/sim"
)

// RegisterComponents registers a full component stack into one registry.
// Both assemblers (the live Cluster and the replay Engine) call this — or,
// for lazily materialized clients, its per-component pieces — so that any
// run exposes the identical metric families and Report projections read
// from one store regardless of who built the components.
//
// sm, when non-nil, also exposes the simulation core's scheduler gauges
// (event-queue depth and event-pool occupancy) so profiling runs can watch
// scheduler pressure alongside the model metrics.
func RegisterComponents(r *metrics.Registry, sm *sim.Sim, clients []*client.Client, servers []*server.Server, net *netsim.Network, inj *faults.Injector) {
	if sm != nil {
		r.Int(metrics.Desc{Name: "spritefs_sim_events_pending", Unit: "events",
			Help: "Events currently scheduled on the simulator (one-shot events plus armed tickers).",
			Kind: metrics.Gauge},
			nil, func() int64 { return int64(sm.Pending()) })
		r.Int(metrics.Desc{Name: "spritefs_sim_event_pool_free", Unit: "events",
			Help: "Recycled event arena slots awaiting reuse; one-shot events and tickers share the arena, and the steady-state allocation-free scheduler draws from this pool.",
			Kind: metrics.Gauge},
			nil, func() int64 { return int64(sm.EventPoolFree()) })
	}
	if net != nil {
		net.RegisterMetrics(r)
	}
	for _, s := range servers {
		s.RegisterMetrics(r)
	}
	for _, cl := range clients {
		cl.RegisterMetrics(r)
	}
	if inj != nil {
		inj.RegisterMetrics(r)
	}
}

// Registry returns the central metric registry behind this view. Views
// built by a Cluster or replay Engine carry the registry those assemblers
// populated at construction time; a hand-assembled Metrics (tests, ad-hoc
// tools) gets one built on first use from its component slices.
func (m *Metrics) Registry() *metrics.Registry {
	if m.Reg == nil {
		m.Reg = metrics.New()
		RegisterComponents(m.Reg, nil, m.Clients, m.Servers, m.Net, nil)
	}
	return m.Reg
}
