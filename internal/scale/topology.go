package scale

import (
	"fmt"
	"time"

	"spritefs/internal/cluster"
	"spritefs/internal/netsim"
	"spritefs/internal/workload"
)

// RouterConfig parameterizes the inter-segment backbone. Latency is the
// one-way store-and-forward delay a cross-shard message pays; it is also
// the channel-clock executor's per-link lookahead, so a smaller latency
// means tighter coupling and more synchronization rounds per simulated
// second.
type RouterConfig struct {
	// Latency is the uniform one-way inter-segment delay, used for every
	// link neither LinkLatency nor the tier table overrides. Must be
	// positive: it is the default lookahead floor the executor
	// parallelizes over.
	Latency time.Duration
	// BandwidthBps is the backbone bandwidth in bytes/second shared by
	// all links (payload bytes add Payload/Bandwidth to the delay).
	BandwidthBps float64
	// LinkLatency, when set, prices each directed link separately. It is
	// the bottom layer of the pricing stack: a hierarchical topology's
	// tier table is folded into the same per-link matrix, and an explicit
	// LinkLatency overrides the tier-derived latency link by link. It is
	// consulted once per ordered shard pair at construction and must be
	// deterministic. Individual links may be zero-latency — the executor
	// falls back to serialized stall-breaking rounds on links with no
	// lookahead — but must not be negative.
	LinkLatency func(from, to int) time.Duration
}

// DefaultRouter returns a campus-backbone router: 100 Mbit/s trunk and
// 2 ms store-and-forward latency — an order of magnitude faster than the
// measured segments, as the successor systems' backbones were.
func DefaultRouter() RouterConfig {
	return RouterConfig{Latency: 2 * time.Millisecond, BandwidthBps: 12.5e6}
}

// Tier prices one level of the topology hierarchy: the one-way
// store-and-forward latency of a hop through that tier and the tier
// trunk's bandwidth in bytes/second.
type Tier struct {
	Latency      time.Duration
	BandwidthBps float64
}

// TiersConfig prices the two inter-segment tiers of the segment → site →
// WAN hierarchy. An intra-site message pays one Site hop; a cross-site
// message pays Site (up to the source site's gateway) + WAN (the
// inter-site trunk) + Site (down from the destination site's gateway),
// store-and-forward at each hop. The derived per-link latencies feed the
// channel-clock executor's lookahead matrix directly, so cross-site links
// buy the executor wide windows while intra-site links stay tight.
type TiersConfig struct {
	// Site is the intra-site backbone joining a site's segments (zero =
	// the campus DefaultRouter pricing).
	Site Tier
	// WAN is the inter-site trunk (zero = DefaultTiers' 45 Mbit/s, 30 ms
	// long-haul). WAN.Latency may be zero — the zero-lookahead corner the
	// executor's stall rescue covers — but not negative.
	WAN Tier
}

// DefaultTiers returns the wide-area pricing the wanscale study uses: the
// campus backbone within a site (2 ms, 100 Mbit/s) and a T3-class
// long-haul trunk between sites (30 ms, 45 Mbit/s) — the shape of the
// successor systems' wide-area deployments, where the WAN tier is an
// order of magnitude slower than a site backbone in both dimensions.
func DefaultTiers() TiersConfig {
	return TiersConfig{
		Site: Tier{Latency: 2 * time.Millisecond, BandwidthBps: 12.5e6},
		WAN:  Tier{Latency: 30 * time.Millisecond, BandwidthBps: 5.625e6},
	}
}

// Topology describes the shard grid: Sites sites of SegsPerSite Ethernet
// segments each. The flat (pre-hierarchical) topology is one site
// containing every segment.
type Topology struct {
	Sites       int
	SegsPerSite int
}

// SiteOf returns the site a shard belongs to. Shards are numbered
// site-major: site s owns shards [s*SegsPerSite, (s+1)*SegsPerSite).
func (t Topology) SiteOf(shard int) int { return shard / t.SegsPerSite }

// NumShards returns the total segment count.
func (t Topology) NumShards() int { return t.Sites * t.SegsPerSite }

// SameSite reports whether two shards share a site.
func (t Topology) SameSite(a, b int) bool { return t.SiteOf(a) == t.SiteOf(b) }

// RemoteConfig shapes the cross-segment traffic: how often a client
// reaches across the router, and for what.
type RemoteConfig struct {
	// OpsPerClientHour is the mean number of cross-segment operations one
	// client issues per hour. Zero disables remote traffic (shards run
	// fully decoupled; the executor still barriers but exchanges nothing).
	OpsPerClientHour float64
	// ReadFrac is the fraction of remote operations that are reads of a
	// remote shard's shared artifacts; the rest are writes (remote log
	// appends, result drops).
	ReadFrac float64
	// BytesMedian/BytesSigma give the log-normal size of a remote
	// operation's payload.
	BytesMedian float64
	BytesSigma  float64
	// SiteAffinity is the probability that a remote operation is drawn
	// from the artifacts homed in the client's own site (crossing only
	// the site tier); the rest draw from the global catalog and usually
	// cross the WAN. Ignored in flat (single-site) topologies.
	SiteAffinity float64
}

// DefaultRemote returns the cross-segment mix the scale study uses: a
// handful of remote ops per client-hour (the paper's users touched other
// groups' files rarely but measurably), read-mostly, with small-file
// sized payloads, and site-local artifacts strongly preferred when the
// topology has sites.
func DefaultRemote() RemoteConfig {
	return RemoteConfig{
		OpsPerClientHour: 6,
		ReadFrac:         0.8,
		BytesMedian:      8 * 1024,
		BytesSigma:       1.0,
		SiteAffinity:     0.7,
	}
}

// Config declares a sharded cluster. The zero value is not runnable; at
// minimum Base and Shards must be set. New applies defaults to the rest.
type Config struct {
	// Base is the single-segment community the topology multiplies and
	// shards (usually workload.Default(seed)).
	Base workload.Params
	// Factor scales the community to Factor× the paper's population
	// before sharding (1000 clients = Factor 25). <= 0 means 1.
	Factor float64
	// Shards is the total number of Ethernet segments across all sites.
	// Each segment gets its own netsim instance, server group and
	// community slice.
	Shards int
	// Sites groups the segments into sites joined by a priced WAN tier:
	// segment → site → WAN. 0 or 1 keeps the flat single-site topology.
	// Shards must be divisible by Sites. The community is split
	// site-major (workload.SplitSite then workload.Split), so a site's
	// segments are a pure function of (base seed, site, segment).
	Sites int
	// Tiers prices the site and WAN tiers when Sites > 1 (zero =
	// DefaultTiers). Flat topologies price every link from Router.
	Tiers TiersConfig
	// ServersPerShard sizes each shard's server group (0 = the paper's 4).
	ServersPerShard int
	// Segment overrides each segment's wire parameters (zero keeps the
	// measured 10 Mbit/s Ethernet).
	Segment netsim.Config
	// Router is the inter-segment backbone (zero = DefaultRouter). In a
	// hierarchical topology Router.Latency is only the validation floor;
	// per-link prices come from Tiers unless Router.LinkLatency overrides
	// them link by link.
	Router RouterConfig
	// Remote is the cross-segment traffic mix (zero = DefaultRemote; set
	// Remote.OpsPerClientHour < 0 to disable remote traffic entirely).
	Remote RemoteConfig
	// Tune, when set, adjusts each shard's cluster configuration after
	// the defaults are applied (ablations on a sharded world).
	Tune func(shard int, cfg *cluster.Config)
	// SeedMessages pre-populates the shards' message free lists, entry i
	// going to shard i. Benchmarks drain a finished engine's pools with
	// DrainMessagePools and seed the next iteration's engine so allocs/op
	// reflects the executor's steady state rather than cold-start pool
	// growth. Message contents are fully overwritten before use, so
	// seeding never changes simulation output.
	SeedMessages [][]*Message
}

// withDefaults fills the zero values.
func (c Config) withDefaults() Config {
	if c.Factor <= 0 {
		c.Factor = 1
	}
	if c.ServersPerShard <= 0 {
		c.ServersPerShard = 4
	}
	if c.Router.Latency <= 0 && c.Router.BandwidthBps == 0 {
		c.Router = DefaultRouter()
	}
	if c.Sites <= 0 {
		c.Sites = 1
	}
	if c.Sites > 1 && c.Tiers == (TiersConfig{}) {
		c.Tiers = DefaultTiers()
	}
	if c.Sites > 1 {
		if c.Tiers.Site.BandwidthBps == 0 {
			c.Tiers.Site.BandwidthBps = c.Router.BandwidthBps
		}
		if c.Tiers.WAN.BandwidthBps == 0 {
			c.Tiers.WAN.BandwidthBps = DefaultTiers().WAN.BandwidthBps
		}
	}
	if c.Remote == (RemoteConfig{}) {
		c.Remote = DefaultRemote()
	}
	if c.Remote.OpsPerClientHour < 0 {
		c.Remote.OpsPerClientHour = 0
	}
	return c
}

// topology derives the shard grid from a defaulted config.
func (c Config) topology() Topology {
	return Topology{Sites: c.Sites, SegsPerSite: c.Shards / c.Sites}
}

// validate rejects configurations the executor cannot run correctly.
func (c Config) validate() error {
	if c.Shards < 1 {
		return fmt.Errorf("scale: need at least one shard (got %d)", c.Shards)
	}
	if c.Sites > c.Shards {
		return fmt.Errorf("scale: %d sites cannot be populated by %d segments", c.Sites, c.Shards)
	}
	if c.Shards%c.Sites != 0 {
		return fmt.Errorf("scale: %d segments do not divide evenly into %d sites", c.Shards, c.Sites)
	}
	if c.Router.Latency <= 0 {
		return fmt.Errorf("scale: router latency must be positive (it is the executor's default lookahead)")
	}
	if c.Router.BandwidthBps <= 0 {
		return fmt.Errorf("scale: router bandwidth must be positive")
	}
	if c.Sites > 1 {
		if c.Tiers.Site.Latency < 0 || c.Tiers.WAN.Latency < 0 {
			return fmt.Errorf("scale: tier latencies must be non-negative (site %v, wan %v)",
				c.Tiers.Site.Latency, c.Tiers.WAN.Latency)
		}
		if c.Tiers.Site.BandwidthBps <= 0 || c.Tiers.WAN.BandwidthBps <= 0 {
			return fmt.Errorf("scale: tier bandwidths must be positive (site %g, wan %g)",
				c.Tiers.Site.BandwidthBps, c.Tiers.WAN.BandwidthBps)
		}
	}
	if c.Router.LinkLatency != nil {
		for i := 0; i < c.Shards; i++ {
			for j := 0; j < c.Shards; j++ {
				if i == j {
					continue
				}
				if l := c.Router.LinkLatency(i, j); l < 0 {
					return fmt.Errorf("scale: link %d->%d latency %v is negative", i, j, l)
				}
			}
		}
	}
	total := workload.ScaleCommunity(c.Base, c.Factor)
	if total.NumClients < c.Shards {
		return fmt.Errorf("scale: %d clients cannot populate %d shards", total.NumClients, c.Shards)
	}
	return nil
}
