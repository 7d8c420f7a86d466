package consistency

import "spritefs/internal/metrics"

// RegisterMetrics registers a Table 12 overhead result into the central
// registry, one instance per algorithm (alg label). The consistency
// simulators are offline — they run over a SharedTrace after the fact — so
// unlike the live subsystems this registers a finished result, letting the
// overhead comparison ride the same export formats as everything else.
func (o *Overhead) RegisterMetrics(r *metrics.Registry) {
	r.IntVar(metrics.Desc{Name: "spritefs_consistency_app_bytes_total", Unit: "bytes",
		Help: "Bytes applications requested on write-shared files during sharing (Table 12 normalization base).",
		Kind: metrics.Counter},
		nil, &o.AppBytes)
	r.IntVar(metrics.Desc{Name: "spritefs_consistency_app_ops_total", Unit: "ops",
		Help: "Application read/write events during sharing.",
		Kind: metrics.Counter},
		nil, &o.AppOps)
	for a := 0; a < NumAlgs; a++ {
		ls := metrics.Labels{metrics.L("alg", AlgNames[a])}
		r.IntVar(metrics.Desc{Name: "spritefs_consistency_bytes_total", Unit: "bytes",
			Help: "Bytes each consistency algorithm transferred for the same shared accesses (Table 12 second column, unnormalized).",
			Kind: metrics.Counter},
			ls, &o.Bytes[a])
		r.IntVar(metrics.Desc{Name: "spritefs_consistency_rpcs_total", Unit: "ops",
			Help: "RPCs each consistency algorithm issued (Table 12 third column, unnormalized).",
			Kind: metrics.Counter},
			ls, &o.RPCs[a])
	}
}
