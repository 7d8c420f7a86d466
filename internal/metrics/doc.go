// Package metrics is the reproduction's central, self-describing metric
// registry — the single place where every kernel counter the study reads
// is named, typed, unit-tagged and documented.
//
// The paper's instrument was "approximately 50 counters" added to the
// Sprite kernels, read periodically by a user-level process and
// post-processed into the Section 5 tables. This package makes that
// instrument explicit and machine-readable: each subsystem (fscache,
// server, client, netsim, faults, replay, consistency) registers views
// over its counters at construction time, with a name, a unit and a help
// string, and everything downstream — the cluster report tables, the
// Prometheus/TSV/JSONL dumps, the generated docs/METRICS.md — is a
// projection of this one store.
//
// A registered metric is a pointer to the owning subsystem's counter
// field (the Var forms) or, for values that must be computed, a closure;
// either is read only at snapshot time, so registration adds no
// bookkeeping to the hot paths and the registry can never disagree with
// the authoritative counters. Each family stores its instances as a
// dense column of value sources and label-set references, and label
// strings are rendered only at export, so per-client metrics stay cheap
// at any scale. Snapshots and exports are deterministic: metric
// instances are emitted sorted by (name, labels), integers stay exact, and
// floats render with strconv's shortest round-trip form, so identical
// seeds produce byte-identical dumps regardless of registration order or
// sweep worker count.
//
// The Sampler turns the registry into time series: driven by the
// simulation clock at a configurable interval, it appends one row of
// selected metric values per tick into a bounded ring buffer, exportable
// as TSV, JSONL, or Prometheus text with timestamps. This is what lets a
// single run answer interval-contrast questions (Table 2's 10-second
// versus 10-minute activity) instead of only end-of-run totals.
package metrics
