//! Pre-registered gem-obs handles for the serving path.
//!
//! All handles are resolved once at engine build; the query hot path only
//! touches relaxed atomics (and one `Instant` pair when enabled), never the
//! registry lock — see DESIGN.md §Observability for the overhead budget.

use crate::ta::TaStats;
use gem_obs::{Counter, Gauge, Histogram, MetricsRegistry};

/// Metric handles used by [`crate::RecommendationEngine`].
///
/// Built from a registry with [`EngineMetrics::register`] (fixed metric
/// names, documented below) or as a no-op with [`EngineMetrics::disabled`],
/// which is the default for engines built without observability.
#[derive(Debug, Clone)]
pub struct EngineMetrics {
    /// False for the no-op instance: lets the hot path skip clock reads.
    pub(crate) enabled: bool,
    /// `serve.queries` — queries answered (both methods, successes only).
    pub(crate) queries: Counter,
    /// `serve.query_ns.ta` — per-query latency of GEM-TA, nanoseconds.
    pub(crate) query_ns_ta: Histogram,
    /// `serve.query_ns.bf` — per-query latency of GEM-BF, nanoseconds.
    pub(crate) query_ns_bf: Histogram,
    /// `serve.ta_scored` — total TA random accesses (Table VI's work).
    pub(crate) ta_scored: Counter,
    /// `serve.ta_sorted_accesses` — total TA sorted-access pops.
    pub(crate) ta_sorted_accesses: Counter,
    /// `serve.ta_scored_per_query` — random accesses of each TA query: the
    /// distribution behind the `serve.ta_scored` total.
    pub(crate) ta_scored_per_query: Histogram,
    /// `serve.ta_sorted_accesses_per_query` — sorted-access pops of each TA
    /// query.
    pub(crate) ta_sorted_accesses_per_query: Histogram,
    /// `serve.invalid_users` — queries skipped for an out-of-range user.
    pub(crate) invalid_users: Counter,
    /// `serve.deadline_queries` — queries served with a time budget.
    pub(crate) deadline_queries: Counter,
    /// `serve.degraded` — deadline queries that expired and returned a
    /// pruned (verified-prefix) result instead of the exact top-n.
    pub(crate) degraded: Counter,
    /// `build.prune_ns` — wall-clock of the pruning phase, last build.
    pub(crate) build_prune_ns: Gauge,
    /// `build.transform_ns` — wall-clock of the space transformation.
    pub(crate) build_transform_ns: Gauge,
    /// `build.index_ns` — wall-clock of the TA index build.
    pub(crate) build_index_ns: Gauge,
    /// `build.candidate_pairs` — candidate pairs after pruning, last build.
    pub(crate) build_candidate_pairs: Gauge,
    /// `build.space_bytes` — transformed-space bytes, last build.
    pub(crate) build_space_bytes: Gauge,
    /// `build.index_bytes` — TA-index bytes, last build.
    pub(crate) build_index_bytes: Gauge,
    /// `build.total_bytes` — space + index bytes, last build.
    pub(crate) build_total_bytes: Gauge,
    /// `build.budget_limit_bytes` — the [`crate::MemBudget`] ceiling of the
    /// last *budgeted* build (untouched by unbudgeted builds).
    pub(crate) build_budget_limit_bytes: Gauge,
    /// `build.prune_k` — the effective pruning parameter of the last build
    /// (smaller than requested when a budget degraded it).
    pub(crate) build_prune_k: Gauge,
    /// `maint.adds` — events added through incremental maintenance.
    pub(crate) maint_adds: Counter,
    /// `maint.retires` — events retired through incremental maintenance.
    pub(crate) maint_retires: Counter,
    /// `maint.rebuilds` — full index rebuilds absorbed by maintenance.
    pub(crate) maint_rebuilds: Counter,
    /// `maint.delta_pairs` — candidate pairs currently served from the
    /// delta overlay rather than the base TA index.
    pub(crate) maint_delta_pairs: Gauge,
    /// `maint.removed_pairs` — base-index pairs currently masked out.
    pub(crate) maint_removed_pairs: Gauge,
}

impl EngineMetrics {
    /// Resolve all handles against `registry` under the fixed names above.
    /// A disabled registry yields no-op handles (same as
    /// [`Self::disabled`]).
    pub fn register(registry: &MetricsRegistry) -> Self {
        Self {
            enabled: registry.is_enabled(),
            queries: registry.counter("serve.queries"),
            query_ns_ta: registry.histogram("serve.query_ns.ta"),
            query_ns_bf: registry.histogram("serve.query_ns.bf"),
            ta_scored: registry.counter("serve.ta_scored"),
            ta_sorted_accesses: registry.counter("serve.ta_sorted_accesses"),
            ta_scored_per_query: registry.histogram("serve.ta_scored_per_query"),
            ta_sorted_accesses_per_query: registry.histogram("serve.ta_sorted_accesses_per_query"),
            invalid_users: registry.counter("serve.invalid_users"),
            deadline_queries: registry.counter("serve.deadline_queries"),
            degraded: registry.counter("serve.degraded"),
            build_prune_ns: registry.gauge("build.prune_ns"),
            build_transform_ns: registry.gauge("build.transform_ns"),
            build_index_ns: registry.gauge("build.index_ns"),
            build_candidate_pairs: registry.gauge("build.candidate_pairs"),
            build_space_bytes: registry.gauge("build.space_bytes"),
            build_index_bytes: registry.gauge("build.index_bytes"),
            build_total_bytes: registry.gauge("build.total_bytes"),
            build_budget_limit_bytes: registry.gauge("build.budget_limit_bytes"),
            build_prune_k: registry.gauge("build.prune_k"),
            maint_adds: registry.counter("maint.adds"),
            maint_retires: registry.counter("maint.retires"),
            maint_rebuilds: registry.counter("maint.rebuilds"),
            maint_delta_pairs: registry.gauge("maint.delta_pairs"),
            maint_removed_pairs: registry.gauge("maint.removed_pairs"),
        }
    }

    /// No-op handles: every record is a branch and nothing else.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            queries: Counter::disabled(),
            query_ns_ta: Histogram::disabled(),
            query_ns_bf: Histogram::disabled(),
            ta_scored: Counter::disabled(),
            ta_sorted_accesses: Counter::disabled(),
            ta_scored_per_query: Histogram::disabled(),
            ta_sorted_accesses_per_query: Histogram::disabled(),
            invalid_users: Counter::disabled(),
            deadline_queries: Counter::disabled(),
            degraded: Counter::disabled(),
            build_prune_ns: Gauge::disabled(),
            build_transform_ns: Gauge::disabled(),
            build_index_ns: Gauge::disabled(),
            build_candidate_pairs: Gauge::disabled(),
            build_space_bytes: Gauge::disabled(),
            build_index_bytes: Gauge::disabled(),
            build_total_bytes: Gauge::disabled(),
            build_budget_limit_bytes: Gauge::disabled(),
            build_prune_k: Gauge::disabled(),
            maint_adds: Counter::disabled(),
            maint_retires: Counter::disabled(),
            maint_rebuilds: Counter::disabled(),
            maint_delta_pairs: Gauge::disabled(),
            maint_removed_pairs: Gauge::disabled(),
        }
    }

    /// True when handles record somewhere.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record one TA query's work: the running totals and the per-query
    /// histograms beside them.
    pub(crate) fn record_ta_work(&self, stats: &TaStats) {
        self.ta_scored.add(stats.scored as u64);
        self.ta_sorted_accesses.add(stats.sorted_accesses as u64);
        self.ta_scored_per_query.record(stats.scored as u64);
        self.ta_sorted_accesses_per_query.record(stats.sorted_accesses as u64);
    }
}

impl Default for EngineMetrics {
    fn default() -> Self {
        Self::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_resolves_all_fixed_names() {
        let reg = MetricsRegistry::new();
        let m = EngineMetrics::register(&reg);
        assert!(m.is_enabled());
        m.queries.inc();
        m.query_ns_ta.record(1000);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("serve.queries"), 1);
        assert_eq!(snap.histogram("serve.query_ns.ta").unwrap().count, 1);
        // Every documented name is registered up front, even if untouched.
        for name in [
            "serve.queries",
            "serve.query_ns.ta",
            "serve.query_ns.bf",
            "serve.ta_scored",
            "serve.ta_sorted_accesses",
            "serve.ta_scored_per_query",
            "serve.ta_sorted_accesses_per_query",
            "serve.invalid_users",
            "serve.deadline_queries",
            "serve.degraded",
            "build.prune_ns",
            "build.transform_ns",
            "build.index_ns",
            "build.candidate_pairs",
            "build.space_bytes",
            "build.index_bytes",
            "build.total_bytes",
            "build.budget_limit_bytes",
            "build.prune_k",
            "maint.adds",
            "maint.retires",
            "maint.rebuilds",
            "maint.delta_pairs",
            "maint.removed_pairs",
        ] {
            assert!(snap.get(name).is_some(), "{name} missing");
        }
    }

    #[test]
    fn disabled_metrics_record_nothing() {
        let m = EngineMetrics::disabled();
        assert!(!m.is_enabled());
        m.queries.inc();
        assert_eq!(m.queries.get(), 0);
    }

    #[test]
    fn registering_against_disabled_registry_is_noop() {
        let reg = MetricsRegistry::disabled();
        let m = EngineMetrics::register(&reg);
        assert!(!m.is_enabled());
        m.ta_scored.add(50);
        assert!(reg.snapshot().entries.is_empty());
    }
}
