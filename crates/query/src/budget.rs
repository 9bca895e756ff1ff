//! Memory-budgeted engine construction.
//!
//! The serving engine's resident size is a pure function of the pool sizes
//! (repeats dropped) and the pruning parameter: `pairs = partners ·
//! min(k, events)` candidate pairs at 16 bytes each in the (factored)
//! transformed space and the TA index — the pruning output *is* the space,
//! so there is no separate candidate list — plus one `K`-float row and one
//! id per distinct event and partner. [`MemBudget`] turns the `space_mib`
//! number every bench already reports into a *hard constraint* at build
//! time: the build projects its footprint up front, then verifies the
//! actual bytes after every phase. Exceeding the budget either fails the
//! build ([`BudgetPolicy::Fail`]) or degrades `k` to the largest value that
//! fits ([`BudgetPolicy::DegradeK`]) — the §IV pruning knob is exactly the
//! quality-for-space dial the paper provides, so degradation stays on the
//! curve the evaluation section characterizes.

/// What a budgeted build does when the projected footprint exceeds the
/// limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetPolicy {
    /// Refuse to build: the caller wants the requested quality or nothing.
    Fail,
    /// Shrink the pruning parameter `k` to the largest value whose
    /// projected footprint fits (still an error if even `k = 1` does not).
    DegradeK,
}

/// A hard byte ceiling on the engine's space + index footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemBudget {
    /// The ceiling, in bytes, on the sum of transformed-space and TA-index
    /// bytes (the model itself is not counted: it exists regardless of how
    /// the engine is built).
    pub limit_bytes: usize,
    /// What to do when the projection exceeds the ceiling.
    pub policy: BudgetPolicy,
}

impl MemBudget {
    /// A fail-fast budget of `mib` mebibytes.
    pub fn fail_at_mib(mib: usize) -> Self {
        Self { limit_bytes: mib << 20, policy: BudgetPolicy::Fail }
    }

    /// A degrade-`k` budget of `mib` mebibytes.
    pub fn degrade_at_mib(mib: usize) -> Self {
        Self { limit_bytes: mib << 20, policy: BudgetPolicy::DegradeK }
    }

    /// Resolve the pruning parameter a budgeted build will actually use:
    /// `requested_k` when its projection fits, a degraded `k` under
    /// [`BudgetPolicy::DegradeK`], or [`BuildError::BudgetExceeded`].
    pub(crate) fn resolve_k(
        &self,
        partners: usize,
        events: usize,
        dim: usize,
        requested_k: usize,
    ) -> Result<usize, BuildError> {
        let needed = Projection::new(partners, events, dim, requested_k).total();
        if needed <= self.limit_bytes {
            return Ok(requested_k);
        }
        match self.policy {
            BudgetPolicy::Fail => Err(BuildError::BudgetExceeded {
                phase: "projection",
                needed_bytes: needed,
                limit_bytes: self.limit_bytes,
            }),
            BudgetPolicy::DegradeK => {
                let fits = |k: usize| {
                    Projection::new(partners, events, dim, k).total() <= self.limit_bytes
                };
                if requested_k == 0 || !fits(1) {
                    return Err(BuildError::BudgetExceeded {
                        phase: "projection",
                        needed_bytes: Projection::new(partners, events, dim, 1.min(requested_k))
                            .total(),
                        limit_bytes: self.limit_bytes,
                    });
                }
                // Projected bytes are monotone in k (pairs = partners ·
                // min(k, events)): binary-search the largest fitting k.
                let (mut lo, mut hi) = (1usize, requested_k);
                while lo < hi {
                    let mid = lo + (hi - lo).div_ceil(2);
                    if fits(mid) {
                        lo = mid;
                    } else {
                        hi = mid - 1;
                    }
                }
                Ok(lo)
            }
        }
    }
}

/// Why a budgeted engine build failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildError {
    /// The (projected or actual) footprint exceeds the budget and the
    /// policy does not allow — or cannot find — a degraded `k` that fits.
    BudgetExceeded {
        /// Which accounting step tripped: `"projection"` (before any work)
        /// or a build phase (`"transform"`, `"index"`).
        phase: &'static str,
        /// Bytes the step needed.
        needed_bytes: usize,
        /// The configured ceiling.
        limit_bytes: usize,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::BudgetExceeded { phase, needed_bytes, limit_bytes } => write!(
                f,
                "engine build exceeds memory budget at {phase}: needs {needed_bytes} bytes, \
                 limit {limit_bytes}"
            ),
        }
    }
}

impl std::error::Error for BuildError {}

/// Byte accounting of one (projected or completed) engine build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildReport {
    /// The pruning parameter the caller asked for.
    pub requested_k: usize,
    /// The pruning parameter actually used (smaller than `requested_k`
    /// only under [`BudgetPolicy::DegradeK`]).
    pub effective_k: usize,
    /// Bytes of the transformed space: per pair its interaction value and
    /// event row, plus the two shared row matrices and their ids.
    pub space_bytes: usize,
    /// Bytes of the TA index (the two stored orderings of the pairs).
    pub index_bytes: usize,
    /// Sum of the two components above.
    pub total_bytes: usize,
    /// The budget ceiling the build ran under (`None` for unbudgeted
    /// builds, which record the same report through the `build.*` gauges).
    pub limit_bytes: Option<usize>,
}

/// Conservative up-front byte projection of an engine build.
///
/// Every component is an exact or over-counting closed form of the real
/// structures, so `actual ≤ projected` always holds and a build admitted by
/// the projection cannot trip the post-phase checks:
///
/// * transformed space: `pairs` × 8 (interaction value, event row) plus,
///   per group, one `dim`-float row in the matrices the query computes its
///   keys from and its 4-byte id;
/// * TA index: `pairs` × 8 (two u32-per-pair orderings) plus one CSR
///   offset per event group and a terminator.
///
/// Groups are counted as at most `min(pairs, events)` event groups and
/// `min(pairs, partners)` partner groups — an upper bound, since distinct
/// groups can collapse.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Projection {
    /// Bytes of the transformed space.
    pub(crate) space_bytes: usize,
    /// Bytes of the TA index (upper bound).
    pub(crate) index_bytes: usize,
}

impl Projection {
    pub(crate) fn new(partners: usize, events: usize, dim: usize, k: usize) -> Self {
        let pairs = partners.saturating_mul(k.min(events));
        let event_groups = pairs.min(events);
        let partner_groups = pairs.min(partners);
        Self {
            space_bytes: pairs
                .saturating_mul(8)
                .saturating_add((event_groups + partner_groups).saturating_mul(dim * 4 + 4)),
            index_bytes: pairs.saturating_mul(8).saturating_add((event_groups + 1) * 4),
        }
    }

    pub(crate) fn total(&self) -> usize {
        self.space_bytes.saturating_add(self.index_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_k_passes_through_when_projection_fits() {
        let budget = MemBudget { limit_bytes: 1 << 30, policy: BudgetPolicy::Fail };
        assert_eq!(budget.resolve_k(100, 50, 8, 10).unwrap(), 10);
    }

    #[test]
    fn fail_policy_rejects_oversized_builds_with_numbers() {
        let budget = MemBudget { limit_bytes: 1024, policy: BudgetPolicy::Fail };
        let err = budget.resolve_k(1000, 1000, 8, 10).unwrap_err();
        let BuildError::BudgetExceeded { phase, needed_bytes, limit_bytes } = err;
        assert_eq!(phase, "projection");
        assert_eq!(limit_bytes, 1024);
        assert!(needed_bytes > 1024);
    }

    #[test]
    fn degrade_policy_finds_the_largest_fitting_k() {
        let (partners, events, dim) = (100usize, 1000usize, 8usize);
        // Budget sized to admit exactly k = 7.
        let limit = Projection::new(partners, events, dim, 7).total();
        let budget = MemBudget { limit_bytes: limit, policy: BudgetPolicy::DegradeK };
        assert_eq!(budget.resolve_k(partners, events, dim, 20).unwrap(), 7);
        // And k at or under the ceiling is untouched.
        assert_eq!(budget.resolve_k(partners, events, dim, 7).unwrap(), 7);
        assert_eq!(budget.resolve_k(partners, events, dim, 3).unwrap(), 3);
    }

    #[test]
    fn degrade_policy_still_errors_when_even_k1_is_too_big() {
        let budget = MemBudget { limit_bytes: 64, policy: BudgetPolicy::DegradeK };
        let err = budget.resolve_k(1000, 1000, 8, 10).unwrap_err();
        assert!(matches!(err, BuildError::BudgetExceeded { phase: "projection", .. }));
    }

    #[test]
    fn projection_is_monotone_in_k_and_plateaus_at_the_event_count() {
        let mut last = 0;
        for k in 1..30 {
            let total = Projection::new(50, 20, 8, k).total();
            assert!(total >= last, "k {k}");
            last = total;
        }
        assert_eq!(
            Projection::new(50, 20, 8, 20).total(),
            Projection::new(50, 20, 8, 29).total(),
            "k beyond the event pool adds nothing"
        );
    }

    #[test]
    fn mib_constructors_shift_correctly() {
        assert_eq!(MemBudget::fail_at_mib(2).limit_bytes, 2 * 1024 * 1024);
        assert_eq!(MemBudget::fail_at_mib(2).policy, BudgetPolicy::Fail);
        assert_eq!(MemBudget::degrade_at_mib(1).policy, BudgetPolicy::DegradeK);
    }

    #[test]
    fn build_error_displays_the_numbers() {
        let err = BuildError::BudgetExceeded { phase: "index", needed_bytes: 9, limit_bytes: 5 };
        let msg = err.to_string();
        assert!(msg.contains("index") && msg.contains('9') && msg.contains('5'), "{msg}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::{EngineMetrics, RecommendationEngine, ServeTracing};
    use gem_core::GemModel;
    use gem_ebsn::{EventId, UserId};
    use proptest::prelude::*;
    use rand::RngExt;

    proptest! {
        /// The projection is what admits a build, so it must never
        /// under-count one: every component of a real build's report stays
        /// at or under its projected bytes, for any pool shape — including
        /// pools that repeat a partner or an event and `k` past the event
        /// count. The projection sees the pools with repeats dropped, as
        /// the build does.
        #[test]
        fn projection_bounds_a_real_build(
            dim in 1usize..9,
            np in 1usize..40,
            nx in 1usize..20,
            k in 0usize..24,
            repeat in 0usize..3,
            repeat_events in 0usize..3,
            seed in 0u64..1000,
        ) {
            let mut rng = gem_sampling::rng_from_seed(seed);
            let users: Vec<f32> = (0..np * dim).map(|_| rng.random::<f32>() - 0.3).collect();
            let events: Vec<f32> = (0..nx * dim).map(|_| rng.random::<f32>() - 0.3).collect();
            let model = GemModel::from_raw(dim, users, events, vec![], vec![], vec![]);
            let mut partners: Vec<UserId> = (0..np as u32).map(UserId).collect();
            partners.extend((0..repeat.min(np) as u32).map(UserId));
            let mut event_ids: Vec<EventId> = (0..nx as u32).map(EventId).collect();
            event_ids.extend((0..repeat_events.min(nx) as u32).map(EventId));
            let (_, report) = RecommendationEngine::build_within_budget(
                model,
                &partners,
                &event_ids,
                k,
                MemBudget::fail_at_mib(64),
                EngineMetrics::disabled(),
                ServeTracing::disabled(),
            )
            .expect("a 64 MiB ceiling admits every pool this test draws");
            let projected = Projection::new(np, nx, dim, k);
            prop_assert!(report.space_bytes <= projected.space_bytes);
            prop_assert!(
                report.index_bytes <= projected.index_bytes,
                "index {} > projected {}", report.index_bytes, projected.index_bytes
            );
            prop_assert!(report.total_bytes <= projected.total());
        }
    }
}
