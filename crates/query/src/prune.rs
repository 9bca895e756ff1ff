//! Candidate pruning: keep each partner's top-k events (§IV).
//!
//! A recommended partner is unlikely to accept an invitation to an event
//! they have no interest in, so for each candidate partner `u'` only their
//! `k` highest-scoring events (`u'·x`) are kept as candidate pairs. This
//! shrinks the transformed space from `|U|·|X|` to `|U|·k` and is the knob
//! behind Fig. 7 (approximation ratio vs. k).
//!
//! The output, [`Candidates`], is partner-major with a fixed stride: every
//! partner keeps exactly `take = min(k, events)` events. Each entry's score
//! is `C = u'ᵀx` bit for bit (`score_event` is `dot` widened to `f64` and
//! back), so the transformed space takes the array over as its per-pair
//! column instead of recomputing it, and the incremental engine maintains
//! its tops in the same type.

use gem_core::{EventScorer, GemModel};
use gem_ebsn::{EventId, UserId};
use rayon::prelude::*;
use std::hash::Hash;

/// Ranking order of one partner's scored events: descending score, ties by
/// ascending event id. `total_cmp`, not `partial_cmp().expect(..)`: a NaN
/// score (diverged training, corrupted snapshot) must degrade one partner's
/// ranking, not panic the whole engine build. In this descending order +NaN
/// sorts above +∞ and -NaN below -∞, deterministically.
pub(crate) fn cmp_entry(a: &(f32, EventId), b: &(f32, EventId)) -> std::cmp::Ordering {
    b.0.total_cmp(&a.0).then(a.1.cmp(&b.1))
}

/// One partner's `take` best events over `events`, in ranking order, left
/// in the caller-owned `scored` buffer. The one per-partner top-k: every
/// [`Candidates`] row starts here. `#[inline]`: out of line, the scoring
/// loop of the pruning pass compiled ≈ 10 % slower (`serve_wide` set-up).
#[inline]
pub(crate) fn partner_top<'s>(
    model: &GemModel,
    partner: UserId,
    events: &[EventId],
    take: usize,
    scored: &'s mut Vec<(f32, EventId)>,
) -> &'s [(f32, EventId)] {
    scored.clear();
    scored.extend(events.iter().map(|&x| (model.score_event(partner, x) as f32, x)));
    if 0 < take && take < scored.len() {
        scored.select_nth_unstable_by(take - 1, cmp_entry);
    }
    scored.truncate(take);
    scored.sort_unstable_by(cmp_entry);
    scored
}

/// Fill `rows`, `take` slots a partner, with the tops of `partners` in
/// order through one score buffer. A plain loop, not a closure per row:
/// that form compiled the pruning pass ≈ 13 % slower (`serve_wide` set-up).
fn fill_rows(
    model: &GemModel,
    partners: &[UserId],
    events: &[EventId],
    take: usize,
    rows: &mut [(f32, EventId)],
) {
    let mut scored = Vec::with_capacity(events.len());
    for (row, &p) in rows.chunks_exact_mut(take).zip(partners) {
        row.copy_from_slice(partner_top(model, p, events, take, &mut scored));
    }
}

/// `xs` with repeats dropped, first occurrence kept. Every build passes its
/// pools through here before pruning: no pair enters twice, the budget
/// projects what is built, and a repeat-free pool keeps its order (so its
/// row ids and `TaStats`).
pub(crate) fn unique<T: Copy + Eq + Hash>(xs: &[T]) -> Vec<T> {
    let mut seen = std::collections::HashSet::with_capacity(xs.len());
    xs.iter().copied().filter(|&x| seen.insert(x)).collect()
}

/// A pruned candidate set: the partner pool (repeats dropped) and, for the
/// partner at position `g`, its `take = min(k, events)` best events and
/// their scores `u'ᵀx` in ranking order at `top[g·take .. (g+1)·take]`.
/// Every row holds exactly `take` entries — the type keeps it that way.
#[derive(Debug, Clone)]
pub struct Candidates {
    partners: Vec<UserId>,
    take: usize,
    top: Vec<(f32, EventId)>,
}

impl Candidates {
    /// Prune repeat-free pools (see [`unique`]). Partners are independent,
    /// so blocks of 64 partners' rows are filled in parallel — the output
    /// is bit-identical at any thread count.
    pub(crate) fn prune(
        model: &GemModel,
        partners: Vec<UserId>,
        events: &[EventId],
        k: usize,
    ) -> Self {
        let take = k.min(events.len());
        let mut top = vec![(0.0, EventId(0)); partners.len() * take];
        if take > 0 {
            const BLOCK: usize = 64;
            top.par_chunks_mut(take * BLOCK).enumerate().for_each(|(b, rows)| {
                fill_rows(model, &partners[b * BLOCK..], events, take, rows);
            });
        }
        Self { partners, take, top }
    }

    /// The partner pool, repeats dropped.
    pub(crate) fn partners(&self) -> &[UserId] {
        &self.partners
    }

    /// Entries per partner row.
    pub(crate) fn take(&self) -> usize {
        self.take
    }

    /// Row `g`: partner `g`'s events in ranking order.
    pub(crate) fn row(&self, g: usize) -> &[(f32, EventId)] {
        &self.top[g * self.take..(g + 1) * self.take]
    }

    /// Row `g`, editable in place (its length is fixed).
    pub(crate) fn row_mut(&mut self, g: usize) -> &mut [(f32, EventId)] {
        &mut self.top[g * self.take..(g + 1) * self.take]
    }

    /// Keep each row's best `take` entries (`take` ≤ the current stride):
    /// the top-`take` of a larger `k`, in place.
    pub(crate) fn truncate_rows(&mut self, take: usize) {
        let take = take.min(self.take);
        for g in 0..self.partners.len() {
            self.top.copy_within(g * self.take..g * self.take + take, g * take);
        }
        self.top.truncate(self.partners.len() * take);
        self.take = take;
    }

    /// The partner pool, the stride and the entries, for the space to own.
    pub(crate) fn into_parts(self) -> (Vec<UserId>, usize, Vec<(f32, EventId)>) {
        (self.partners, self.take, self.top)
    }
}

/// For each partner, the top-`k` events by `u'·x`: rows in partner order,
/// each in descending score, repeated partners and events dropped first
/// (first occurrence kept). `k == 0` gives no pairs; `k >= events` keeps
/// every pair.
pub fn top_k_events_per_partner(
    model: &GemModel,
    partners: &[UserId],
    events: &[EventId],
    k: usize,
) -> Candidates {
    Candidates::prune(model, unique(partners), &unique(events), k)
}

#[cfg(test)]
impl Candidates {
    /// Number of candidate pairs.
    pub(crate) fn len(&self) -> usize {
        self.top.len()
    }

    /// Every `(partner, event)` pair, partner-major.
    pub(crate) fn pairs(&self) -> Vec<(UserId, EventId)> {
        let rows = (0..self.partners.len()).map(|g| (self.partners[g], self.row(g)));
        rows.flat_map(|(p, row)| row.iter().map(move |&(_, x)| (p, x))).collect()
    }

    /// The whole structure with scores as bits, for bit-for-bit equality.
    pub(crate) fn to_bits(&self) -> (Vec<UserId>, usize, Vec<(u32, EventId)>) {
        let top = self.top.iter().map(|&(s, x)| (s.to_bits(), x)).collect();
        (self.partners.clone(), self.take, top)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::toy_model;
    use gem_core::math::dot;

    #[test]
    fn keeps_exactly_k_best_events() {
        let model = toy_model(); // 3 users, 2 events
        let partners = [UserId(0), UserId(1)];
        let events = [EventId(0), EventId(1)];
        let pairs = top_k_events_per_partner(&model, &partners, &events, 1).pairs();
        assert_eq!(pairs.len(), 2);
        // u0 = (1.0, 0.5): x0 score 0.7, x1 score 1.05 → best is x1.
        assert_eq!(pairs[0], (UserId(0), EventId(1)));
        // u1 = (0.2, 0.9): x0 score 0.78, x1 score 0.29 → best is x0.
        assert_eq!(pairs[1], (UserId(1), EventId(0)));
    }

    #[test]
    fn k_larger_than_events_keeps_all() {
        let model = toy_model();
        let top = top_k_events_per_partner(&model, &[UserId(2)], &[EventId(0), EventId(1)], 10);
        assert_eq!((top.len(), top.take()), (2, 2));
        // The row is sorted by descending score.
        assert!(top.row(0)[0].0 >= top.row(0)[1].0);
    }

    /// The space keeps a prune score as its `C = u'ᵀx`: they must agree
    /// bit for bit.
    #[test]
    fn scores_are_the_interaction_bit_for_bit() {
        let model = toy_model();
        let partners: Vec<UserId> = (0..3).map(UserId).collect();
        let top = top_k_events_per_partner(&model, &partners, &[EventId(1), EventId(0)], 2);
        for (g, &p) in partners.iter().enumerate() {
            for &(score, x) in top.row(g) {
                let c = dot(model.user_vec(p), model.event_vec(x));
                assert_eq!(score.to_bits(), c.to_bits(), "{p:?} {x:?}");
            }
        }
    }

    #[test]
    fn repeated_partners_and_events_are_dropped() {
        let model = toy_model();
        let partners = [UserId(2), UserId(0), UserId(2)];
        let events = [EventId(1), EventId(1), EventId(0)];
        let top = top_k_events_per_partner(&model, &partners, &events, 3);
        let once = top_k_events_per_partner(&model, &partners[..2], &events[1..], 3);
        assert_eq!(top.partners(), [UserId(2), UserId(0)]);
        assert_eq!(top.to_bits(), once.to_bits());
        assert_eq!(top.len(), 4);
    }

    #[test]
    fn k_zero_gives_no_candidates() {
        let model = toy_model();
        let top = top_k_events_per_partner(&model, &[UserId(0)], &[EventId(0)], 0);
        assert_eq!((top.len(), top.take(), top.partners()), (0, 0, &[UserId(0)][..]));
    }

    #[test]
    fn empty_partner_or_event_lists() {
        let model = toy_model();
        assert_eq!(top_k_events_per_partner(&model, &[], &[EventId(0)], 3).len(), 0);
        assert_eq!(top_k_events_per_partner(&model, &[UserId(0)], &[], 3).len(), 0);
    }

    #[test]
    fn pruned_set_is_subset_of_full_cross_product() {
        let model = toy_model();
        let partners: Vec<UserId> = (0..3).map(UserId).collect();
        let events: Vec<EventId> = (0..2).map(EventId).collect();
        for (p, x) in top_k_events_per_partner(&model, &partners, &events, 1).pairs() {
            assert!(partners.contains(&p) && events.contains(&x));
        }
    }

    #[test]
    fn truncated_rows_are_the_smaller_k_prune() {
        let model = toy_model();
        let partners: Vec<UserId> = (0..3).map(UserId).collect();
        let events = [EventId(0), EventId(1)];
        for take in [2, 1, 0] {
            let mut top = top_k_events_per_partner(&model, &partners, &events, 2);
            top.truncate_rows(take);
            let want = top_k_events_per_partner(&model, &partners, &events, take);
            assert_eq!(top.to_bits(), want.to_bits(), "take {take}");
        }
    }
}
