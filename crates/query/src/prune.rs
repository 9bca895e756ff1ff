//! Candidate pruning: keep each partner's top-k events (§IV).
//!
//! A recommended partner is unlikely to accept an invitation to an event
//! they have no interest in, so for each candidate partner `u'` only their
//! `k` highest-scoring events (`u'·x`) are kept as candidate pairs. This
//! shrinks the transformed space from `|U|·|X|` to `|U|·k` and is the knob
//! behind Fig. 7 (approximation ratio vs. k).

use gem_core::{EventScorer, GemModel};
use gem_ebsn::{EventId, UserId};
use rayon::prelude::*;

/// Ranking order of one partner's scored events: descending score, ties by
/// ascending event id. `total_cmp`, not `partial_cmp().expect(..)`: a NaN
/// score (diverged training, corrupted snapshot) must degrade one partner's
/// ranking, not panic the whole engine build. In this descending order +NaN
/// sorts above +∞ and -NaN below -∞, deterministically.
pub(crate) fn cmp_entry(a: &(f32, EventId), b: &(f32, EventId)) -> std::cmp::Ordering {
    b.0.total_cmp(&a.0).then(a.1.cmp(&b.1))
}

/// One partner's `take` best events over `events`, in ranking order, left
/// in the caller-owned `scored` buffer. The one per-partner top-k: the
/// pruning pass and the incremental engine's maintained tops both come from
/// here, so they agree bit for bit. `#[inline]`: out of line, the scoring
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

/// For each partner, the top-`k` events by `u'·x`. Output pairs are grouped
/// by partner, each group sorted by descending event score.
///
/// `k == 0` returns an empty candidate set; `k >= events.len()` keeps all
/// pairs.
///
/// Partners are independent, so they are pruned in parallel (per-thread
/// reusable score buffer via `map_init`) and the per-partner groups are
/// concatenated sequentially in input order — the output is bit-identical
/// at any thread count.
pub fn top_k_events_per_partner(
    model: &GemModel,
    partners: &[UserId],
    events: &[EventId],
    k: usize,
) -> Vec<(UserId, EventId)> {
    let take = k.min(events.len());
    if take == 0 {
        return Vec::new();
    }
    let per_partner: Vec<Vec<(UserId, EventId)>> = partners
        .par_iter()
        .with_min_len(32)
        .map_init(
            || Vec::with_capacity(events.len()),
            |scored: &mut Vec<(f32, EventId)>, &p| {
                partner_top(model, p, events, take, scored).iter().map(|&(_, x)| (p, x)).collect()
            },
        )
        .collect();
    let mut out = Vec::with_capacity(partners.len() * take);
    for group in per_partner {
        out.extend(group);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::toy_model;

    #[test]
    fn keeps_exactly_k_best_events() {
        let model = toy_model(); // 3 users, 2 events
        let partners = [UserId(0), UserId(1)];
        let events = [EventId(0), EventId(1)];
        let pairs = top_k_events_per_partner(&model, &partners, &events, 1);
        assert_eq!(pairs.len(), 2);
        // u0 = (1.0, 0.5): x0 score 0.7, x1 score 1.05 → best is x1.
        assert_eq!(pairs[0], (UserId(0), EventId(1)));
        // u1 = (0.2, 0.9): x0 score 0.78, x1 score 0.29 → best is x0.
        assert_eq!(pairs[1], (UserId(1), EventId(0)));
    }

    #[test]
    fn k_larger_than_events_keeps_all() {
        let model = toy_model();
        let pairs = top_k_events_per_partner(&model, &[UserId(2)], &[EventId(0), EventId(1)], 10);
        assert_eq!(pairs.len(), 2);
        // Group is sorted by descending score.
        let s0 = model.score_event(pairs[0].0, pairs[0].1);
        let s1 = model.score_event(pairs[1].0, pairs[1].1);
        assert!(s0 >= s1);
    }

    #[test]
    fn k_zero_gives_no_candidates() {
        let model = toy_model();
        assert!(top_k_events_per_partner(&model, &[UserId(0)], &[EventId(0)], 0).is_empty());
    }

    #[test]
    fn empty_partner_or_event_lists() {
        let model = toy_model();
        assert!(top_k_events_per_partner(&model, &[], &[EventId(0)], 3).is_empty());
        assert!(top_k_events_per_partner(&model, &[UserId(0)], &[], 3).is_empty());
    }

    #[test]
    fn pruned_set_is_subset_of_full_cross_product() {
        let model = toy_model();
        let partners: Vec<UserId> = (0..3).map(UserId).collect();
        let events: Vec<EventId> = (0..2).map(EventId).collect();
        let pairs = top_k_events_per_partner(&model, &partners, &events, 1);
        for (p, x) in pairs {
            assert!(partners.contains(&p) && events.contains(&x));
        }
    }
}
