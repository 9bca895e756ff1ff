//! Exhaustive top-n scoring (the paper's GEM-BF baseline).
//!
//! Scores every candidate pair against the query and selects the best `n`.
//! Used both as the efficiency baseline of Table VI and as the correctness
//! oracle for the TA implementation. It scores through the same
//! `A + B + C` sum as TA's random access (`TransformedSpace::score`), so
//! the two methods' scores are bit-identical and only the set of pairs
//! examined differs. It walks the space one partner row at a time, so a
//! row's `B` is read once and no pair pays a division for its row.

use crate::transform::TransformedSpace;
use gem_ebsn::{EventId, UserId};

/// Reusable working memory for [`BruteForce::top_n_with`]: the per-query
/// A / B keys (one per distinct event / partner) and the filtered
/// `(score, partner, event)` selection buffer. The latter is
/// `O(candidates)` — reusing it keeps large per-query allocations (which
/// glibc serves via mmap/munmap, page-faulting every touch) off the
/// serving path.
#[derive(Debug, Default)]
pub struct BruteScratch {
    a_keys: Vec<f32>,
    b_keys: Vec<f32>,
    scored: Vec<(f32, UserId, EventId)>,
}

impl BruteScratch {
    /// Empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Brute-force scorer over a transformed space.
#[derive(Debug, Clone, Copy)]
pub struct BruteForce<'s> {
    space: &'s TransformedSpace,
}

impl<'s> BruteForce<'s> {
    /// Wrap a space (no preprocessing needed).
    pub fn new(space: &'s TransformedSpace) -> Self {
        Self { space }
    }

    /// Exact top-`n` by scanning all candidates, with caller-owned scratch.
    /// Candidates rejected by `filter` are skipped. Results are sorted by
    /// descending score. The A and B keys are filled by the same two
    /// `dot_batch` sweeps over the space's row matrices that TA runs; every
    /// pair the filter admits is then scored by two lookups and its `C` and
    /// selected from; only the final `n` results are copied out.
    pub fn top_n_with(
        &self,
        q: &[f32],
        n: usize,
        mut filter: impl FnMut(UserId, EventId) -> bool,
        scratch: &mut BruteScratch,
    ) -> Vec<(f32, UserId, EventId)> {
        let space = self.space;
        assert_eq!(q.len(), space.dim(), "query dimensionality mismatch");
        space.fill_keys(q, &mut scratch.a_keys, &mut scratch.b_keys);
        let qw = q[2 * space.k()];
        let scored = &mut scratch.scored;
        scored.clear();
        for ((p, row), &b) in space.partner_rows().zip(&scratch.b_keys) {
            for &(c, event_row) in row {
                let x = space.event_ids[event_row as usize];
                if !filter(p, x) {
                    continue;
                }
                // `TransformedSpace::score`, with the row's `B` hoisted.
                scored.push((scratch.a_keys[event_row as usize] + b + c * qw, p, x));
            }
        }
        let take = n.min(scored.len());
        if take == 0 {
            return Vec::new();
        }
        // `total_cmp`: NaN scores rank deterministically (+NaN above +∞,
        // -NaN below -∞) instead of panicking the selection.
        if take < scored.len() {
            scored.select_nth_unstable_by(take - 1, |a, b| {
                b.0.total_cmp(&a.0).then((a.1, a.2).cmp(&(b.1, b.2)))
            });
        }
        let top = &mut scored[..take];
        top.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then((a.1, a.2).cmp(&(b.1, b.2))));
        top.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prune::top_k_events_per_partner;
    use crate::transform::toy_model;

    fn space() -> TransformedSpace {
        let model = toy_model();
        let partners: Vec<UserId> = (0..3).map(UserId).collect();
        let events: Vec<EventId> = (0..2).map(EventId).collect();
        TransformedSpace::build(&model, &top_k_events_per_partner(&model, &partners, &events, 2))
    }

    #[test]
    fn returns_all_when_n_exceeds_candidates() {
        let s = space();
        let model = toy_model();
        let q = TransformedSpace::query_vector(&model, UserId(0));
        let results =
            BruteForce::new(&s).top_n_with(&q, 100, |_, _| true, &mut BruteScratch::new());
        assert_eq!(results.len(), 6);
    }

    #[test]
    fn top_1_is_the_argmax() {
        let s = space();
        let model = toy_model();
        let q = TransformedSpace::query_vector(&model, UserId(1));
        let brute = BruteForce::new(&s);
        let top1 = brute.top_n_with(&q, 1, |_, _| true, &mut BruteScratch::new());
        let all = brute.top_n_with(&q, 6, |_, _| true, &mut BruteScratch::new());
        assert_eq!(top1[0], all[0]);
    }

    #[test]
    fn filter_is_respected() {
        let s = space();
        let model = toy_model();
        let q = TransformedSpace::query_vector(&model, UserId(2));
        let results =
            BruteForce::new(&s).top_n_with(&q, 10, |p, _| p != UserId(2), &mut BruteScratch::new());
        assert_eq!(results.len(), 4);
        assert!(results.iter().all(|r| r.1 != UserId(2)));
    }

    #[test]
    fn sorted_descending_with_deterministic_ties() {
        let s = space();
        let model = toy_model();
        let q = TransformedSpace::query_vector(&model, UserId(0));
        let results = BruteForce::new(&s).top_n_with(&q, 6, |_, _| true, &mut BruteScratch::new());
        for w in results.windows(2) {
            assert!(w[0].0 > w[1].0 || (w[0].0 == w[1].0 && (w[0].1, w[0].2) < (w[1].1, w[1].2)));
        }
    }
}
