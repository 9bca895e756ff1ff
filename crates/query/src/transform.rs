//! The space transformation of §IV, stored factored.
//!
//! Each event-partner pair `(x, u')` is one point
//! `p_{xu'} = (x⃗, u'⃗, u'ᵀx)` in `2K+1` dimensions; the target user becomes
//! `q_u = (u⃗, u⃗, 1)`. Then
//!
//! ```text
//! q_u · p_{xu'} = u·x + u·u' + u'ᵀx  =  the Eq. 8 triple score.
//! ```
//!
//! The first `2K` coordinates of a point are copies of two embedding rows
//! that thousands of pairs share, so the points are never materialised:
//! the space keeps one `K`-float row per *distinct* candidate event and
//! partner, and per pair only the one coordinate that is its own,
//! `C = u'ᵀx`, and its event's row id — 8 bytes. The space *is* the prune
//! output ([`Candidates`]) taken over in place: its scores are the `C`s,
//! each event id becomes its row id, and the fixed stride makes pair `i`'s
//! partner row `i / take`, so no pair identity or partner id is stored. A
//! score is `A[event row] + B[partner row] + C` after two [`dot_batch`]
//! sweeps over the row matrices (`TransformedSpace::score`) — the three
//! products of `q · p`, summed in one fixed order for every retrieval
//! method.
//!
//! The transformation is computed offline once per model snapshot.

use crate::prune::Candidates;
use gem_core::math::dot_batch;
use gem_core::GemModel;
use gem_ebsn::{EventId, UserId};

/// The transformed candidate space: per pair its `C` and event row, in the
/// pruning pass's partner-major order; per distinct event / partner one
/// embedding row.
#[derive(Debug, Clone)]
pub struct TransformedSpace {
    k: usize,
    /// Pairs per partner row: pair `i` is partner row `i / take`'s.
    pub(crate) take: usize,
    /// `(C = u'ᵀx, event row)` of each pair.
    pub(crate) pairs: Vec<(f32, u32)>,
    /// The partner of each partner row (empty when there are no pairs).
    partners: Vec<UserId>,
    /// The event of each event row, in first-seen pair order.
    pub(crate) event_ids: Vec<EventId>,
    /// Vectors of the event rows, row-major `rows × K`.
    event_vecs: Vec<f32>,
    /// Vectors of the partner rows, same layout.
    partner_vecs: Vec<f32>,
}

impl TransformedSpace {
    /// Build the space for a pruned candidate set (a copy of it; the engine
    /// builds hand theirs over).
    pub fn build(model: &GemModel, candidates: &Candidates) -> Self {
        Self::from_candidates(model, candidates.clone())
    }

    /// Take `candidates` over: each event id is replaced in place by its
    /// row id, assigned in one sequential scan in first-seen pair order
    /// (TA breaks key ties by row id, so its work counters depend on that
    /// order) through an id → row table sized from the model.
    pub(crate) fn from_candidates(model: &GemModel, candidates: Candidates) -> Self {
        let (mut partners, take, top) = candidates.into_parts();
        if take == 0 {
            partners.clear();
        }
        let mut row_of = vec![u32::MAX; model.num_events()];
        let (mut event_ids, mut event_vecs) = (Vec::new(), Vec::new());
        let pairs = top
            .into_iter()
            .map(|(c, x)| {
                let row = &mut row_of[x.index()];
                if *row == u32::MAX {
                    *row = event_ids.len() as u32;
                    event_ids.push(x);
                    event_vecs.extend_from_slice(model.event_vec(x));
                }
                (c, *row)
            })
            .collect();
        let partner_vecs = partners.iter().flat_map(|&p| model.user_vec(p)).copied().collect();
        Self { k: model.dim, take, pairs, partners, event_ids, event_vecs, partner_vecs }
    }

    /// The query point `q_u = (u, u, 1)` for a target user.
    pub fn query_vector(model: &GemModel, u: UserId) -> Vec<f32> {
        let mut q = Vec::new();
        Self::query_vector_into(model, u, &mut q);
        q
    }

    /// Write the query point into a caller-owned buffer (cleared first).
    /// Serving loops reuse one buffer across queries instead of allocating.
    pub fn query_vector_into(model: &GemModel, u: UserId, out: &mut Vec<f32>) {
        let uv = model.user_vec(u);
        out.clear();
        out.reserve(2 * uv.len() + 1);
        out.extend_from_slice(uv);
        out.extend_from_slice(uv);
        out.push(1.0);
    }

    /// Embedding dimension `K` of the underlying model.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Dimensionality of the transformed space (`2K+1`).
    pub fn dim(&self) -> usize {
        2 * self.k + 1
    }

    /// Number of candidate points.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True if there are no candidates.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The `(partner, event)` identity of candidate `i`.
    #[inline]
    pub fn pair(&self, i: usize) -> (UserId, EventId) {
        (self.partners[i / self.take], self.event_ids[self.pairs[i].1 as usize])
    }

    /// Partner rows in order: each row's partner and its `take` pairs.
    pub(crate) fn partner_rows(&self) -> impl Iterator<Item = (UserId, &[(f32, u32)])> {
        self.partners.iter().copied().zip(self.pairs.chunks_exact(self.take.max(1)))
    }

    /// Whether partner row `g` holds event `x`: a scan of its `take` pairs.
    pub(crate) fn serves(&self, g: usize, x: EventId) -> bool {
        let row = &self.pairs[g * self.take..(g + 1) * self.take];
        row.iter().any(|&(_, r)| self.event_ids[r as usize] == x)
    }

    /// Number of distinct candidate events (rows of the event matrix).
    pub(crate) fn num_events(&self) -> usize {
        self.event_ids.len()
    }

    /// Number of distinct candidate partners.
    pub(crate) fn num_partners(&self) -> usize {
        self.partners.len()
    }

    /// The per-query composite keys, `a_keys[g] = u · x_g` over the event
    /// rows and `b_keys[g] = u · u'_g` over the partner rows: one
    /// [`dot_batch`] sweep each into reused buffers. `dot_batch` runs the
    /// same per-row kernel as `dot`, so a key is bit-identical to the
    /// row-at-a-time product on every SIMD backend.
    pub(crate) fn fill_keys(&self, q: &[f32], a_keys: &mut Vec<f32>, b_keys: &mut Vec<f32>) {
        let u = &q[0..self.k];
        a_keys.resize(self.num_events(), 0.0);
        dot_batch(u, &self.event_vecs, a_keys);
        b_keys.resize(self.num_partners(), 0.0);
        dot_batch(u, &self.partner_vecs, b_keys);
    }

    /// Score of candidate `i` given the keys of [`Self::fill_keys`] and the
    /// query's last coordinate `qw`: the one scoring expression, shared by
    /// TA's random access, the exhaustive scan (which hoists the partner
    /// row's `B`) and (over the model's rows) the delta overlay, so their
    /// scores compare bit for bit.
    #[inline]
    pub(crate) fn score(&self, i: usize, a_keys: &[f32], b_keys: &[f32], qw: f32) -> f32 {
        let (c, row) = self.pairs[i];
        a_keys[row as usize] + b_keys[i / self.take] + c * qw
    }

    /// Approximate memory footprint in bytes (paper's storage-cost note):
    /// 8 per pair plus, per distinct event and partner, its `K`-float row
    /// and its id.
    pub fn bytes(&self) -> usize {
        let rows = self.event_ids.len() + self.partners.len();
        self.pairs.len() * 8 + (self.event_vecs.len() + self.partner_vecs.len() + rows) * 4
    }
}

#[cfg(test)]
impl TransformedSpace {
    /// The expanded `2K+1` point of candidate `i`, rebuilt from its rows:
    /// `q · point(i)` is the oracle the factored score is tested against.
    pub(crate) fn point(&self, i: usize) -> Vec<f32> {
        let k = self.k;
        let ((c, eg), pg) = (self.pairs[i], i / self.take);
        let mut p = self.event_vecs[eg as usize * k..(eg as usize + 1) * k].to_vec();
        p.extend_from_slice(&self.partner_vecs[pg * k..(pg + 1) * k]);
        p.push(c);
        p
    }
}

#[cfg(test)]
pub(crate) use tests::toy_model;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prune::top_k_events_per_partner;
    use gem_core::math::dot;
    use gem_core::EventScorer;

    pub(crate) fn toy_model() -> GemModel {
        // dim 2; 3 users, 2 events; strictly non-negative (post-ReLU).
        GemModel::from_raw(
            2,
            vec![1.0, 0.5, 0.2, 0.9, 0.7, 0.0],
            vec![0.3, 0.8, 1.0, 0.1],
            vec![],
            vec![],
            vec![],
        )
    }

    #[test]
    fn transformed_dot_equals_triple_score() {
        let model = toy_model();
        let partners: Vec<UserId> = (0..3).map(UserId).collect();
        let events: Vec<EventId> = (0..2).map(EventId).collect();
        let space = TransformedSpace::build(
            &model,
            &top_k_events_per_partner(&model, &partners, &events, 2),
        );
        assert_eq!((space.dim(), space.len()), (5, 6));
        for u in 0..3u32 {
            let q = TransformedSpace::query_vector(&model, UserId(u));
            for i in 0..space.len() {
                let (partner, event) = space.pair(i);
                let via_space = dot(&q, &space.point(i)) as f64;
                let direct = model.score_triple(UserId(u), partner, event);
                assert!((via_space - direct).abs() < 1e-5, "u={u} i={i}: {via_space} vs {direct}");
            }
        }
    }

    #[test]
    fn point_layout_is_event_partner_interaction() {
        let model = toy_model();
        let one = top_k_events_per_partner(&model, &[UserId(1)], &[EventId(0)], 1);
        let space = TransformedSpace::build(&model, &one);
        let p = space.point(0);
        assert_eq!(&p[0..2], model.event_vec(EventId(0)));
        assert_eq!(&p[2..4], model.user_vec(UserId(1)));
        let expected = dot(model.user_vec(UserId(1)), model.event_vec(EventId(0)));
        assert_eq!(p[4].to_bits(), expected.to_bits());
    }

    #[test]
    fn empty_candidates_build_empty_space() {
        let model = toy_model();
        for (events, k) in [(&[][..], 3), (&[EventId(0)][..], 0)] {
            let none = top_k_events_per_partner(&model, &[UserId(0)], events, k);
            let space = TransformedSpace::build(&model, &none);
            assert!(space.is_empty());
            assert_eq!((space.len(), space.num_events(), space.num_partners()), (0, 0, 0));
            assert_eq!(space.bytes(), 0);
        }
    }

    /// `TaStats` stability rests on this: TA breaks key ties by ascending
    /// row id, so rows must be numbered in first-seen pair order — partner
    /// rows in pool order, event rows as the partner-major scan meets them.
    #[test]
    fn row_ids_are_first_seen_order() {
        let model = toy_model();
        let partners = [UserId(2), UserId(0), UserId(1)];
        let events = [EventId(0), EventId(1)];
        let space = TransformedSpace::build(
            &model,
            &top_k_events_per_partner(&model, &partners, &events, 2),
        );
        // u2 and u0 rank x1 first, u1 ranks x0 first.
        let rows: Vec<u32> = space.pairs.iter().map(|&(_, r)| r).collect();
        assert_eq!(rows, [0, 1, 0, 1, 1, 0]);
        assert_eq!(space.event_ids, [EventId(1), EventId(0)]);
        assert_eq!((space.num_events(), space.num_partners(), space.take), (2, 3, 2));
        assert_eq!(space.pair(3), (UserId(0), EventId(0)));
        // Row g holds the vector of the g-th distinct id.
        let rows = |ids: [u32; 2]| ids.map(|x| model.event_vec(EventId(x))).concat();
        assert_eq!(space.event_vecs, rows([1, 0]));
        let rows = |ids: [u32; 3]| ids.map(|p| model.user_vec(UserId(p))).concat();
        assert_eq!(space.partner_vecs, rows([2, 0, 1]));
    }

    #[test]
    fn bytes_reflects_point_storage() {
        let model = toy_model(); // dim 2
        let prune = |events: &[EventId]| top_k_events_per_partner(&model, &[UserId(0)], events, 2);
        let one = TransformedSpace::build(&model, &prune(&[EventId(0)]));
        // 8 bytes for the pair; a 2-float row and an id per axis.
        assert_eq!(one.bytes(), 8 + 2 * (2 * 4 + 4));
        // A second pair of the same partner adds 8 bytes and one event row.
        let two = TransformedSpace::build(&model, &prune(&[EventId(0), EventId(1)]));
        assert_eq!(two.bytes(), 2 * 8 + 3 * (2 * 4 + 4));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::brute::{BruteForce, BruteScratch};
    use crate::prune::top_k_events_per_partner;
    use gem_core::math::dot;
    use proptest::prelude::*;
    use rand::RngExt;

    fn close(a: f32, b: f32) -> bool {
        (a - b).abs() <= 1e-5 * b.abs().max(1.0)
    }

    proptest! {
        /// The factored score is the expanded `q · p` product, and the scan
        /// built on it ranks like an exhaustive sort of those products —
        /// on signed models, partner pools that repeat a user, and `k` past
        /// the event count.
        #[test]
        fn factored_score_equals_expanded_product(
            dim in 1usize..9,
            nu in 2u32..24,
            nx in 1u32..12,
            k in 0usize..16,
            repeat in 0u32..4,
            n in 1usize..12,
            seed in 0u64..1000,
        ) {
            let mut rng = gem_sampling::rng_from_seed(seed);
            let users: Vec<f32> =
                (0..nu as usize * dim).map(|_| rng.random::<f32>() - 0.4).collect();
            let events: Vec<f32> =
                (0..nx as usize * dim).map(|_| rng.random::<f32>() - 0.4).collect();
            let model = GemModel::from_raw(dim, users, events, vec![], vec![], vec![]);
            let partners: Vec<UserId> = (0..nu).chain(0..repeat.min(nu)).map(UserId).collect();
            let event_ids: Vec<EventId> = (0..nx).map(EventId).collect();
            let candidates = top_k_events_per_partner(&model, &partners, &event_ids, k);
            let space = TransformedSpace::build(&model, &candidates);
            let (mut a_keys, mut b_keys) = (Vec::new(), Vec::new());
            for u in [0u32, nu / 2, nu - 1] {
                let q = TransformedSpace::query_vector(&model, UserId(u));
                space.fill_keys(&q, &mut a_keys, &mut b_keys);
                let mut expanded: Vec<f32> = Vec::new();
                for i in 0..space.len() {
                    let product = dot(&q, &space.point(i));
                    let score = space.score(i, &a_keys, &b_keys, q[2 * dim]);
                    prop_assert!(close(score, product), "u={} i={}: {} vs {}", u, i, score, product);
                    expanded.push(product);
                }
                expanded.sort_unstable_by(|a, b| b.total_cmp(a));
                let top = BruteForce::new(&space).top_n_with(&q, n, |_, _| true, &mut BruteScratch::new());
                prop_assert_eq!(top.len(), n.min(space.len()));
                for (rank, (got, want)) in top.iter().zip(&expanded).enumerate() {
                    prop_assert!(close(got.0, *want), "u={} rank {}: {:?} vs {}", u, rank, got, want);
                }
            }
        }
    }
}
