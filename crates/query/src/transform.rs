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
//! partner, and per pair only its identity, the two row ids and the one
//! coordinate that is its own, `C = u'ᵀx`. A score is
//! `A[event row] + B[partner row] + C` after two [`dot_batch`] sweeps over
//! the row matrices (`TransformedSpace::score`) — the three products of
//! `q · p`, summed in one fixed order for every retrieval method.
//!
//! The transformation is computed offline once per model snapshot.

use gem_core::math::{dot, dot_batch};
use gem_core::GemModel;
use gem_ebsn::{EventId, UserId};
use rayon::prelude::*;

/// The transformed candidate space: per pair its identity, interaction
/// value and row ids; per distinct event / partner one embedding row.
#[derive(Debug, Clone)]
pub struct TransformedSpace {
    k: usize,
    /// `(partner, event)` identity of each point.
    pairs: Vec<(UserId, EventId)>,
    /// `C = u'ᵀx` of each pair: the last coordinate of its point.
    pub(crate) interaction: Vec<f32>,
    /// Row of each pair's event in `event_vecs`.
    pub(crate) event_gid: Vec<u32>,
    /// Row of each pair's partner in `partner_vecs`.
    pub(crate) partner_gid: Vec<u32>,
    /// Vectors of the distinct candidate events in first-seen candidate
    /// order, row-major `rows × K`.
    event_vecs: Vec<f32>,
    /// Vectors of the distinct candidate partners, same layout.
    partner_vecs: Vec<f32>,
}

/// The row behind `slot`, appending `vec` to `vecs` as the next row if the
/// slot is still unassigned (`u32::MAX`).
fn row_of(slot: &mut u32, vecs: &mut Vec<f32>, vec: &[f32]) -> u32 {
    if *slot == u32::MAX {
        *slot = (vecs.len() / vec.len()) as u32;
        vecs.extend_from_slice(vec);
    }
    *slot
}

impl TransformedSpace {
    /// Build the space for the given candidate pairs.
    ///
    /// Interaction values are independent per pair and computed in
    /// parallel. Row ids are assigned in one sequential scan, in first-seen
    /// candidate order (TA breaks key ties by row id, so its work counters
    /// depend on that order), through id → row tables sized from the model.
    /// The output is bit-identical at any thread count.
    pub fn build(model: &GemModel, candidates: &[(UserId, EventId)]) -> Self {
        let interaction: Vec<f32> = candidates
            .par_iter()
            .with_min_len(4096)
            .map(|&(partner, event)| dot(model.user_vec(partner), model.event_vec(event)))
            .collect();
        let mut event_slot = vec![u32::MAX; model.num_events()];
        let mut partner_slot = vec![u32::MAX; model.num_users()];
        let (mut event_vecs, mut partner_vecs) = (Vec::new(), Vec::new());
        let (event_gid, partner_gid) = candidates
            .iter()
            .map(|&(p, x)| {
                (
                    row_of(&mut event_slot[x.index()], &mut event_vecs, model.event_vec(x)),
                    row_of(&mut partner_slot[p.index()], &mut partner_vecs, model.user_vec(p)),
                )
            })
            .unzip();
        let pairs = candidates.to_vec();
        Self { k: model.dim, pairs, interaction, event_gid, partner_gid, event_vecs, partner_vecs }
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
        self.pairs[i]
    }

    /// Number of distinct candidate events (rows of the event matrix).
    pub(crate) fn num_events(&self) -> usize {
        self.event_vecs.len() / self.k
    }

    /// Number of distinct candidate partners.
    pub(crate) fn num_partners(&self) -> usize {
        self.partner_vecs.len() / self.k
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
    /// TA's random access, the exhaustive scan and (over the model's rows)
    /// the delta overlay, so their scores compare bit for bit.
    #[inline]
    pub(crate) fn score(&self, i: usize, a_keys: &[f32], b_keys: &[f32], qw: f32) -> f32 {
        a_keys[self.event_gid[i] as usize]
            + b_keys[self.partner_gid[i] as usize]
            + self.interaction[i] * qw
    }

    /// Approximate memory footprint in bytes (paper's storage-cost note):
    /// 20 per pair plus one `K`-float row per distinct event and partner.
    pub fn bytes(&self) -> usize {
        self.pairs.len() * 20 + (self.event_vecs.len() + self.partner_vecs.len()) * 4
    }
}

#[cfg(test)]
impl TransformedSpace {
    /// The expanded `2K+1` point of candidate `i`, rebuilt from its rows:
    /// `q · point(i)` is the oracle the factored score is tested against.
    pub(crate) fn point(&self, i: usize) -> Vec<f32> {
        let k = self.k;
        let (eg, pg) = (self.event_gid[i] as usize, self.partner_gid[i] as usize);
        let mut p = self.event_vecs[eg * k..(eg + 1) * k].to_vec();
        p.extend_from_slice(&self.partner_vecs[pg * k..(pg + 1) * k]);
        p.push(self.interaction[i]);
        p
    }
}

#[cfg(test)]
pub(crate) use tests::toy_model;

#[cfg(test)]
mod tests {
    use super::*;
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
        let candidates: Vec<(UserId, EventId)> =
            (0..3).flat_map(|p| (0..2).map(move |x| (UserId(p), EventId(x)))).collect();
        let space = TransformedSpace::build(&model, &candidates);
        assert_eq!(space.dim(), 5);
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
        let space = TransformedSpace::build(&model, &[(UserId(1), EventId(0))]);
        let p = space.point(0);
        assert_eq!(&p[0..2], model.event_vec(EventId(0)));
        assert_eq!(&p[2..4], model.user_vec(UserId(1)));
        let expected = dot(model.user_vec(UserId(1)), model.event_vec(EventId(0)));
        assert_eq!(p[4], expected);
    }

    #[test]
    fn empty_candidates_build_empty_space() {
        let model = toy_model();
        let space = TransformedSpace::build(&model, &[]);
        assert!(space.is_empty());
        assert_eq!(space.len(), 0);
    }

    /// `TaStats` stability rests on this: TA breaks key ties by ascending
    /// row id, so rows must be numbered in first-seen candidate order.
    #[test]
    fn row_ids_are_first_seen_order() {
        let model = toy_model();
        let pair = |p, x| (UserId(p), EventId(x));
        let candidates = [pair(2, 1), pair(0, 1), pair(2, 0), pair(1, 1), pair(0, 0)];
        let space = TransformedSpace::build(&model, &candidates);
        assert_eq!(space.event_gid, [0, 0, 1, 0, 1]);
        assert_eq!(space.partner_gid, [0, 1, 0, 2, 1]);
        assert_eq!((space.num_events(), space.num_partners()), (2, 3));
        // Row g holds the vector of the g-th distinct id.
        let rows = |ids: [u32; 2]| ids.map(|x| model.event_vec(EventId(x))).concat();
        assert_eq!(space.event_vecs, rows([1, 0]));
        let rows = |ids: [u32; 3]| ids.map(|p| model.user_vec(UserId(p))).concat();
        assert_eq!(space.partner_vecs, rows([2, 0, 1]));
    }

    #[test]
    fn bytes_reflects_point_storage() {
        let model = toy_model(); // dim 2
        let one = TransformedSpace::build(&model, &[(UserId(0), EventId(0))]);
        // 20 bytes for the pair, one 2-float row per axis.
        assert_eq!(one.bytes(), 20 + 2 * 2 * 4);
        // A second pair of the same partner adds 20 bytes and one event row.
        let two =
            TransformedSpace::build(&model, &[(UserId(0), EventId(0)), (UserId(0), EventId(1))]);
        assert_eq!(two.bytes(), 2 * 20 + 3 * 2 * 4);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::brute::{BruteForce, BruteScratch};
    use crate::prune::top_k_events_per_partner;
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
