//! Golden regression for what a TA query returns.
//!
//! A refactor of the space or the index layout must not change a single
//! result: this hashes the score bits, ids and `TaStats` of 64 users' TA
//! queries at three depths into one FNV-1a value. The pool repeats partners
//! and `k` runs past the event count, so the dedup and full-row paths are
//! inside the hash. Run it under `GEM_NO_SIMD=1` too: the portable kernels
//! must land on the same value.

use gem_core::GemModel;
use gem_ebsn::{EventId, UserId};
use gem_query::{Method, RecommendationEngine, ServeScratch};
use rand::RngExt;

const GOLDEN_HASH: u64 = 0x45cd_0ebc_cab0_6fe2;

fn fnv1a(h: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn engine() -> RecommendationEngine {
    let (nu, nx, dim) = (120u32, 30u32, 8usize);
    let mut rng = gem_sampling::rng_from_seed(2027);
    let users: Vec<f32> = (0..nu as usize * dim).map(|_| rng.random::<f32>() - 0.4).collect();
    let events: Vec<f32> = (0..nx as usize * dim).map(|_| rng.random::<f32>() - 0.4).collect();
    let model = GemModel::from_raw(dim, users, events, vec![], vec![], vec![]);
    let partners: Vec<UserId> = (0..nu).chain([3, 17, 3, 99]).map(UserId).collect();
    let events: Vec<EventId> = (0..nx).map(EventId).collect();
    RecommendationEngine::build(model, &partners, &events, 40)
}

#[test]
fn ta_results_and_stats_match_golden_hash() {
    let engine = engine();
    let mut scratch = ServeScratch::new();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for u in 0..64u32 {
        for n in [1, 10, 100] {
            let (recs, stats) = engine.recommend_with(UserId(u), n, Method::Ta, &mut scratch);
            for r in &recs {
                fnv1a(&mut h, r.score.to_bits() as u64);
                fnv1a(&mut h, r.partner.0 as u64);
                fnv1a(&mut h, r.event.0 as u64);
            }
            fnv1a(&mut h, stats.scored as u64);
            fnv1a(&mut h, stats.sorted_accesses as u64);
        }
    }
    assert_eq!(h, GOLDEN_HASH, "TA results or work counters changed: {h:#018x}");
}
