//! Seeded input generation. The program under test receives only what these
//! functions return; the same seed gives the same inputs.

use gem_core::{GemModel, GemTrainer, TrainConfig};
use gem_ebsn::{
    ChronoSplit, EbsnDataset, GraphBuildConfig, GroundTruth, SplitRatios, SynthConfig,
    TrainingGraphs, UserId,
};
use gem_sampling::{rng_from_seed, split_seed};
use rand::RngExt;
use std::collections::VecDeque;

/// A synthetic Douban-Sim city, split chronologically, with ground truth.
pub struct City {
    pub dataset: EbsnDataset,
    pub split: ChronoSplit,
    pub gt: GroundTruth,
}

/// Beijing-shaped city at `1/scale` of Table I; `scale == 0` is the tiny
/// fixture the smoke pass uses.
pub fn city(seed: u64, scale: usize) -> City {
    let cfg = match scale {
        0 => SynthConfig::tiny(seed),
        _ => SynthConfig::beijing_like(seed, scale),
    };
    let (dataset, _) = gem_ebsn::synth::generate(&cfg);
    let split = ChronoSplit::new(&dataset, SplitRatios::default());
    let gt = GroundTruth::extract(&dataset, &split);
    City { dataset, split, gt }
}

/// The five relation graphs of a city (friend links intact).
pub fn graphs(city: &City) -> TrainingGraphs {
    TrainingGraphs::build(&city.dataset, &city.split, &GraphBuildConfig::default(), &[])
}

/// Train on one thread (deterministic per seed) and snapshot the model.
pub fn train_model(graphs: &TrainingGraphs, config: TrainConfig, steps: u64) -> GemModel {
    let trainer = GemTrainer::new(graphs, config).expect("preset trainer config is valid");
    trainer.run(steps, 1);
    trainer.model()
}

/// A model whose user and event rows are uniform in `[0, 1)`: no structure,
/// so TA cannot stop early on score mass and pays its fixed cost.
pub fn uniform_model(users: usize, events: usize, dim: usize, seed: u64) -> GemModel {
    let mut rng = rng_from_seed(seed);
    let mut rows = |n: usize| (0..n * dim).map(|_| rng.random::<f32>()).collect::<Vec<f32>>();
    let (user_rows, event_rows) = (rows(users), rows(events));
    GemModel::from_raw(dim, user_rows, event_rows, vec![], vec![], vec![])
}

/// `count` query users drawn uniformly with replacement.
pub fn query_users(num_users: usize, count: usize, seed: u64) -> Vec<UserId> {
    let mut rng = rng_from_seed(seed);
    (0..count).map(|_| UserId(rng.random_range(0..num_users as u32))).collect()
}

/// Users per `POST /recommend_batch`.
pub const BATCH_USERS: usize = 16;

#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    Read { user: u32 },
    Batch { users: [u32; BATCH_USERS] },
    Add { event: u32 },
    Retire { event: u32 },
}

/// One scheduled request: due `due_s` seconds after the phase starts.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    pub due_s: f64,
    pub kind: OpKind,
}

/// Which events churn touches, carried across phases so a later phase
/// retires what an earlier one added. Events come from `pool` (ids that are
/// not live when the daemon starts); at most `MAX_ADDED` are live at once.
#[derive(Debug, Clone)]
pub struct ChurnPlan {
    pool: VecDeque<u32>,
    added: VecDeque<u32>,
}

const MAX_ADDED: usize = 48;

impl ChurnPlan {
    pub fn new(pool: Vec<u32>) -> Self {
        assert!(pool.len() > MAX_ADDED, "churn pool too small");
        ChurnPlan { pool: pool.into(), added: VecDeque::new() }
    }

    /// Ids this plan has added and not retired, i.e. what the daemon's live
    /// set holds on top of its initial one once every op is applied.
    pub fn added(&self) -> impl Iterator<Item = u32> + '_ {
        self.added.iter().copied()
    }

    fn next(&mut self, add: bool) -> OpKind {
        if add {
            let event = self.pool.pop_front().expect("pool outlives MAX_ADDED adds");
            self.added.push_back(event);
            OpKind::Add { event }
        } else {
            let event = self.added.pop_front().expect("retire only what was added");
            self.pool.push_back(event);
            OpKind::Retire { event }
        }
    }
}

/// The op mix: 90 % reads, 5 % batches, 5 % churn.
const BATCH_SHARE: f64 = 0.05;
const CHURN_SHARE: f64 = 0.05;
/// Churn ops arrive in bursts of 4 to 12, about half a millisecond apart —
/// the short-lived, bursty create/cancel pattern of ephemeral events.
const BURST_LEN: std::ops::Range<u32> = 4..13;
const BURST_GAP_S: f64 = 0.0005;

/// An open-loop schedule for one phase: reads and batches are a Poisson
/// process at `(1 - CHURN_SHARE) * rate`; churn is a second Poisson process
/// of *bursts* whose ops add up to `CHURN_SHARE * rate`. Sorted by due time.
pub fn schedule(
    seed: u64,
    rate: f64,
    duration_s: f64,
    num_users: usize,
    churn: &mut ChurnPlan,
) -> Vec<Op> {
    let mut rng = rng_from_seed(split_seed(seed, 0));
    let mut exp = move |mean: f64| -(1.0 - rng.random::<f64>()).ln() * mean;
    let mut pick = rng_from_seed(split_seed(seed, 1));
    let mut ops = Vec::with_capacity((rate * duration_s * 1.1) as usize);

    let read_gap = 1.0 / (rate * (1.0 - CHURN_SHARE));
    let mut t = exp(read_gap);
    while t < duration_s {
        let kind = if pick.random::<f64>() < BATCH_SHARE / (1.0 - CHURN_SHARE) {
            OpKind::Batch { users: std::array::from_fn(|_| pick.random_range(0..num_users as u32)) }
        } else {
            OpKind::Read { user: pick.random_range(0..num_users as u32) }
        };
        ops.push(Op { due_s: t, kind });
        t += exp(read_gap);
    }

    let mean_burst = f64::from(BURST_LEN.start + BURST_LEN.end - 1) / 2.0;
    let burst_gap = mean_burst / (rate * CHURN_SHARE);
    let mut t = exp(burst_gap);
    while t < duration_s {
        let len = pick.random_range(BURST_LEN);
        // Bursts of creations until enough are live, then cancellations.
        let add = churn.added.len() + len as usize <= MAX_ADDED
            && (churn.added.len() < len as usize || pick.random::<f64>() < 0.5);
        let mut at = t;
        for _ in 0..len {
            if at >= duration_s {
                break;
            }
            ops.push(Op { due_s: at, kind: churn.next(add) });
            at += exp(BURST_GAP_S);
        }
        // The next burst starts after this one has ended: bursts that
        // overlapped could schedule an event's retire before its add.
        t = at + exp(burst_gap);
    }
    ops.sort_by(|a, b| a.due_s.total_cmp(&b.due_s));
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> Vec<u32> {
        (1000..1200).collect()
    }

    fn is_churn(op: &&Op) -> bool {
        matches!(op.kind, OpKind::Add { .. } | OpKind::Retire { .. })
    }

    #[test]
    fn same_seed_same_schedule_and_mix() {
        let (mut a, mut b, mut c) =
            (ChurnPlan::new(pool()), ChurnPlan::new(pool()), ChurnPlan::new(pool()));
        let s1 = schedule(11, 2000.0, 2.0, 500, &mut a);
        let s2 = schedule(11, 2000.0, 2.0, 500, &mut b);
        let s3 = schedule(12, 2000.0, 2.0, 500, &mut c);
        assert_eq!(s1, s2);
        assert_ne!(s1, s3);
        assert!(s1.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        let n = s1.len() as f64;
        assert!((n - 4000.0).abs() < 400.0, "{n} ops for 2 s at 2000 rps");
        let churn = s1.iter().filter(is_churn).count() as f64;
        let batch = s1.iter().filter(|o| matches!(o.kind, OpKind::Batch { .. })).count() as f64;
        assert!((0.02..0.09).contains(&(churn / n)), "churn share {}", churn / n);
        assert!((0.03..0.07).contains(&(batch / n)), "batch share {}", batch / n);
    }

    #[test]
    fn every_seed_adds_an_event_before_it_retires_it() {
        for seed in 0..200 {
            let mut plan = ChurnPlan::new(pool());
            let mut live = std::collections::BTreeSet::new();
            for op in schedule(seed, 4000.0, 1.0, 500, &mut plan) {
                match op.kind {
                    OpKind::Add { event } => assert!(live.insert(event), "seed {seed}"),
                    OpKind::Retire { event } => assert!(live.remove(&event), "seed {seed}"),
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn churn_comes_in_bursts_and_retires_only_what_it_added() {
        let mut plan = ChurnPlan::new(pool());
        let ops = schedule(5, 4000.0, 3.0, 500, &mut plan);
        let churn: Vec<&Op> = ops.iter().filter(is_churn).collect();
        // Bursty: most churn ops follow the previous one within a few ms,
        // far closer than a Poisson stream at 200 ops/s would put them.
        let close = churn.windows(2).filter(|w| w[1].due_s - w[0].due_s < 0.003).count();
        assert!(close * 2 > churn.len(), "{close} of {} gaps are short", churn.len());
        let mut live = std::collections::BTreeSet::new();
        for op in &ops {
            match op.kind {
                OpKind::Add { event } => assert!(live.insert(event), "double add {event}"),
                OpKind::Retire { event } => assert!(live.remove(&event), "retire of {event}"),
                _ => {}
            }
        }
        assert!(live.len() <= MAX_ADDED);
        assert_eq!(live.into_iter().collect::<Vec<_>>(), {
            let mut v: Vec<u32> = plan.added().collect();
            v.sort_unstable();
            v
        });
    }
}
