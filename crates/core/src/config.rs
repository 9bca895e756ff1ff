//! Training configuration and the paper's model-variant presets.

/// How noise (negative) nodes are drawn for a positive edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoiseKind {
    /// `P_n(v) ∝ deg(v)^0.75` — word2vec/LINE-style (GEM-P, PTE).
    Degree,
    /// The adaptive rank-based adversarial sampler of §III-B (GEM-A).
    Adaptive,
}

/// Whether negatives are generated from one side or both sides of the
/// sampled edge (Eq. 3 vs Eq. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplingDirection {
    /// Fix the left node, corrupt only the right side (PTE, Eq. 3).
    Unidirectional,
    /// Corrupt both sides alternately (GEM's bidirectional strategy, Eq. 4).
    Bidirectional,
}

/// How the joint trainer picks which bipartite graph to sample from at each
/// step (Algorithm 2 line 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphChoice {
    /// Proportional to the graph's edge count (GEM's joint training).
    EdgeCountProportional,
    /// Uniform over the five graphs (PTE-style joint training, which
    /// over-exploits small graphs).
    Uniform,
}

/// Where the rectifier (non-negativity) projection of §III-A is applied.
///
/// The paper projects updated node vectors to non-negative values. Any
/// persistent projection collapses the event matrix: at a non-negative
/// dot the logistic never falls below ½, so noise updates never vanish
/// and nodes sampled as noise more often than as positives — cold events
/// above all — are ground into the zero vector. Training therefore
/// defaults to `Off` (plain SGNS dynamics), which is what reproduces the
/// paper's orderings (DESIGN.md §4, decision 2); `Full` and
/// `PositivesOnly` are kept as ablation knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RectifyMode {
    /// Project after every update, including noise-node updates.
    Full,
    /// Project only the positive pair's updates.
    PositivesOnly,
    /// Never project (default; pure SGNS dynamics).
    Off,
}

/// Full hyper-parameter set for [`crate::GemTrainer`].
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Embedding dimension `K` (paper default 60).
    pub dim: usize,
    /// SGD learning rate `α` (paper default 0.05).
    pub learning_rate: f32,
    /// Negative samples per side `M` (paper default 2).
    pub negatives: usize,
    /// Noise sampler.
    pub noise: NoiseKind,
    /// Negative-sampling direction.
    pub direction: SamplingDirection,
    /// Graph-selection strategy for joint training.
    pub graph_choice: GraphChoice,
    /// Geometric-distribution temperature `λ` for the adaptive sampler
    /// (paper default 200).
    pub lambda: f64,
    /// Std-dev of the Gaussian initialisation (paper: `N(0, 0.01)`, i.e.
    /// std 0.1; vectors are rectified to non-negative at init).
    pub init_std: f64,
    /// Learning-rate decay time constant `t₀`: the effective rate at step
    /// `t` is `α / √(1 + t/t₀)` (0 disables decay). LINE-lineage trainers
    /// anneal the rate; the inverse-√ schedule is used here instead of
    /// LINE's linear one because it needs no fixed horizon, so convergence
    /// sweeps can train in chunks (documented in DESIGN.md).
    pub lr_decay_t0: u64,
    /// Rectifier projection policy (paper §III-A); see [`RectifyMode`].
    pub rectify: RectifyMode,
    /// Evaluate `σ(·)` through the precomputed lookup table
    /// ([`crate::math::SigmoidLut`], within 1e-3 of exact) instead of
    /// calling `exp` — the word2vec/LINE hot-loop trick. On by default;
    /// turn off for bit-exact reproduction of the exact-sigmoid path
    /// (convergence is indistinguishable either way).
    pub sigmoid_lut: bool,
    /// Master RNG seed.
    pub seed: u64,
}

impl TrainConfig {
    /// GEM-A: bidirectional + adaptive adversarial sampler.
    pub fn gem_a(seed: u64) -> Self {
        Self {
            dim: 60,
            learning_rate: 0.05,
            negatives: 2,
            noise: NoiseKind::Adaptive,
            direction: SamplingDirection::Bidirectional,
            graph_choice: GraphChoice::EdgeCountProportional,
            lambda: 200.0,
            init_std: 0.1,
            lr_decay_t0: 20_000,
            rectify: RectifyMode::Off,
            sigmoid_lut: true,
            seed,
        }
    }

    /// GEM-P: bidirectional + degree-based sampler.
    pub fn gem_p(seed: u64) -> Self {
        Self { noise: NoiseKind::Degree, ..Self::gem_a(seed) }
    }

    /// PTE baseline: unidirectional degree sampling + uniform graph choice.
    pub fn pte(seed: u64) -> Self {
        Self {
            noise: NoiseKind::Degree,
            direction: SamplingDirection::Unidirectional,
            graph_choice: GraphChoice::Uniform,
            ..Self::gem_a(seed)
        }
    }

    /// Validate ranges; returns the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.dim == 0 || self.dim > 4096 {
            return Err(format!("dim {} out of range 1..=4096", self.dim));
        }
        if !(self.learning_rate > 0.0 && self.learning_rate.is_finite()) {
            return Err(format!("learning_rate {} must be positive", self.learning_rate));
        }
        if self.negatives == 0 {
            return Err("negatives must be at least 1".into());
        }
        if !(self.lambda > 0.0 && self.lambda.is_finite()) {
            return Err(format!("lambda {} must be positive", self.lambda));
        }
        if !(self.init_std >= 0.0 && self.init_std.is_finite()) {
            return Err(format!("init_std {} must be non-negative", self.init_std));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_variants() {
        let a = TrainConfig::gem_a(1);
        assert_eq!(a.noise, NoiseKind::Adaptive);
        assert_eq!(a.direction, SamplingDirection::Bidirectional);
        assert_eq!(a.graph_choice, GraphChoice::EdgeCountProportional);
        assert_eq!(a.dim, 60);
        assert_eq!(a.negatives, 2);
        assert_eq!(a.lambda, 200.0);
        // The fast hot path is the default for every preset.
        assert!(a.sigmoid_lut);

        let p = TrainConfig::gem_p(1);
        assert_eq!(p.noise, NoiseKind::Degree);
        assert_eq!(p.direction, SamplingDirection::Bidirectional);

        let pte = TrainConfig::pte(1);
        assert_eq!(pte.noise, NoiseKind::Degree);
        assert_eq!(pte.direction, SamplingDirection::Unidirectional);
        assert_eq!(pte.graph_choice, GraphChoice::Uniform);
    }

    #[test]
    fn validation_catches_bad_values() {
        let mut c = TrainConfig::gem_a(1);
        assert!(c.validate().is_ok());
        c.dim = 0;
        assert!(c.validate().is_err());
        let mut c = TrainConfig::gem_a(1);
        c.learning_rate = -1.0;
        assert!(c.validate().is_err());
        let mut c = TrainConfig::gem_a(1);
        c.negatives = 0;
        assert!(c.validate().is_err());
        let mut c = TrainConfig::gem_a(1);
        c.lambda = f64::NAN;
        assert!(c.validate().is_err());
    }
}
