//! **GEM** — the graph-based embedding model of *"Joint Event-Partner
//! Recommendation in Event-based Social Networks"* (ICDE 2018).
//!
//! GEM collectively embeds the five EBSN relation graphs (user–event,
//! user–user, event–location, event–time, event–word) into one shared
//! `K`-dimensional non-negative space, so that
//!
//! * a cold-start event's vector is learned purely from its content and
//!   context edges, and
//! * Eq. 8's triple score `u·x + u'·x + u·u'` ranks (event, partner) pairs.
//!
//! Module map (paper section → module):
//!
//! | paper | module |
//! |---|---|
//! | Eq. 1 sigmoid edge probability, Eq. 5 SGD update | [`math`], [`trainer`] |
//! | bidirectional negative sampling (Eq. 4) | [`trainer`] |
//! | degree-based noise sampler (GEM-P / PTE) | [`trainer`] |
//! | adaptive adversarial sampler, Algorithm 1 (GEM-A) | [`adaptive`] |
//! | joint multi-graph training, Algorithm 2 | [`trainer`] |
//! | asynchronous (Hogwild) SGD, §III-A | [`trainer`], [`matrix`] |
//! | Eq. 8 scoring | [`model`] |
//!
//! The baseline variants are configuration presets of the same trainer:
//! [`TrainConfig::gem_a`], [`TrainConfig::gem_p`] and [`TrainConfig::pte`]
//! (PTE = unidirectional noise + uniform graph choice + degree sampler).

#![warn(missing_docs)]

pub mod adaptive;
pub mod checkpoint;
pub mod config;
pub mod error;
pub mod journal;
pub mod math;
pub mod matrix;
pub mod metrics;
pub mod model;
pub mod persist;
pub mod simd;
pub mod trainer;

pub use adaptive::{AdaptiveState, RefreshObs};
pub use checkpoint::{Checkpoint, Checkpointer, LoadedCheckpoint};
pub use config::{GraphChoice, NoiseKind, RectifyMode, SamplingDirection, TrainConfig};
pub use error::TrainError;
pub use journal::{EpochStats, TrainJournal, MATRIX_NAMES};
pub use math::SigmoidLut;
pub use matrix::AtomicMatrix;
pub use metrics::TrainerMetrics;
pub use model::{EventScorer, GemModel};
pub use persist::{load_model, save_model_v3, ModelReader, PersistError};
pub use simd::Backend as SimdBackend;
pub use trainer::{GemTrainer, PhaseBreakdown, TrainProgress};
