//! # ebsn-rec — Joint Event-Partner Recommendation in EBSNs
//!
//! A complete Rust reproduction of *"Joint Event-Partner Recommendation in
//! Event-based Social Networks"* (Yin, Zou, Nguyen, Huang, Zhou — ICDE
//! 2018): the **GEM** graph-based embedding model, its adaptive adversarial
//! negative sampler, the joint multi-graph trainer, the space-transformed
//! TA-based online recommender, all comparison baselines, and the full
//! experiment suite.
//!
//! This crate is a facade: it re-exports the workspace's public API under
//! topical modules so downstream users can depend on one crate.
//!
//! ## Quickstart
//!
//! ```no_run
//! use ebsn_rec::prelude::*;
//!
//! // 1. Data: load a crawl from CSV, or synthesize a city.
//! let (dataset, _report) = ebsn_rec::data::synth::generate(&SynthConfig::tiny(42));
//!
//! // 2. Split chronologically and build the five relation graphs.
//! let split = ChronoSplit::new(&dataset, SplitRatios::default());
//! let graphs = TrainingGraphs::build(&dataset, &split, &GraphBuildConfig::default(), &[]);
//!
//! // 3. Train GEM.
//! let trainer = GemTrainer::new(&graphs, TrainConfig::gem_a(42)).unwrap();
//! trainer.run(500_000, 4);
//! let model = trainer.model();
//!
//! // 4. Serve joint event-partner recommendations with the TA engine.
//! let partners: Vec<UserId> = (0..dataset.num_users).map(UserId::from_index).collect();
//! let engine = RecommendationEngine::build(model, &partners, &split.test_events, 16);
//! let (recs, _stats) = engine.recommend(UserId(0), 10, Method::Ta);
//! for r in recs {
//!     println!("partner {} @ event {} (score {:.3})", r.partner, r.event, r.score);
//! }
//! ```

#![warn(missing_docs)]

/// The GEM model, trainer, samplers and scoring (the paper's §III).
pub mod gem {
    pub use gem_core::*;
}

/// Data layer: EBSN datasets, graphs, splits, ground truth, synthesis, IO.
pub mod data {
    pub use gem_ebsn::*;

    /// The Douban-Sim synthetic generator.
    pub mod synth {
        pub use gem_ebsn::synth::*;
    }

    /// CSV import/export.
    pub mod io {
        pub use gem_ebsn::io::*;
    }
}

/// Online recommendation: space transformation, pruning, TA (§IV).
pub mod online {
    pub use gem_query::*;
}

/// Zero-dependency observability: counters, gauges, latency histograms,
/// a named registry and JSON/Prometheus exporters (gem-obs).
pub mod obs {
    pub use gem_obs::*;
}

/// Baseline recommenders (PCMF, CBPF, PER, CFAPR-E).
pub mod baselines {
    pub use gem_baselines::*;
}

/// Evaluation protocols, metrics, timing and significance tests (§V).
pub mod eval {
    pub use gem_eval::*;
}

/// Substrates: sampling, spatial clustering, time grid, text processing.
pub mod substrate {
    /// Alias tables, geometric rank sampling, noise distributions.
    pub mod sampling {
        pub use gem_sampling::*;
    }
    /// Geo points, haversine, grid index, DBSCAN.
    pub mod spatial {
        pub use gem_spatial::*;
    }
    /// Civil calendar and the 33-slot time grid.
    pub mod timegrid {
        pub use gem_timegrid::*;
    }
    /// Tokenization, vocabulary, TF-IDF.
    pub mod text {
        pub use gem_textproc::*;
    }
}

/// One-stop imports for applications.
pub mod prelude {
    pub use gem_baselines::{Cbpf, CbpfConfig, CfaprE, Pcmf, PcmfConfig, PerConfig, PerModel};
    pub use gem_core::simd::{backend as simd_backend, cpu_feature_name};
    pub use gem_core::{
        Checkpoint, Checkpointer, EventScorer, GemModel, GemTrainer, GraphChoice, LoadedCheckpoint,
        NoiseKind, PersistError, RectifyMode, SamplingDirection, SimdBackend, TrainConfig,
        TrainError, TrainJournal, TrainerMetrics,
    };
    pub use gem_ebsn::{
        ChronoSplit, EbsnDataset, Event, EventId, GraphBuildConfig, GroundTruth, PartnerScenario,
        RegionId, SplitRatios, SynthConfig, TrainingGraphs, UserId, VenueId,
    };
    pub use gem_eval::{eval_event_rec, eval_partner_rec, sign_test, EvalConfig};
    pub use gem_obs::{FaultMode, Journal, JournalRecord, MetricsRegistry, TraceSink, Tracer};
    pub use gem_query::{
        DeadlineRecommendations, EngineMetrics, Method, Recommendation, RecommendationEngine,
        ServeError, ServeTracing, TaCompletion,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_resolve() {
        // Compile-time check that the re-export tree is wired up.
        use crate::prelude::*;
        let cfg = TrainConfig::gem_a(1);
        assert_eq!(cfg.dim, 60);
        let synth = SynthConfig::tiny(1);
        assert!(synth.num_users > 0);
        // SIMD introspection reaches the facade: the dispatched backend is
        // one of the three named states.
        assert!(matches!(
            simd_backend(),
            SimdBackend::Scalar | SimdBackend::Avx2 | SimdBackend::Neon
        ));
        assert!(!cpu_feature_name().is_empty());
    }
}
