//! **gem-obs** — zero-dependency observability for the serving stack.
//!
//! The paper's efficiency claims (Table VI online serving cost, Fig. 7 TA
//! work vs. brute force) are statements about *measurements*; this crate is
//! the measurement substrate, built to the same rules as the rest of the
//! workspace (`compat/` philosophy: std only, no crates.io):
//!
//! * [`Counter`] / [`Gauge`] — relaxed-atomic cells behind cheap cloneable
//!   handles;
//! * [`Histogram`] — a log-linear bucketed `u64` histogram (16 sub-buckets
//!   per power-of-two octave, ≤ 6.25% relative error) with p50/p95/p99;
//! * [`MetricsRegistry`] — a named get-or-register registry whose
//!   [`MetricsRegistry::snapshot`] is deterministic (sorted names, exact
//!   sums) and therefore golden-testable;
//! * JSON and Prometheus text exporters on [`Snapshot`];
//! * [`Tracer`] / [`TraceSink`] — per-thread ring-buffered spans exported
//!   as Chrome trace-event JSON (Perfetto / `chrome://tracing`), for
//!   *time-resolved* views the cumulative metrics cannot give;
//! * [`TraceStreamWriter`] / [`read_trace_stream`] — a size-capped,
//!   CRC-framed chunked trace file for runs too long for the in-memory
//!   sink (rotate-and-drop-oldest, drop-counted, offline Chrome export);
//! * [`Journal`] / [`JournalRecord`] — append-only JSONL time series (the
//!   trainer's per-epoch convergence journal);
//! * [`faults`] — a fail-point registry (env/test-armed, no-op when
//!   disarmed) that makes crash paths in the rest of the workspace
//!   deterministically testable;
//! * [`json`] — a minimal JSON reader used as the in-repo oracle for all
//!   of the above emitters.
//!
//! # Hot-path discipline
//!
//! Handles are registered once, up front; updating one is a branch plus a
//! handful of relaxed atomic ops — no locks, no allocation, no formatting.
//! A [`MetricsRegistry::disabled`] registry hands out no-op handles so the
//! uninstrumented baseline stays measurable (the serving bench asserts the
//! instrumented path is within 2% of it).
//!
//! ```
//! use gem_obs::MetricsRegistry;
//!
//! let registry = MetricsRegistry::new();
//! let queries = registry.counter("serve.queries");
//! let latency = registry.histogram("serve.query_ns");
//!
//! queries.inc();
//! latency.record(12_345);
//!
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("serve.queries"), 1);
//! println!("{}", snap.to_json());
//! println!("{}", snap.to_prometheus());
//! ```

#![warn(missing_docs)]

pub mod crc;
mod export;
pub mod faults;
pub mod histogram;
pub mod journal;
pub mod json;
pub mod pad;
pub mod registry;
pub mod stream;
pub mod trace;

pub use faults::FaultMode;
pub use histogram::{bucket_bounds, bucket_index, Histogram, HistogramSnapshot, NUM_BUCKETS};
pub use journal::{Journal, JournalRecord, JournalValue};
pub use json::{JsonError, JsonValue};
pub use pad::CachePadded;
pub use registry::{Counter, Gauge, MetricSnapshot, MetricsRegistry, Snapshot};
pub use stream::{
    read_trace_stream, OwnedSpanEvent, StreamedTrace, TraceStreamStats, TraceStreamWriter,
    DEFAULT_CHUNK_BYTES,
};
pub use trace::{Span, SpanEvent, TraceSink, Tracer, DEFAULT_RING_CAPACITY, MAX_SPAN_ARGS};
