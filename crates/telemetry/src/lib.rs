#![warn(missing_docs)]

//! # ccr-telemetry — event tracing for the CCR stack
//!
//! Lightweight, dependency-free observability plumbing shared by the
//! compiler passes, the region former, and the timing simulator:
//!
//! * [`metrics::MetricsRegistry`] — a thread-safe registry of named
//!   counters, gauges, and log₂-bucketed histograms; counters and
//!   gauges are atomics behind lock-free [`metrics::Counter`] /
//!   [`metrics::Gauge`] handles, with cheap point-in-time
//!   [`metrics::MetricsSnapshot`]s,
//! * [`monitor::Monitor`] — a background thread sampling a shared
//!   registry on a fixed period (the live-progress backbone of the
//!   experiment harness),
//! * [`event::Event`] + [`sink::TelemetrySink`] — a borrowed,
//!   allocation-free event record fanned out to pluggable sinks:
//!   [`sink::NullSink`] (zero-overhead default), [`sink::JsonlSink`]
//!   (one JSON object per line), and [`sink::SummarySink`]
//!   (per-kind aggregation),
//! * [`json::JsonWriter`] — a hand-rolled JSON serializer (the build
//!   environment is offline, so no serde) used for both JSONL event
//!   streams and the versioned run report in `ccr-core`,
//! * [`value`] — the matching reader: a minimal JSON value model and
//!   recursive-descent parser shared by every artifact consumer
//!   (`ccr-analyze` re-exports it) and by the simulator's snapshot
//!   decoder.
//!
//! The guiding invariant: **observability must not perturb the
//! experiment**. Sinks observe completed facts (a pass finished, a
//! region was rejected, a CRB entry was evicted); nothing in this
//! crate feeds back into compilation or simulation, and the
//! [`sink::NullSink`] path reduces to an `enabled()` check.

pub mod event;
pub mod json;
pub mod metrics;
pub mod monitor;
pub mod sink;
pub mod table;
pub mod value;

pub use event::{Event, FieldValue};
pub use json::JsonWriter;
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot};
pub use monitor::{Monitor, MonitorSample};
pub use sink::{JsonlSink, NullSink, RecordSink, SummarySink, TelemetrySink};
pub use table::Table;

/// Version of the emitted event / run-report schema. Bumped whenever
/// field names or semantics change, so downstream consumers can
/// detect incompatible streams.
pub const SCHEMA_VERSION: u32 = 1;
