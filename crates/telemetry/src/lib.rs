#![warn(missing_docs)]

//! # ccr-telemetry — event tracing for the CCR stack
//!
//! Lightweight, dependency-free observability plumbing shared by the
//! compiler passes, the region former, and the timing simulator:
//!
//! * [`metrics::Counter`] — a lock-free shared counter, and
//!   [`metrics::Histogram`] — a log₂-bucketed histogram with
//!   percentile estimates,
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
//!   (`ccr-analyze` re-exports it),
//! * [`record`](mod@record) — the one codec of every persisted record:
//!   a [`record!`] declaration lists a record's fields once and derives
//!   both its writer and its reader (snapshots, checkpoint lines, the
//!   run report's configuration and statistics blocks, run-store lines,
//!   `BENCH_ccr.json`, and fingerprint digest lines).
//!
//! The guiding invariant: **observability must not perturb the
//! experiment**. Sinks observe completed facts (a pass finished, a
//! region was rejected, a CRB entry was evicted); nothing in this
//! crate feeds back into compilation or simulation, and the
//! [`sink::NullSink`] path reduces to an `enabled()` check.

pub mod event;
pub mod json;
pub mod metrics;
pub mod record;
pub mod sink;
pub mod table;
pub mod value;

pub use event::{Event, FieldValue};
pub use json::JsonWriter;
pub use metrics::{Counter, Histogram};
pub use sink::{JsonlSink, NullSink, SummarySink, TelemetrySink};
pub use table::Table;

/// Version of the emitted event / run-report schema. Bumped whenever
/// field names or semantics change, so downstream consumers can
/// detect incompatible streams.
pub const SCHEMA_VERSION: u32 = 1;
