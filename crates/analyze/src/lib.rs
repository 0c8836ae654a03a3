#![warn(missing_docs)]

//! # ccr-analyze — offline analysis of CCR telemetry artifacts
//!
//! PR 1 made every layer of the stack a telemetry *producer*
//! (`events.jsonl` + `report.json`); this crate is the *consumer*
//! side. It reads those artifacts back and turns them into the views
//! the paper's evaluation reasons about — per-region reuse behaviour
//! (Figures 8–11), CRB set pressure, interval-IPC phase structure —
//! plus the regression-gating machinery the perf trajectory needs:
//!
//! * [`value`] — a minimal recursive-descent JSON parser (the build
//!   environment is offline, so no serde), shared by every reader —
//!   it lives in `ccr-telemetry` next to its producer (`JsonWriter`)
//!   and is re-exported here so readers keep one import path,
//! * [`ingest`] — a streaming, line-tolerant `events.jsonl` reader
//!   with schema-version checks, and the `report.json` reader for
//!   schema versions 1 (no provenance) through 4,
//! * [`analysis`] — the analyzer: per-region profiles with hit-rate
//!   windows, CRB occupancy/pressure curves, interval-IPC percentile
//!   statistics (via `ccr-telemetry`'s log₂-bucket histograms), and
//!   hottest-region rankings, serialized as a deterministic
//!   `analysis.json` and read back by [`Analysis::from_json`], the one
//!   reader of that file,
//! * [`chrome`] — Chrome Trace Event Format (`chrome://tracing` /
//!   Perfetto) export of the compile passes and the reuse timeline,
//! * [`folded`] — collapsed-stack folding of a profiled run's
//!   `cycle_sample` events (the `profile.folded` artifact),
//! * [`flamegraph`] — a self-contained, deterministic flamegraph SVG
//!   renderer over the folded stacks (no external tooling),
//! * [`diff`] — run-to-run comparison with configurable regression
//!   thresholds and a provenance-based comparability gate; its
//!   [`Thresholds::judge`] is the one regression verdict `ccr diff`
//!   and `ccr report` share,
//! * [`bench`](mod@bench) — the `BENCH_ccr.json` schema: a versioned,
//!   per-workload performance snapshot forming the repo's committed
//!   perf trajectory,
//! * [`store`] — the append-only cross-run store: one versioned JSONL
//!   record per (workload, config) measurement, keyed by git commit
//!   and timestamp, with line-tolerant loading and builders from
//!   BENCH / analysis.json artifacts,
//! * [`report`] — the `ccr report` engine: per-series speedup /
//!   hit-rate / miss-mix / host-throughput trend tables over a store,
//!   plus first-regression flagging against configurable thresholds.
//!
//! The crate has no dependencies beyond `ccr-telemetry`: the shared
//! `JsonWriter` and `Histogram`, the `value` reader, and the `record`
//! codec whose one declaration per record derives both the writer and
//! the reader of every file the crate touches: `analysis.json`, the
//! run-store line, `BENCH_ccr.json` and the digest lines, plus the
//! parts of `report.json` and of the event lines it reads. In
//! particular it does not depend on the simulator or
//! compiler crates, so analysis can never perturb — or be perturbed
//! by — the run that produced its input.
//!
//! Determinism is load-bearing: identical input artifacts must
//! produce byte-identical `analysis.json` / `trace.json`, which is
//! what lets CI diff analyzer output against committed goldens.

pub mod analysis;
pub mod bench;
pub mod chrome;
pub mod diff;
pub mod fingerprint;
pub mod flamegraph;
pub mod folded;
pub mod ingest;
pub mod report;
pub mod store;
pub use ccr_telemetry::value;

pub use analysis::{analyze, Analysis, RegionProfile, MISS_CAUSES};
pub use bench::{
    geomean_host_throughput, short_commit, BenchReport, BenchWorkload, BENCH_SCHEMA_VERSION,
};
pub use chrome::chrome_trace;
pub use diff::{diff_analyses, diff_bench, DiffReport, Thresholds};
pub use fingerprint::{
    compare_digests, format_hash, parse_digest_file, write_digest_file, DigestFile, DigestWindow,
    FingerprintDiff, FP_VERSION,
};
pub use flamegraph::flamegraph_svg;
pub use folded::fold_samples;
pub use ingest::{load_run, RunData};
pub use report::{report_over, ReportOutput};
pub use store::{RunRecord, RunStore, STORE_SCHEMA_VERSION};
pub use value::Value;

/// Version of the `analysis.json` schema this crate writes. Version 2
/// adds miss-cause counters (totals and per region) and the
/// `attribution` section.
pub const ANALYSIS_SCHEMA_VERSION: u32 = 2;
