#![warn(missing_docs)]

//! # ccr-sim — cycle-level simulation of the CCR microarchitecture
//!
//! Models the evaluation machine of Section 5.1 of the paper: a
//! 6-issue in-order processor (four integer ALUs, two memory ports,
//! two floating-point ALUs, one branch unit; 1-cycle integer and
//! 2-cycle load latencies, after the HP PA-7100), split 32 KB
//! direct-mapped instruction and data caches with 32-byte lines and a
//! 12-cycle miss penalty, a 4K-entry BTB of 2-bit saturating counters
//! with an 8-cycle misprediction penalty — plus the **Computation
//! Reuse Buffer** and the reuse pipeline of Section 3.3 (access CRB →
//! read state → validate instances → commit live-outs), with reuse
//! failure costing a misprediction-like flush.
//!
//! Simulation is *execution-driven*: the [`ccr_profile::Emulator`]
//! produces the dynamic instruction stream (consulting the
//! [`crb::ReuseBuffer`] functionally), and the [`pipeline::Pipeline`]
//! charges cycles as a [`ccr_profile::TraceSink`]. [`SimSession`] is
//! the one place that puts the three together; plain
//! ([`simulate`]), fingerprinted, narrated ([`telemetry`]) and resumed
//! ([`snapshot`]) runs are modes of a session.

pub mod btb;
pub mod cache;
pub mod crb;
pub mod fingerprint;
pub mod machine;
pub mod pipeline;
pub mod session;
pub mod snapshot;
pub mod stats;
pub mod telemetry;

pub use btb::Btb;
pub use cache::{Cache, CacheConfig};
pub use crb::{CrbConfig, CrbEvent, CrbEventKind, NonuniformConfig, Replacement, ReuseBuffer};
pub use fingerprint::{
    FingerprintStream, Fold, WindowDigest, DEFAULT_FINGERPRINT_WINDOW, FNV_OFFSET, FNV_PRIME,
};
pub use machine::MachineConfig;
pub use pipeline::Pipeline;
pub use session::{simulate, SimOutcome, SimSession};
pub use snapshot::{
    load_snapshot, parse_snapshot, save_snapshot, write_snapshot, SimSnapshot, SNAP_VERSION,
};
pub use stats::{
    AttrBucket, Attribution, CrbStats, CycleBuckets, FuncCycles, RegionDynStats, SimStats,
};
pub use telemetry::{TraceConfig, DEFAULT_IPC_WINDOW, DEFAULT_SAMPLE_PERIOD};
