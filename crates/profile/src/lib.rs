#![warn(missing_docs)]

//! # ccr-profile — emulation and the Reuse Profiling System
//!
//! The paper's evaluation is *emulation-driven*: the IMPACT framework
//! executes the program functionally and feeds both the profilers and
//! the cycle-level timing model. This crate provides:
//!
//! * a functional [`emulator::Emulator`] for `ccr-ir`
//!   programs, implementing the full execution semantics of the CCR
//!   ISA extensions (reuse lookup, memoization mode, instance
//!   recording, invalidation) against a pluggable
//!   [`crb::CrbModel`],
//! * a structured instruction [`trace`] consumed by observers
//!   ([`trace::TraceSink`]),
//! * the **Reuse Profiling System** ([`rps`]): instruction-level value
//!   profiles, memory-update profiles, and cyclic recurrence profiles
//!   (Section 4.2 of the paper),
//! * the **reuse-potential limit study** ([`potential`]) behind
//!   Figure 4: block-level vs region-level dynamic reuse with an
//!   8-record history per code segment.

pub mod crb;
pub mod emulator;
pub mod potential;
mod regset;
pub mod rps;
pub mod trace;

pub use crb::{CrbModel, MissCause, NullCrb, RecordedInstance, ReuseLookup};
pub use emulator::{
    EmuConfig, EmuError, EmuFrameSnapshot, EmuMemoSnapshot, EmuRun, EmuSnapshot, Emulator,
    RunOutcome,
};
pub use potential::{PotentialConfig, PotentialStudy, ReusePotential};
pub use rps::{
    hash_values, CyclicProfile, InstrProfile, LoopKey, MemProfile, ReuseProfile, ValueProfiler,
    CYCLIC_HISTORY, RECENT_WINDOW, TOP_K,
};
pub use trace::{ExecEvent, MemAccess, MultiSink, NullSink, ReuseOutcome, TraceSink};
