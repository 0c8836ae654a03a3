#![warn(missing_docs)]

//! # ccr-bench — the experiment engine and benchmarks
//!
//! [`Engine`] runs every simulation the CLI and `ccr serve` ask for,
//! through [`Engine::execute_plan`]: planned experiment sweeps
//! directly, suite/bench runs and served points as the one-scenario
//! plan [`Engine::run_selected`] builds. The paper's
//! evaluation (Section 5) is a registry of experiment specs
//! ([`exp::specs`]), each regenerated by `ccr exp <name>`:
//!
//! | `ccr exp` | paper result |
//! |---|---|
//! | `fig4` | Figure 4 — dynamic reuse potential, block vs region |
//! | `fig8a` | Figure 8(a) — speedup vs computation instances (128 entries × 4/8/16 CIs) |
//! | `fig8b` | Figure 8(b) — speedup vs entries (32/64/128 × 8 CIs) |
//! | `fig9` | Figure 9 — static & dynamic computation-group distributions |
//! | `fig10` | Figure 10 — cumulative reuse of the top 10/20/30/40 % computations |
//! | `fig11` | Figure 11 — training vs reference input speedup |
//! | `ablations` | design-space studies from DESIGN.md §5 |
//! | `width` | extension — CCR speedup vs machine issue width |
//!
//! Criterion benches under `benches/` time the simulator and compiler
//! components themselves.

pub mod engine;
pub mod exp;

use std::sync::Arc;

use ccr_analyze::{BenchWorkload, RunRecord};
use ccr_core::compile::CompiledWorkload;
use ccr_core::measure::Measurement;
use ccr_profile::EmuConfig;
use ccr_workloads::InputSet;

pub use engine::{CachedSim, Engine, SimResultCache, DEFAULT_RESULT_CACHE_CAPACITY};
pub use exp::CompileCache;

/// Default driver scale for experiment binaries (kept moderate so the
/// full suite regenerates in seconds per configuration).
pub const SCALE: u32 = 1;

/// Emulator limits for experiment runs.
pub fn emu_config() -> EmuConfig {
    EmuConfig {
        max_instrs: 200_000_000,
        max_depth: 512,
    }
}

/// Emulator limits of single-configuration runs ([`exp::Scenario::single`]):
/// the CLI's commands and `ccr serve`'s point submissions.
pub const RUN_EMU: EmuConfig = EmuConfig {
    max_instrs: 500_000_000,
    max_depth: 1024,
};

/// One benchmark's compiled artifacts plus measurement.
pub struct SuiteRun {
    /// Benchmark name.
    pub name: &'static str,
    /// Compile products (annotated program, regions, profile), shared
    /// with the engine's compile cache.
    pub compiled: Arc<CompiledWorkload>,
    /// Baseline vs CCR measurement.
    pub measurement: Measurement,
    /// Host milliseconds of this workload's baseline and CCR
    /// simulations, each timed on the thread that ran it (so the figure
    /// stays comparable across job counts) and reported as originally
    /// measured on a result-cache hit. Compile time is not included.
    pub wall_ms: u64,
}

impl SuiteRun {
    /// The one builder of a measured point's run-store record: the
    /// point's identity (this run under `input`, `scale` and the
    /// machine/CRB `config_hash`), both outcomes, the region count and
    /// the host time with the throughput derived from it. Callers stamp
    /// `source`, `timestamp`, `commit` and their session-level host
    /// figures.
    pub fn record(&self, input: InputSet, scale: u32, config_hash: &str) -> RunRecord {
        let m = &self.measurement;
        let (base_cycles, ccr_cycles) = (m.base.stats.cycles, m.ccr.stats.cycles);
        RunRecord {
            config_hash: config_hash.to_string(),
            workload: self.name.to_string(),
            input: input.name().to_string(),
            scale: u64::from(scale),
            base_cycles,
            ccr_cycles,
            speedup: m.speedup(),
            hit_rate: m.hit_rate(),
            miss_causes: m.miss_causes(),
            regions: self.compiled.regions.len() as u64,
            wall_ms: self.wall_ms,
            sim_cycles_per_host_sec: BenchWorkload::host_throughput(
                base_cycles,
                ccr_cycles,
                self.wall_ms,
            ),
            ..RunRecord::default()
        }
    }
}

/// Arithmetic mean of a sequence (the paper reports average speedups).
pub fn mean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = xs.into_iter().collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccr_core::compile::CompileConfig;
    use ccr_regions::RegionConfig;
    use ccr_sim::{CrbConfig, MachineConfig};
    use exp::Scenario;

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean([]), 0.0);
        assert_eq!(mean([2.0, 4.0]), 3.0);
    }

    #[test]
    fn compile_cache_hits_on_identical_config_only() {
        let cache = CompileCache::new();
        let config = CompileConfig {
            emu: emu_config(),
            ..CompileConfig::paper()
        };
        let a = cache
            .get_or_compile("bitcount", InputSet::Train, 1, &config)
            .unwrap();
        let b = cache
            .get_or_compile("bitcount", InputSet::Train, 1, &config)
            .unwrap();
        assert!(
            std::sync::Arc::ptr_eq(&a, &b),
            "identical configs must share one compile"
        );
        assert_eq!((cache.misses(), cache.hits()), (1, 1));
        // A different region configuration is a different program.
        let block = CompileConfig {
            region: RegionConfig::block_level(),
            ..config
        };
        let c = cache
            .get_or_compile("bitcount", InputSet::Train, 1, &block)
            .unwrap();
        assert!(!std::sync::Arc::ptr_eq(&a, &c));
        assert_eq!((cache.misses(), cache.hits()), (2, 1));
        // ...compiled from the same value profile.
        assert!(std::sync::Arc::ptr_eq(&a.profile, &c.profile));
        assert_eq!((cache.profiles_run(), cache.profiles_reused()), (1, 1));
        assert!(cache
            .get_or_compile("no_such_benchmark", InputSet::Train, 1, &config)
            .is_err());
    }

    #[test]
    fn run_benchmark_produces_consistent_speedup() {
        let scenario = Scenario::new(
            "paper",
            InputSet::Train,
            &RegionConfig::paper(),
            &MachineConfig::paper(),
            CrbConfig::paper(),
        );
        let run = Engine::new(1)
            .run_selected(
                &["130.li"],
                &scenario,
                &ccr_core::harness::Harness::disabled(),
            )
            .unwrap()
            .pop()
            .expect("one run for one name");
        let s = run.measurement.speedup();
        assert!(s > 0.9 && s < 3.0, "speedup {s}");
        assert!(!run.compiled.regions.is_empty());
    }
}
