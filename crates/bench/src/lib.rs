#![warn(missing_docs)]

//! # ccr-bench — the experiment engine and benchmarks
//!
//! [`Engine`] runs every simulation the CLI and `ccr serve` ask for:
//! [`Engine::execute_plan`] for planned experiment sweeps and
//! [`Engine::run_selected`] for suite/bench runs. The paper's
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
mod single_flight;

use std::sync::Arc;

use ccr_core::compile::{compile_ccr, CompileConfig, CompiledWorkload};
use ccr_core::measure::Measurement;
use ccr_profile::EmuConfig;
use ccr_workloads::{build, InputSet};

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

/// One benchmark's compiled artifacts plus measurement.
pub struct SuiteRun {
    /// Benchmark name.
    pub name: &'static str,
    /// Compile products (annotated program, regions, profile), shared
    /// with the engine's compile cache.
    pub compiled: Arc<CompiledWorkload>,
    /// Baseline vs CCR measurement.
    pub measurement: Measurement,
    /// Host milliseconds spent on this workload (compile + baseline
    /// sim + CCR sim), each phase timed on the thread that ran it —
    /// so per-workload cost stays comparable across job counts.
    pub wall_ms: u64,
}

pub(crate) fn compile_with(
    name: &str,
    target: InputSet,
    scale: u32,
    config: &CompileConfig,
) -> Result<CompiledWorkload, String> {
    let train =
        build(name, InputSet::Train, scale).ok_or_else(|| format!("unknown benchmark `{name}`"))?;
    let target = build(name, target, scale).ok_or_else(|| format!("unknown benchmark `{name}`"))?;
    compile_ccr(&train, &target, config).map_err(|e| format!("{name}: {e}"))
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
    use ccr_regions::RegionConfig;
    use ccr_sim::{CrbConfig, MachineConfig};

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
        assert!(cache
            .get_or_compile("no_such_benchmark", InputSet::Train, 1, &config)
            .is_err());
    }

    #[test]
    fn run_benchmark_produces_consistent_speedup() {
        let crb = CrbConfig::paper();
        let config = CompileConfig {
            region: RegionConfig {
                trial_instances: crb.instances,
                ..RegionConfig::paper()
            },
            emu: emu_config(),
            ..CompileConfig::paper()
        };
        let run = Engine::new(1)
            .run_selected(
                &["130.li"],
                InputSet::Train,
                1,
                &config,
                &MachineConfig::paper(),
                crb,
                emu_config(),
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
