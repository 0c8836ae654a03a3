//! The compile half of the pipeline: optimize → profile → form →
//! annotate.

use std::sync::Arc;

use ccr_ir::Program;
use ccr_opt::{OptConfig, PassRecord, RecordingObserver};
use ccr_profile::{EmuConfig, EmuError, Emulator, NullCrb, ReuseProfile, ValueProfiler};
use ccr_regions::{FormationStats, RegionConfig, RegionInfo};

/// Configuration of the compile pipeline.
#[derive(Clone, Copy, Debug, Default)]
pub struct CompileConfig {
    /// Baseline optimizer settings.
    pub opt: OptConfig,
    /// Region-formation heuristics.
    pub region: RegionConfig,
    /// Emulator limits for the profiling run.
    pub emu: EmuConfig,
}

impl CompileConfig {
    /// The paper's configuration everywhere.
    pub fn paper() -> CompileConfig {
        CompileConfig::default()
    }
}

/// Compile-time observability collected alongside a
/// [`CompiledWorkload`]: what the optimizer and region formation did,
/// and what it cost.
#[derive(Clone, Debug, Default)]
pub struct CompileTelemetry {
    /// Per-pass optimizer records for the target build, in execution
    /// order: wall time and IR size before/after each pass.
    pub passes: Vec<PassRecord>,
    /// Region-formation accounting: candidates examined, regions
    /// accepted, and per-reason rejections — including regions the
    /// reiteration trial discarded (reason `"reiteration"`).
    pub formation: FormationStats,
}

/// A benchmark compiled for CCR evaluation.
#[derive(Clone, Debug)]
pub struct CompiledWorkload {
    /// The optimized, unannotated program (the measurement baseline).
    pub base: Program,
    /// The optimized program with regions annotated.
    pub annotated: Program,
    /// Metadata for every formed region.
    pub regions: Vec<RegionInfo>,
    /// The training-run profile the regions were selected from, shared
    /// with every compile made from the same [`TrainProfile`].
    pub profile: Arc<ReuseProfile>,
    /// Compile-time observability (pass timings, formation stats).
    pub telemetry: CompileTelemetry,
}

/// The half of a compile that does not depend on the region
/// configuration or the target input: the optimized training build
/// and its value profile. It depends only on the training program,
/// `config.opt` and `config.emu`, so one `TrainProfile` serves every
/// region configuration and both target inputs of a workload.
#[derive(Debug)]
pub struct TrainProfile {
    train_opt: Program,
    profile: Arc<ReuseProfile>,
}

/// Optimizes `train` and value-profiles the result: the first stage of
/// [`compile_ccr`].
///
/// # Errors
///
/// Returns [`EmuError`] if the profiling run exceeds emulator limits.
pub fn profile_train(train: &Program, config: &CompileConfig) -> Result<TrainProfile, EmuError> {
    let mut train_opt = train.clone();
    ccr_opt::optimize(&mut train_opt, config.opt);
    let mut profiler = ValueProfiler::for_program(&train_opt);
    Emulator::with_config(&train_opt, config.emu).run(&mut NullCrb, &mut profiler)?;
    Ok(TrainProfile {
        train_opt,
        profile: Arc::new(profiler.finish()),
    })
}

/// Compiles `target` for CCR execution, selecting regions from a
/// profile of `train`.
///
/// `train` and `target` must be two builds of the *same* program that
/// differ only in data-object initializers (the paper's training vs
/// reference inputs). When evaluating on the training input, pass the
/// same program for both.
///
/// This is [`profile_train`] followed by [`compile_with_profile`].
///
/// # Errors
///
/// Returns [`EmuError`] if the profiling run exceeds emulator limits.
///
/// # Panics
///
/// Panics if `train` and `target` differ structurally (different
/// instruction counts), which would make profile data and region
/// coordinates meaningless for the target.
pub fn compile_ccr(
    train: &Program,
    target: &Program,
    config: &CompileConfig,
) -> Result<CompiledWorkload, EmuError> {
    assert_eq!(
        train.instr_count(),
        target.instr_count(),
        "train and target must be the same code (only data may differ)"
    );
    compile_with_profile(&profile_train(train, config)?, target, config)
}

/// The second stage of [`compile_ccr`]: optimizes `target`, forms
/// regions from `train`'s profile, runs the reiteration trial, and
/// annotates. `train` must come from [`profile_train`] with the same
/// `config.opt` and `config.emu`; `config.region` may differ freely.
///
/// # Errors
///
/// Returns [`EmuError`] if the reiteration trial exceeds emulator
/// limits.
///
/// # Panics
///
/// Panics if the optimized `target` differs structurally from the
/// optimized training build.
pub fn compile_with_profile(
    train: &TrainProfile,
    target: &Program,
    config: &CompileConfig,
) -> Result<CompiledWorkload, EmuError> {
    // The optimizer is deterministic, so two builds of one program
    // stay aligned. Pass records are taken from the target build (the
    // one we measure).
    let train_opt = &train.train_opt;
    let mut base = target.clone();
    let mut observer = RecordingObserver::default();
    ccr_opt::optimize_observed(&mut base, config.opt, &mut observer);
    assert_eq!(
        train_opt.instr_count(),
        base.instr_count(),
        "train and target must be the same code (only data may differ)"
    );

    // Select regions on the training build.
    let mut formation = FormationStats::new();
    let mut specs = ccr_regions::form_regions_observed(
        train_opt,
        &train.profile,
        &config.region,
        &mut formation,
    );

    // Reiteration (Section 4.4): trial-run the annotated training
    // build against an idealized buffer and discard regions whose
    // predicted hit ratio cannot pay for the reuse-failure flushes.
    if config.region.min_predicted_hit > 0.0 && !specs.is_empty() {
        let ratios = trial_hit_ratios(train_opt, &specs, config)?;
        // Cost model: a hit saves roughly the region's serialized
        // execution (static instructions over a conservative IPC); a
        // miss costs a mispredict-like flush. Keep a region only if
        // the expected benefit is positive and its hit ratio clears
        // the configured floor.
        const ASSUMED_IPC: f64 = 1.5;
        const MISS_COST: f64 = 9.0;
        let before = specs.len();
        specs = specs
            .into_iter()
            .zip(&ratios)
            .filter_map(|(s, &h)| {
                let saved = s.static_instrs as f64 / ASSUMED_IPC;
                let worth = h * saved >= (1.0 - h) * MISS_COST;
                (h >= config.region.min_predicted_hit && worth).then_some(s)
            })
            .collect();
        formation.demote("reiteration", (before - specs.len()) as u64);
        formation.check();
    }

    let mut annotated_target = base.clone();
    let regions = ccr_regions::transform::annotate(&mut annotated_target, specs);

    Ok(CompiledWorkload {
        base,
        annotated: annotated_target,
        regions,
        profile: Arc::clone(&train.profile),
        telemetry: CompileTelemetry {
            passes: observer.records,
            formation,
        },
    })
}

/// Runs the annotated training build against a conflict-free buffer
/// and returns each region's hit ratio, in spec order.
fn trial_hit_ratios(
    train_opt: &Program,
    specs: &[ccr_regions::RegionSpec],
    config: &CompileConfig,
) -> Result<Vec<f64>, EmuError> {
    use ccr_profile::{ExecEvent, TraceSink};
    use std::collections::HashMap;

    let mut trial = train_opt.clone();
    let infos = ccr_regions::transform::annotate(&mut trial, specs.to_vec());

    #[derive(Default)]
    struct HitCounter {
        counts: HashMap<ccr_ir::RegionId, (u64, u64)>,
    }
    impl TraceSink for HitCounter {
        fn on_exec(&mut self, e: &ExecEvent<'_>) {
            if let Some(r) = e.reuse {
                let slot = self.counts.entry(r.region).or_default();
                if r.hit {
                    slot.0 += 1;
                } else {
                    slot.1 += 1;
                }
            }
        }
    }

    // One entry per region: the trial measures locality, not buffer
    // conflicts (entry-count effects are the hardware's business).
    let mut buffer = ccr_sim::ReuseBuffer::new(ccr_sim::CrbConfig {
        entries: specs.len().max(1),
        instances: config.region.trial_instances,
        input_bank: config.region.max_live_in,
        output_bank: config.region.max_live_out,
        replacement: ccr_sim::Replacement::Lru,
        nonuniform: None,
    });
    let mut counter = HitCounter::default();
    Emulator::with_config(&trial, config.emu).run(&mut buffer, &mut counter)?;
    Ok(infos
        .iter()
        .map(|info| {
            let (h, m) = counter.counts.get(&info.id).copied().unwrap_or((0, 0));
            if h + m == 0 {
                0.0
            } else {
                h as f64 / (h + m) as f64
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccr_profile::NullSink;
    use ccr_workloads::{build, InputSet};

    #[test]
    fn compile_produces_regions_for_a_reuse_rich_benchmark() {
        let p = build("124.m88ksim", InputSet::Train, 1).unwrap();
        let cw = compile_ccr(&p, &p, &CompileConfig::paper()).unwrap();
        assert!(
            !cw.regions.is_empty(),
            "m88ksim must yield reusable regions"
        );
        ccr_ir::verify_program(&cw.base).unwrap();
        ccr_ir::verify_program(&cw.annotated).unwrap();
        // The annotated program carries reuse instructions.
        let reuses = cw
            .annotated
            .iter_instrs()
            .filter(|(_, i)| matches!(i.op, ccr_ir::Op::Reuse { .. }))
            .count();
        assert_eq!(reuses, cw.regions.len());
    }

    #[test]
    fn annotated_program_is_architecturally_equivalent() {
        let p = build("008.espresso", InputSet::Train, 1).unwrap();
        let cw = compile_ccr(&p, &p, &CompileConfig::paper()).unwrap();
        let run = |p: &Program| {
            Emulator::new(p)
                .run(&mut NullCrb, &mut NullSink)
                .unwrap()
                .returned
        };
        assert_eq!(run(&cw.base), run(&cw.annotated));
    }

    #[test]
    fn cross_input_compilation_transfers_regions() {
        let train = build("130.li", InputSet::Train, 1).unwrap();
        let reference = build("130.li", InputSet::Ref, 1).unwrap();
        let cw = compile_ccr(&train, &reference, &CompileConfig::paper()).unwrap();
        ccr_ir::verify_program(&cw.annotated).unwrap();
        // Reference outputs must match the unannotated reference build.
        let run = |p: &Program| {
            Emulator::new(p)
                .run(&mut NullCrb, &mut NullSink)
                .unwrap()
                .returned
        };
        assert_eq!(run(&cw.base), run(&cw.annotated));
    }

    #[test]
    fn compile_telemetry_records_passes_and_formation() {
        let p = build("124.m88ksim", InputSet::Train, 1).unwrap();
        let cw = compile_ccr(&p, &p, &CompileConfig::paper()).unwrap();
        let t = &cw.telemetry;
        assert!(!t.passes.is_empty(), "optimizer passes must be recorded");
        for required in ["constprop", "cse", "dce", "simplify"] {
            assert!(
                t.passes.iter().any(|r| r.pass == required),
                "missing pass record `{required}`"
            );
        }
        // Deltas chain: each record starts where the previous ended.
        for w in t.passes.windows(2) {
            assert_eq!(w[0].instrs_after, w[1].instrs_before);
        }
        // Formation accounting balances, and the accepted count is the
        // number of regions that survived every gate (including the
        // reiteration trial).
        t.formation.check();
        assert_eq!(t.formation.accepted, cw.regions.len() as u64);
        assert!(t.formation.candidates >= t.formation.accepted);
    }

    #[test]
    #[should_panic(expected = "same code")]
    fn structurally_different_programs_are_rejected() {
        let a = build("008.espresso", InputSet::Train, 1).unwrap();
        let b = build("124.m88ksim", InputSet::Train, 1).unwrap();
        let _ = compile_ccr(&a, &b, &CompileConfig::paper());
    }
}
