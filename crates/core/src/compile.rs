//! The compile half of the pipeline: optimize → profile → form →
//! annotate.

use std::collections::HashMap;
use std::sync::Arc;

use ccr_ir::Program;
use ccr_opt::{OptConfig, PassRecord, RecordingObserver};
use ccr_profile::{EmuConfig, EmuError, Emulator, NullCrb, ReuseProfile, ValueProfiler};
use ccr_regions::{FormationStats, RegionConfig, RegionInfo, RegionSpec};

use crate::single_flight::SingleFlight;

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
/// configuration or the target input: the optimized training build,
/// its pass records and its value profile. It depends only on the
/// training program, `config.opt` and `config.emu`, so one
/// `TrainProfile` serves every region configuration and both target
/// inputs of a workload. It also memoizes the reiteration trials run
/// on its training build ([`TrainProfile::trial_stats`]).
pub struct TrainProfile {
    train_opt: Program,
    passes: Vec<PassRecord>,
    profile: Arc<ReuseProfile>,
    /// Per-region trial hit ratios, keyed by the exact trial buffer
    /// shape and pre-trial region list: a trial is a pure function of
    /// the training build and of those two.
    trials: SingleFlight<HashMap<String, Arc<[f64]>>>,
}

impl TrainProfile {
    /// Reiteration trials `(run, reused)` through this profile: how
    /// many compiles ran the trial, and how many read the hit ratios
    /// of an identical trial another compile ran (or was running).
    pub fn trial_stats(&self) -> (u64, u64) {
        (self.trials.misses(), self.trials.hits())
    }

    /// The per-region hit ratios of the trial of `specs` under
    /// `config`, from the memo or from a trial run now.
    fn trial_ratios(
        &self,
        specs: &[RegionSpec],
        config: &CompileConfig,
    ) -> Result<Arc<[f64]>, EmuError> {
        // The buffer and emulator limits the trial runs under.
        let shape = (
            config.region.trial_instances,
            config.region.max_live_in,
            config.region.max_live_out,
            config.emu,
        );
        let key = format!("{shape:?}|{specs:?}");
        self.trials.get_or_run(
            &key,
            |done| done.get(&key).cloned(),
            || trial_hit_ratios(&self.train_opt, specs, config).map(Arc::from),
            |done, ratios| {
                done.insert(key.clone(), Arc::clone(ratios));
            },
        )
    }
}

/// Optimizes `train` and value-profiles the result: the first stage of
/// [`compile_ccr`].
///
/// # Errors
///
/// Returns [`EmuError`] if the profiling run exceeds emulator limits.
pub fn profile_train(train: &Program, config: &CompileConfig) -> Result<TrainProfile, EmuError> {
    let mut train_opt = train.clone();
    let mut observer = RecordingObserver::default();
    ccr_opt::optimize_observed(&mut train_opt, config.opt, &mut observer);
    let mut profiler = ValueProfiler::for_program(&train_opt);
    Emulator::with_config(&train_opt, config.emu).run(&mut NullCrb, &mut profiler)?;
    Ok(TrainProfile {
        train_opt,
        passes: observer.records,
        profile: Arc::new(profiler.finish()),
        trials: SingleFlight::default(),
    })
}

/// Compiles `target` for CCR execution, selecting regions from a
/// profile of `train`.
///
/// `train` and `target` must be two builds of the *same* program that
/// differ only in data-object initializers (the paper's training vs
/// reference inputs). When evaluating on the training input, pass the
/// same program for both: the target build is then the optimized
/// training build, and is not optimized a second time.
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
    let target = (!std::ptr::eq(train, target) && train != target).then_some(target);
    compile_with_profile(&profile_train(train, config)?, target, config)
}

/// The second stage of [`compile_ccr`]: optimizes `target`, forms
/// regions from `train`'s profile, runs the reiteration trial, and
/// annotates. `train` must come from [`profile_train`] with the same
/// `config.opt` and `config.emu`; `config.region` may differ freely.
///
/// A `target` of `None` is the training build itself: its optimized
/// form and pass records are the profile's, since the optimizer is
/// deterministic. The trial's hit ratios are memoized on `train`, so
/// compiles that form the same regions under the same trial buffer
/// shape run it once.
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
    target: Option<&Program>,
    config: &CompileConfig,
) -> Result<CompiledWorkload, EmuError> {
    // The optimizer is deterministic, so two builds of one program
    // stay aligned. Pass records are taken from the target build (the
    // one we measure).
    let train_opt = &train.train_opt;
    let (base, passes) = match target {
        None => (train_opt.clone(), train.passes.clone()),
        Some(target) => {
            let mut base = target.clone();
            let mut observer = RecordingObserver::default();
            ccr_opt::optimize_observed(&mut base, config.opt, &mut observer);
            assert_eq!(
                train_opt.instr_count(),
                base.instr_count(),
                "train and target must be the same code (only data may differ)"
            );
            (base, observer.records)
        }
    };

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
        let ratios = train.trial_ratios(&specs, config)?;
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
            .zip(ratios.iter())
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
        telemetry: CompileTelemetry { passes, formation },
    })
}

/// Runs the annotated training build against a conflict-free buffer
/// and returns each region's hit ratio, in spec order.
fn trial_hit_ratios(
    train_opt: &Program,
    specs: &[RegionSpec],
    config: &CompileConfig,
) -> Result<Vec<f64>, EmuError> {
    use ccr_profile::{ExecEvent, TraceSink};

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

    /// The parts of two compiles that must agree, pass wall times
    /// excepted.
    fn assert_same_compile(a: &CompiledWorkload, b: &CompiledWorkload, what: &str) {
        assert!(a.base == b.base, "base: {what}");
        assert!(a.annotated == b.annotated, "annotated: {what}");
        assert_eq!(a.regions, b.regions, "{what}");
        assert_eq!(a.telemetry.formation, b.telemetry.formation, "{what}");
        let shape = |r: &PassRecord| {
            let mut r = *r;
            r.wall_us = 0;
            r
        };
        let passes =
            |c: &CompiledWorkload| c.telemetry.passes.iter().map(shape).collect::<Vec<_>>();
        assert_eq!(passes(a), passes(b), "passes: {what}");
    }

    #[test]
    fn a_training_target_reuses_the_profiled_build() {
        let config = CompileConfig::paper();
        for name in ["008.espresso", "124.m88ksim"] {
            let train = build(name, InputSet::Train, 1).unwrap();
            let tp = profile_train(&train, &config).unwrap();
            let reused = compile_with_profile(&tp, None, &config).unwrap();
            let optimized = compile_with_profile(&tp, Some(&train), &config).unwrap();
            assert!(!reused.telemetry.passes.is_empty(), "{name}");
            assert_same_compile(&reused, &optimized, name);
        }
    }

    #[test]
    fn the_trial_is_memoized_per_region_list_and_shape() {
        let train = build("124.m88ksim", InputSet::Train, 1).unwrap();
        let paper = CompileConfig::paper();
        let stricter = CompileConfig {
            region: RegionConfig {
                min_predicted_hit: 0.9,
                ..paper.region
            },
            ..paper
        };
        let tp = profile_train(&train, &paper).unwrap();
        let first = compile_with_profile(&tp, None, &paper).unwrap();
        assert!(!first.regions.is_empty());
        // The keep/drop floor is applied to the memoized ratios, so a
        // config differing only in it runs no second trial.
        let memoized = compile_with_profile(&tp, None, &stricter).unwrap();
        assert_eq!(tp.trial_stats(), (1, 1));
        assert!(memoized.regions.len() < first.regions.len());
        let fresh = profile_train(&train, &paper).unwrap();
        let fresh = compile_with_profile(&fresh, None, &stricter).unwrap();
        assert_same_compile(&memoized, &fresh, "min_predicted_hit 0.9");
        // A different trial buffer shape is a different trial.
        let shaped = CompileConfig {
            region: RegionConfig {
                trial_instances: 4,
                ..paper.region
            },
            ..paper
        };
        compile_with_profile(&tp, None, &shaped).unwrap();
        assert_eq!(tp.trial_stats(), (2, 1));
    }

    #[test]
    fn concurrent_identical_trials_run_once() {
        let train = build("124.m88ksim", InputSet::Train, 1).unwrap();
        let config = CompileConfig::paper();
        let tp = profile_train(&train, &config).unwrap();
        let compiles: Vec<CompiledWorkload> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|_| s.spawn(|| compile_with_profile(&tp, None, &config).unwrap()))
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(tp.trial_stats(), (1, 1));
        assert_same_compile(&compiles[0], &compiles[1], "two threads");
    }

    #[test]
    #[should_panic(expected = "same code")]
    fn structurally_different_programs_are_rejected() {
        let a = build("008.espresso", InputSet::Train, 1).unwrap();
        let b = build("124.m88ksim", InputSet::Train, 1).unwrap();
        let _ = compile_ccr(&a, &b, &CompileConfig::paper());
    }
}
