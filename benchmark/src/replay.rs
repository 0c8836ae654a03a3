//! Stage-by-stage replays used by the traced run.
//!
//! The program offers no internal timers for these layers, so the
//! benchmark re-runs the same units through the public calls a layer
//! is made of and times each call. Each replay is checked against the
//! result of the real, untraced call: if a later change to
//! `compile_ccr` or `simulate` makes a replay diverge, the stage split
//! is reported as unavailable rather than wrong.

use std::collections::HashMap;
use std::time::Instant;

use ccr::ir::{CodeLayout, Program, Reg, RegionId, Value};
use ccr::opt::{optimize, optimize_observed, RecordingObserver};
use ccr::profile::{
    CrbModel, EmuConfig, EmuError, Emulator, ExecEvent, MissCause, NullCrb, NullSink,
    RecordedInstance, ReuseLookup, TraceSink, ValueProfiler,
};
use ccr::regions::{form_regions_observed, transform, FormationStats, RegionSpec};
use ccr::sim::{CrbConfig, MachineConfig, Pipeline, Replacement, ReuseBuffer, SimOutcome};
use ccr::{compile_ccr, CompileConfig, CompiledWorkload};

use crate::trace::Tracer;

/// A [`ReuseBuffer`] whose every call is timed.
pub struct TimedCrb {
    pub inner: ReuseBuffer,
    pub ns: u64,
}

impl TimedCrb {
    pub fn new(config: CrbConfig) -> TimedCrb {
        TimedCrb {
            inner: ReuseBuffer::new(config),
            ns: 0,
        }
    }

    fn timed<R>(&mut self, f: impl FnOnce(&mut ReuseBuffer) -> R) -> R {
        let start = Instant::now();
        let out = f(&mut self.inner);
        self.ns += start.elapsed().as_nanos() as u64;
        out
    }
}

impl CrbModel for TimedCrb {
    fn lookup(
        &mut self,
        region: RegionId,
        read_reg: &mut dyn FnMut(Reg) -> Value,
    ) -> Option<ReuseLookup> {
        self.timed(|b| b.lookup(region, read_reg))
    }

    fn record(&mut self, region: RegionId, instance: RecordedInstance) {
        self.timed(|b| b.record(region, instance));
    }

    fn invalidate(&mut self, region: RegionId) {
        self.timed(|b| b.invalidate(region));
    }

    fn input_capacity(&self) -> usize {
        self.inner.input_capacity()
    }

    fn output_capacity(&self) -> usize {
        self.inner.output_capacity()
    }

    fn last_miss_cause(&self) -> Option<MissCause> {
        self.inner.last_miss_cause()
    }
}

fn flag(ok: bool) -> f64 {
    if ok {
        1.0
    } else {
        0.0
    }
}

/// The real `compile_ccr` call in a `compile` span, which carries the
/// compiler's own counts from the result's telemetry: instructions the
/// optimizer's passes took out of the target build (inlining and
/// unrolling add more than that), formation candidates, regions
/// accepted, and regions the reiteration trial demoted.
pub fn compile(
    tr: &Tracer,
    unit: u64,
    train: &Program,
    target: &Program,
    config: &CompileConfig,
) -> Result<CompiledWorkload, EmuError> {
    tr.counted("compile", unit, None, |_| {
        match compile_ccr(train, target, config) {
            Ok(cw) => {
                let t = &cw.telemetry;
                let removed: usize = t
                    .passes
                    .iter()
                    .map(|r| r.instrs_before.saturating_sub(r.instrs_after))
                    .sum();
                let counts = vec![
                    ("instrs_removed", removed as f64),
                    ("candidates", t.formation.candidates as f64),
                    ("accepted", t.formation.accepted as f64),
                    ("demoted", t.formation.rejected_for("reiteration") as f64),
                ];
                (Ok(cw), counts)
            }
            Err(e) => (Err(e), Vec::new()),
        }
    })
}

/// Replays `compile_ccr(train, target, config)` stage by stage, then
/// times a plain emulation of the optimized training build (the
/// emulator's share of value profiling). Returns whether the replay
/// reproduced `expected` exactly.
///
/// Spans: `compile.replay` (children `opt.optimize`, `profile.run`,
/// `regions.form`, `compile.trial` when the trial runs,
/// `regions.annotate`) and `profile.emu`.
pub fn compile_stages(
    tr: &Tracer,
    unit: u64,
    train: &Program,
    target: &Program,
    config: &CompileConfig,
    expected: &CompiledWorkload,
) -> Result<bool, EmuError> {
    let (ok, train_opt) = tr.counted("compile.replay", unit, None, |id| {
        let run = || -> Result<_, EmuError> {
            let (train_opt, base) = tr.span("opt.optimize", unit, Some(id), |_| {
                let mut train_opt = train.clone();
                optimize(&mut train_opt, config.opt);
                let mut base = target.clone();
                optimize_observed(&mut base, config.opt, &mut RecordingObserver::default());
                (train_opt, base)
            });
            let profile = tr.counted("profile.run", unit, Some(id), |_| {
                let mut profiler = ValueProfiler::for_program(&train_opt);
                match Emulator::with_config(&train_opt, config.emu).run(&mut NullCrb, &mut profiler)
                {
                    Ok(run) => (
                        Ok(profiler.finish()),
                        vec![("instrs", run.dyn_instrs as f64)],
                    ),
                    Err(e) => (Err(e), Vec::new()),
                }
            })?;
            let specs = tr.span("regions.form", unit, Some(id), |_| {
                let mut formation = FormationStats::new();
                form_regions_observed(&train_opt, &profile, &config.region, &mut formation)
            });
            let specs = if config.region.min_predicted_hit > 0.0 && !specs.is_empty() {
                tr.span("compile.trial", unit, Some(id), |_| {
                    trial(&train_opt, specs, config)
                })?
            } else {
                specs
            };
            let (annotated, regions) = tr.span("regions.annotate", unit, Some(id), |_| {
                let mut annotated = base.clone();
                let regions = transform::annotate(&mut annotated, specs);
                (annotated, regions)
            });
            let ok = base == expected.base
                && annotated == expected.annotated
                && regions == expected.regions;
            Ok((ok, train_opt, vec![("ok", flag(ok))]))
        };
        match run() {
            Ok((ok, train_opt, counts)) => (Ok((ok, train_opt)), counts),
            Err(e) => (Err(e), vec![("ok", 0.0)]),
        }
    })?;
    tr.counted(
        "profile.emu",
        unit,
        None,
        |_| match Emulator::with_config(&train_opt, config.emu).run(&mut NullCrb, &mut NullSink) {
            Ok(run) => (Ok(()), vec![("instrs", run.dyn_instrs as f64)]),
            Err(e) => (Err(e), Vec::new()),
        },
    )?;
    Ok(ok)
}

/// The reiteration trial of `compile_ccr` (Section 4.4): run the
/// annotated training build against a conflict-free buffer and keep
/// the regions whose hit ratio pays for their reuse-failure flushes.
fn trial(
    train_opt: &Program,
    specs: Vec<RegionSpec>,
    config: &CompileConfig,
) -> Result<Vec<RegionSpec>, EmuError> {
    #[derive(Default)]
    struct HitCounter {
        counts: HashMap<RegionId, (u64, u64)>,
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

    let mut program = train_opt.clone();
    let infos = transform::annotate(&mut program, specs.clone());
    let mut buffer = ReuseBuffer::new(CrbConfig {
        entries: specs.len().max(1),
        instances: config.region.trial_instances,
        input_bank: config.region.max_live_in,
        output_bank: config.region.max_live_out,
        replacement: Replacement::Lru,
        nonuniform: None,
    });
    let mut counter = HitCounter::default();
    Emulator::with_config(&program, config.emu).run(&mut buffer, &mut counter)?;
    const ASSUMED_IPC: f64 = 1.5;
    const MISS_COST: f64 = 9.0;
    Ok(specs
        .into_iter()
        .zip(&infos)
        .filter_map(|(s, info)| {
            let (h, m) = counter.counts.get(&info.id).copied().unwrap_or((0, 0));
            let h = if h + m == 0 {
                0.0
            } else {
                h as f64 / (h + m) as f64
            };
            let saved = s.static_instrs as f64 / ASSUMED_IPC;
            let worth = h * saved >= (1.0 - h) * MISS_COST;
            (h >= config.region.min_predicted_hit && worth).then_some(s)
        })
        .collect())
}

/// Replays one `simulate(program, machine, crb, emu)` call as two
/// runs: emulation alone (with the same buffer, timed, but no
/// pipeline) as `sim.emu`, then the full simulation with the buffer's
/// calls timed as `sim.replay`. The pipeline's share is the difference.
/// Returns whether the replay reproduced `expected`.
pub fn sim_layers(
    tr: &Tracer,
    unit: u64,
    program: &Program,
    machine: &MachineConfig,
    crb: Option<CrbConfig>,
    emu: EmuConfig,
    expected: &SimOutcome,
) -> Result<bool, EmuError> {
    tr.counted("sim.emu", unit, None, |_| {
        let emulator = Emulator::with_config(program, emu);
        let out = match crb {
            Some(config) => {
                let mut buffer = TimedCrb::new(config);
                emulator
                    .run(&mut buffer, &mut NullSink)
                    .map(|run| (run, buffer.ns))
            }
            None => emulator
                .run(&mut NullCrb, &mut NullSink)
                .map(|run| (run, 0)),
        };
        match out {
            Ok((run, crb_ns)) => (
                Ok(()),
                vec![("crb_ns", crb_ns as f64), ("instrs", run.dyn_instrs as f64)],
            ),
            Err(e) => (Err(e), Vec::new()),
        }
    })?;
    tr.counted("sim.replay", unit, None, |_| {
        let mut pipeline = Pipeline::new(*machine, CodeLayout::of(program));
        let emulator = Emulator::with_config(program, emu);
        let out = match crb {
            Some(config) => {
                let mut buffer = TimedCrb::new(config);
                emulator.run(&mut buffer, &mut pipeline).map(|run| {
                    let mut stats = pipeline.into_stats();
                    stats.crb = buffer.inner.stats();
                    (run, stats, buffer.ns)
                })
            }
            None => emulator
                .run(&mut NullCrb, &mut pipeline)
                .map(|run| (run, pipeline.into_stats(), 0)),
        };
        match out {
            Ok((run, stats, crb_ns)) => {
                let ok = run.returned == expected.run.returned && stats == expected.stats;
                let counts = vec![
                    ("ok", flag(ok)),
                    ("crb_ns", crb_ns as f64),
                    ("lookups", stats.crb.lookups as f64),
                    ("hits", stats.crb.hits as f64),
                    ("cycles", stats.cycles as f64),
                ];
                (Ok(ok), counts)
            }
            Err(e) => (Err(e), vec![("ok", 0.0)]),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccr::sim::simulate;
    use ccr::workloads::{build, InputSet};

    #[test]
    fn replays_match_compile_ccr_and_simulate_on_bitcount() {
        let emu = ccr_bench::emu_config();
        let program = build("bitcount", InputSet::Train, 1).expect("bitcount");
        let tr = Tracer::new();
        for region in [
            ccr::regions::RegionConfig::paper(),
            ccr::regions::RegionConfig {
                min_predicted_hit: 0.0,
                ..ccr::regions::RegionConfig::paper()
            },
        ] {
            let config = CompileConfig {
                region,
                emu,
                ..CompileConfig::paper()
            };
            let compiled = compile(&tr, 1, &program, &program, &config).expect("compiles");
            assert!(!compiled.regions.is_empty());
            let ok = compile_stages(&tr, 1, &program, &program, &config, &compiled);
            assert_eq!(ok, Ok(true), "staged compile replay reproduces compile_ccr");

            let machine = MachineConfig::paper();
            for (p, crb) in [
                (&compiled.base, None),
                (&compiled.annotated, Some(CrbConfig::paper())),
                (&compiled.annotated, Some(CrbConfig::with_entries(16))),
            ] {
                let real = simulate(p, &machine, crb, emu).expect("simulates");
                let ok = sim_layers(&tr, 2, p, &machine, crb, emu, &real);
                assert_eq!(ok, Ok(true), "timed-CRB replay reproduces simulate");
            }
        }
        let spans = tr.into_spans();
        let replay = spans
            .iter()
            .find(|s| s.name == "sim.replay" && s.counts[2].1 > 0.0);
        assert!(replay.is_some(), "a CCR replay performed CRB lookups");
        assert!(spans.iter().any(|s| s.name == "compile.trial"));
    }
}
