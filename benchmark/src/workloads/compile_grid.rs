//! `compile-grid`: compiler-heavy, no simulation in the measured
//! rounds. Each round calls `compile_ccr` directly (no compile cache)
//! for all thirteen workloads under sixteen region configurations each,
//! drawn from the ablation axes of the paper's Section 4.4 heuristics.
//! The compiler's own speed shows here and cache deduplication does
//! not. The first round's programs are simulated afterwards, outside
//! the timed window, to check them.

use std::collections::BTreeMap;

use ccr::ir::Program;
use ccr::regions::RegionConfig;
use ccr::sim::{simulate, CrbConfig, MachineConfig, SimOutcome};
use ccr::workloads::{build, InputSet, NAMES};
use ccr::{compile_ccr, CompileConfig, CompiledWorkload};
use ccr_bench::emu_config;

use crate::golden::{self, input_tag, program_digest, sim_digest};
use crate::job::{repeated_setup, timed_rounds, unit_medians, Params, Report};
use crate::layers::{self, Given};
use crate::replay;
use crate::rng::Rng;
use crate::speed::Probed;
use crate::trace::Tracer;

const SCALE: u32 = 1;
/// Set-up repetitions after each round (the first set-up, before the
/// first round, is timed too).
const SETUP_REPS: usize = 3;
const CONFIGS_PER_WORKLOAD: usize = 16;
/// The traced run replays every this many-th unit of the round, so
/// that it stays well inside the run's time limit.
const TRACED_EVERY: usize = 4;

#[derive(Clone, Copy, Debug)]
pub struct Unit {
    workload: usize,
    target: InputSet,
    region: RegionConfig,
}

impl Unit {
    fn config(&self) -> CompileConfig {
        CompileConfig {
            region: self.region,
            emu: emu_config(),
            ..CompileConfig::paper()
        }
    }

    /// The workload and input the unit's baseline is built from.
    fn program(&self) -> String {
        format!(
            "{}|{}|{SCALE}",
            NAMES[self.workload],
            input_tag(self.target)
        )
    }

    fn key(&self) -> String {
        let r = &self.region;
        format!(
            "compile|{}|r{}|md{}|bl{}|fl{}|ti{}|mh{}",
            self.program(),
            r.r_threshold,
            u8::from(r.allow_memory_dependent),
            u8::from(r.block_level_only),
            u8::from(r.function_level),
            r.trial_instances,
            r.min_predicted_hit,
        )
    }
}

/// `CONFIGS_PER_WORKLOAD` configurations per workload. The reiteration
/// trial (the costliest optional stage) runs in exactly half of them and
/// the reference input is the target in exactly half, so a round's cost
/// varies little between seeds; the other axes are drawn freely.
pub fn draw(seed: u64) -> Vec<Unit> {
    let mut rng = Rng::new(seed, "compile-grid");
    let mut units = Vec::new();
    for workload in 0..NAMES.len() {
        let half = |k| k < CONFIGS_PER_WORKLOAD / 2;
        let mut trial: Vec<bool> = (0..CONFIGS_PER_WORKLOAD).map(half).collect();
        let mut reference = trial.clone();
        rng.shuffle(&mut trial);
        rng.shuffle(&mut reference);
        for k in 0..CONFIGS_PER_WORKLOAD {
            let r = [0.5, 0.65, 0.8][rng.below(3)];
            units.push(Unit {
                workload,
                target: if reference[k] {
                    InputSet::Ref
                } else {
                    InputSet::Train
                },
                region: RegionConfig {
                    r_threshold: r,
                    rm_threshold: r,
                    allow_memory_dependent: rng.below(2) == 0,
                    block_level_only: rng.below(2) == 0,
                    function_level: rng.below(2) == 0,
                    trial_instances: [4, 8, 16][rng.below(3)],
                    min_predicted_hit: if trial[k] { 0.35 } else { 0.0 },
                    ..RegionConfig::paper()
                },
            });
        }
    }
    units
}

/// Training and reference builds of every workload.
fn build_all() -> Result<Vec<(Program, Program)>, String> {
    NAMES
        .iter()
        .map(|name| {
            build(name, InputSet::Train, SCALE)
                .zip(build(name, InputSet::Ref, SCALE))
                .ok_or_else(|| format!("unknown workload `{name}`"))
        })
        .collect()
}

fn inputs<'a>(programs: &'a [(Program, Program)], u: &Unit) -> (&'a Program, &'a Program) {
    let (train, reference) = &programs[u.workload];
    match u.target {
        InputSet::Train => (train, train),
        InputSet::Ref => (train, reference),
    }
}

/// A simulation of the output check.
struct Sim<'a> {
    key: String,
    program: &'a Program,
    /// `None` for a baseline.
    crb: Option<CrbConfig>,
    /// Index of the baseline a CCR run pairs with.
    base: usize,
}

impl Sim<'_> {
    fn run(&self) -> Result<SimOutcome, String> {
        simulate(
            self.program,
            &MachineConfig::paper(),
            self.crb,
            emu_config(),
        )
        .map_err(|e| format!("{}: {e}", self.key))
    }
}

/// The output check's simulations: one baseline per built program
/// (every configuration optimizes it alike), and each unit's annotated
/// program against a CRB with as many instances as its trial assumed.
/// Reuse must never change architectural results, so each CCR run must
/// return what its baseline returns.
fn check_sims<'a>(units: &[Unit], compiled: &'a [CompiledWorkload]) -> Vec<Sim<'a>> {
    let mut sims: Vec<Sim<'a>> = Vec::new();
    let mut bases: BTreeMap<String, usize> = BTreeMap::new();
    for (u, cw) in units.iter().zip(compiled) {
        let base = *bases.entry(u.program()).or_insert_with(|| {
            sims.push(Sim {
                key: format!("base|{}", u.program()),
                program: &cw.base,
                crb: None,
                base: sims.len(),
            });
            sims.len() - 1
        });
        sims.push(Sim {
            key: format!("ccr|{}", u.key()),
            program: &cw.annotated,
            crb: Some(CrbConfig::with_instances(u.region.trial_instances)),
            base,
        });
    }
    sims
}

/// Simulates every check unit and returns the digests of their
/// outcomes, plus how many CCR runs returned other than their baseline.
fn check(sims: &[Sim<'_>]) -> Result<(BTreeMap<String, String>, usize), String> {
    let outcomes = sims.iter().map(Sim::run).collect::<Result<Vec<_>, _>>()?;
    let diverged = sims
        .iter()
        .zip(&outcomes)
        .filter(|(s, o)| o.run.returned != outcomes[s.base].run.returned)
        .count();
    let digests = sims
        .iter()
        .zip(&outcomes)
        .map(|(s, o)| (s.key.clone(), sim_digest(o)))
        .collect();
    Ok((digests, diverged))
}

pub fn run(p: &Params) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setup = |clock: &mut Probed| clock.time_part(|| Ok((build_all()?, draw(p.seed))));
    let (programs, units) = repeated_setup(1, &mut report, &mut setup)?;

    let mut first: Option<BTreeMap<String, String>> = None;
    let mut times: Vec<Vec<f64>> = Vec::new();
    timed_rounds(
        p.seconds,
        &mut report,
        || {
            let mut clock = Probed::default();
            let compiled = units
                .iter()
                .map(|u| {
                    let (train, target) = inputs(&programs, u);
                    clock
                        .time(|| compile_ccr(train, target, &u.config()))
                        .map_err(|e| format!("{}: {e}", u.key()))
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok((compiled, clock))
        },
        |(compiled, clock), report| {
            times.push(clock.scaled());
            report.probe_s = clock.probe_s();
            let mut digests: BTreeMap<String, String> = units
                .iter()
                .zip(&compiled)
                .map(|(u, cw)| (u.key(), program_digest(&cw.annotated)))
                .collect();
            let bad = match &first {
                None => {
                    let sims = check_sims(&units, &compiled);
                    let (sim_digests, diverged) = check(&sims)?;
                    report.ops(sims.len(), 0);
                    digests.extend(sim_digests);
                    golden::check("compile-grid", p.seed, &digests)?.len() + diverged
                }
                Some(f) => digests.iter().filter(|(k, v)| f.get(*k) != Some(v)).count(),
            };
            report.ops(compiled.len(), bad);
            first.get_or_insert(digests);
            repeated_setup(SETUP_REPS, report, &mut setup).map(drop)
        },
    )?;
    let medians = unit_medians(&times);
    report.wall_s = medians.iter().sum();
    if p.trace {
        traced(&units, &medians, &mut report)?;
    }
    Ok(report)
}

/// A traced set-up (a span around the workload builds), then a traced
/// sample of the round (see [`TRACED_EVERY`]): a span around each
/// `compile_ccr` call, each directly followed by its stage-by-stage
/// replay (back to back, so a drift in machine speed hits both alike).
/// Then the sample's output-check simulations, each followed by its
/// replay into emulator, CRB and pipeline time. `medians` are the
/// untraced per-unit times.
fn traced(units: &[Unit], medians: &[f64], report: &mut Report) -> Result<(), String> {
    let tr = Tracer::new();
    let programs = tr.span("workloads.build", 0, None, |_| build_all())?;
    let sample: Vec<Unit> = units.iter().step_by(TRACED_EVERY).copied().collect();
    let untraced_wall_s: f64 = medians.iter().step_by(TRACED_EVERY).sum();
    let mut clock = Probed::default();
    let mut compiled = Vec::with_capacity(sample.len());
    for u in &sample {
        let id = tr.new_id();
        let (train, target) = inputs(&programs, u);
        let real = clock
            .time(|| replay::compile(&tr, id, train, target, &u.config()))
            .map_err(|e| format!("{}: {e}", u.key()))?;
        replay::compile_stages(&tr, id, train, target, &u.config(), &real)
            .map_err(|e| format!("{}: {e}", u.key()))?;
        compiled.push(real);
    }
    for sim in check_sims(&sample, &compiled) {
        let id = tr.new_id();
        let name = if sim.crb.is_some() {
            "sim.ccr"
        } else {
            "sim.base"
        };
        let real = tr.span(name, id, None, |_| sim.run())?;
        let (machine, emu) = (MachineConfig::paper(), emu_config());
        replay::sim_layers(&tr, id, sim.program, &machine, sim.crb, emu, &real)
            .map_err(|e| format!("{}: {e}", sim.key))?;
    }
    let given = Given {
        distinct_profiles: NAMES.len() as u64,
        untraced_wall_s,
        traced_wall_s: clock.scaled().iter().sum(),
        ..Given::default()
    };
    let spans = tr.into_spans();
    report.layers = layers::compute(&spans, &given);
    report.spans = spans;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draw_is_seeded_and_balances_the_costly_axes() {
        let keys = |seed| draw(seed).iter().map(Unit::key).collect::<Vec<_>>();
        assert_eq!(keys(1), keys(1));
        assert_ne!(keys(1), keys(2));
        for units in draw(3).chunks(CONFIGS_PER_WORKLOAD) {
            let trials = units.iter().filter(|u| u.region.min_predicted_hit > 0.0);
            assert_eq!(trials.count(), CONFIGS_PER_WORKLOAD / 2);
            let refs = units.iter().filter(|u| u.target == InputSet::Ref);
            assert_eq!(refs.count(), CONFIGS_PER_WORKLOAD / 2);
        }
    }
}
