//! `design-space`: simulation-heavy. Set-up compiles all thirteen
//! workloads once at scale 4 (profiled on the training input, annotated
//! for the reference input); each measured round then simulates every
//! workload's baseline plus twelve CRB/machine points drawn from a
//! seeded grid, calling `simulate` directly with no engine cache. The
//! emulator, the pipeline model and the CRB do nearly all the work and
//! the compiler none.

use std::collections::BTreeMap;

use ccr::regions::RegionConfig;
use ccr::sim::{simulate, CrbConfig, MachineConfig, Replacement, SimOutcome};
use ccr::workloads::{build, InputSet, NAMES};
use ccr::{compile_ccr, CompileConfig, CompiledWorkload};
use ccr_bench::emu_config;

use crate::golden::{self, sim_digest};
use crate::job::{repeated_setup, timed_rounds, unit_medians, Params, Report};
use crate::layers::{self, Given};
use crate::replay;
use crate::rng::Rng;
use crate::speed::Probed;
use crate::trace::Tracer;

const SCALE: u32 = 4;
/// Set-up repetitions, about 3 s each.
const SETUP_REPS: usize = 2;
const POINTS_PER_WORKLOAD: usize = 12;
/// The traced run replays each workload's baseline and its first this
/// many points, a third of the round, so that it stays well inside the
/// run's time limit.
const TRACED_POINTS: usize = 4;
/// The trial's instance count; the CRB's matches it.
const INSTANCES: usize = 8;

#[derive(Clone, Copy, Debug)]
pub struct Point {
    entries: usize,
    replacement: Replacement,
    speculative: bool,
}

impl Point {
    fn machine(&self) -> MachineConfig {
        MachineConfig {
            speculative_validation: self.speculative,
            ..MachineConfig::paper()
        }
    }

    fn crb(&self) -> CrbConfig {
        CrbConfig {
            entries: self.entries,
            instances: INSTANCES,
            replacement: self.replacement,
            ..CrbConfig::paper()
        }
    }

    fn key(&self) -> String {
        format!(
            "e{}|{:?}|spec{}",
            self.entries,
            self.replacement,
            u8::from(self.speculative)
        )
    }
}

/// Per workload, `POINTS_PER_WORKLOAD` distinct points of the 30-point
/// grid. Points are dealt round-robin from one shuffled grid, so every
/// grid point is simulated five or six times whatever the seed, and the
/// round's cost barely depends on it.
pub fn draw(seed: u64) -> Vec<Vec<Point>> {
    let mut grid = Vec::new();
    for entries in [16, 32, 64, 128, 256] {
        for replacement in [Replacement::Lru, Replacement::Fifo, Replacement::Random] {
            for speculative in [false, true] {
                grid.push(Point {
                    entries,
                    replacement,
                    speculative,
                });
            }
        }
    }
    Rng::new(seed, "design-space").shuffle(&mut grid);
    (0..NAMES.len())
        .map(|w| {
            (0..POINTS_PER_WORKLOAD)
                .map(|k| grid[(w * POINTS_PER_WORKLOAD + k) % grid.len()])
                .collect()
        })
        .collect()
}

fn compile_config() -> CompileConfig {
    CompileConfig {
        region: RegionConfig {
            trial_instances: INSTANCES,
            ..RegionConfig::paper()
        },
        emu: emu_config(),
        ..CompileConfig::paper()
    }
}

/// Builds and compiles every workload, timing each as a part of the
/// set-up on `clock`.
fn compile_all(clock: &mut Probed) -> Result<Vec<CompiledWorkload>, String> {
    NAMES
        .iter()
        .map(|name| {
            clock.time_part(|| {
                let train = build(name, InputSet::Train, SCALE).ok_or("unknown workload")?;
                let target = build(name, InputSet::Ref, SCALE).ok_or("unknown workload")?;
                compile_ccr(&train, &target, &compile_config()).map_err(|e| format!("{name}: {e}"))
            })
        })
        .collect()
}

/// The round's simulations, in order: each workload's baseline, then
/// its points.
fn sims<'a>(
    compiled: &'a [CompiledWorkload],
    points: &'a [Vec<Point>],
) -> impl Iterator<Item = (String, &'a CompiledWorkload, Option<Point>)> + 'a {
    compiled
        .iter()
        .zip(points)
        .zip(NAMES)
        .flat_map(|((cw, pts), name)| {
            std::iter::once((format!("base|{name}|ref|{SCALE}"), cw, None)).chain(pts.iter().map(
                move |pt| {
                    (
                        format!("ccr|{name}|ref|{SCALE}|{}", pt.key()),
                        cw,
                        Some(*pt),
                    )
                },
            ))
        })
}

fn simulate_unit(cw: &CompiledWorkload, point: Option<Point>) -> Result<SimOutcome, String> {
    let out = match point {
        None => simulate(&cw.base, &MachineConfig::paper(), None, emu_config()),
        Some(pt) => simulate(&cw.annotated, &pt.machine(), Some(pt.crb()), emu_config()),
    };
    out.map_err(|e| e.to_string())
}

pub fn ops_per_round() -> u64 {
    (NAMES.len() * (1 + POINTS_PER_WORKLOAD)) as u64
}

pub fn run(p: &Params) -> Result<Report, String> {
    let mut report = Report::default();
    let points = draw(p.seed);
    let compiled = repeated_setup(SETUP_REPS, &mut report, compile_all)?;
    let units: Vec<_> = sims(&compiled, &points).collect();

    let mut first: Option<BTreeMap<String, String>> = None;
    let mut cycles = 0u64;
    let mut times: Vec<Vec<f64>> = Vec::new();
    timed_rounds(
        p.seconds,
        &mut report,
        || {
            let mut clock = Probed::default();
            let outcomes = units
                .iter()
                .map(|(_, cw, pt)| clock.time(|| simulate_unit(cw, *pt)))
                .collect::<Result<Vec<_>, _>>()?;
            Ok((outcomes, clock))
        },
        |(outcomes, clock), report| {
            times.push(clock.scaled());
            report.probe_s = clock.probe_s();
            cycles = outcomes.iter().map(|o| o.stats.cycles).sum();
            let mut digests = BTreeMap::new();
            let mut diverged = 0;
            let mut base_returned = None;
            for ((key, _, pt), o) in units.iter().zip(&outcomes) {
                match pt {
                    None => base_returned = Some(&o.run.returned),
                    Some(_) => diverged += usize::from(base_returned != Some(&o.run.returned)),
                }
                digests.insert(key.clone(), sim_digest(o));
            }
            let bad = match &first {
                None => golden::check("design-space", p.seed, &digests)?.len(),
                Some(f) => digests.iter().filter(|(k, v)| f.get(*k) != Some(v)).count(),
            };
            report.ops(outcomes.len(), bad + diverged);
            first.get_or_insert(digests);
            Ok(())
        },
    )?;
    let medians = unit_medians(&times);
    report.wall_s = medians.iter().sum();
    report
        .extras
        .push(("sim_mcycles_per_s", cycles as f64 / report.wall_s / 1e6));
    if p.trace {
        traced(&units, &medians, &mut report)?;
    }
    Ok(report)
}

/// A traced sample of the round (see [`TRACED_POINTS`]): a span around
/// each `simulate` call, each directly followed by its replay into
/// emulator, CRB and pipeline time (back to back, so a drift in machine
/// speed hits both alike). Then one traced set-up whose compiles are
/// replayed stage by stage. `medians` are the untraced per-unit times.
fn traced(
    units: &[(String, &CompiledWorkload, Option<Point>)],
    medians: &[f64],
    report: &mut Report,
) -> Result<(), String> {
    let tr = Tracer::new();
    let mut untraced_wall_s = 0.0;
    let mut clock = Probed::default();
    let sample = units
        .iter()
        .zip(medians)
        .enumerate()
        .filter(|(i, _)| i % (1 + POINTS_PER_WORKLOAD) <= TRACED_POINTS);
    for (_, ((key, cw, pt), untraced)) in sample {
        untraced_wall_s += untraced;
        let u = tr.new_id();
        let name = if pt.is_some() { "sim.ccr" } else { "sim.base" };
        let real = clock.time(|| tr.span(name, u, None, |_| simulate_unit(cw, *pt)))?;
        let (program, machine, crb) = match pt {
            None => (&cw.base, MachineConfig::paper(), None),
            Some(pt) => (&cw.annotated, pt.machine(), Some(pt.crb())),
        };
        replay::sim_layers(&tr, u, program, &machine, crb, emu_config(), &real)
            .map_err(|e| format!("{key}: {e}"))?;
    }
    for name in NAMES {
        let u = tr.new_id();
        let (train, target) = tr.span("workloads.build", u, None, |_| {
            (
                build(name, InputSet::Train, SCALE),
                build(name, InputSet::Ref, SCALE),
            )
        });
        let (train, target) = train.zip(target).ok_or("unknown workload")?;
        let config = compile_config();
        let real = replay::compile(&tr, u, &train, &target, &config)
            .map_err(|e| format!("{name}: {e}"))?;
        replay::compile_stages(&tr, u, &train, &target, &config, &real)
            .map_err(|e| format!("{name}: {e}"))?;
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
    fn draw_is_seeded_and_gives_each_workload_distinct_points() {
        let keys = |seed| -> Vec<Vec<String>> {
            draw(seed)
                .iter()
                .map(|pts| pts.iter().map(Point::key).collect())
                .collect()
        };
        assert_eq!(keys(1), keys(1));
        assert_ne!(keys(1), keys(2));
        for pts in keys(1) {
            assert_eq!(pts.len(), POINTS_PER_WORKLOAD);
            assert!(pts.windows(2).all(|w| w[0] != w[1]));
        }
    }
}
