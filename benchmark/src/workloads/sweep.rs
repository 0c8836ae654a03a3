//! `sweep`: the system's real job. The full experiment registry is
//! planned, executed through a fresh single-worker engine with the
//! harness disabled, and rendered, exactly as `ccr exp --all --jobs 1`
//! does; every table must match `results/*.txt` byte for byte.
//!
//! It is the one workload that carries the sweep's redundant work: 117
//! compile units that share 13 value profiles, and baselines that
//! repeat across machine knobs a baseline cannot observe.

use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use ccr::harness::{Harness, HarnessOptions};
use ccr::profile::ReusePotential;
use ccr::sim::{simulate, CrbConfig, MachineConfig, SimOutcome};
use ccr::telemetry::value::{self, Value};
use ccr::workloads::{build, InputSet};
use ccr::{config_hash, reuse_potential, CompileConfig, CompiledWorkload};
use ccr_bench::exp::{self, specs, Executed, ExperimentSpec};
use ccr_bench::{emu_config, Engine, SCALE};

use crate::golden::{self, fields_hash, input_tag, program_digest, sim_digest};
use crate::job::{repeated_setup, timed_rounds, Params, Report};
use crate::layers::{self, Given};
use crate::replay;
use crate::speed::{pin_here, Probed, Sampler};
use crate::stats::median;
use crate::trace::Tracer;

/// Set-up repetitions after each round (the first set-up, before the
/// first round, is timed too).
const SETUP_REPS: usize = 5;

struct CompileUnit {
    key: String,
    name: &'static str,
    input: InputSet,
    config: CompileConfig,
    compiled: Arc<CompiledWorkload>,
}

struct SimUnit {
    key: String,
    compile: usize,
    machine: MachineConfig,
    /// `None` for a baseline.
    crb: Option<CrbConfig>,
    /// The baseline a CCR point pairs with.
    base: Option<usize>,
    outcome: SimOutcome,
}

/// The executed plan's distinct compile and simulation units, keyed the
/// way the planner deduplicates them, in first-encounter order.
fn units(specs: &[&ExperimentSpec], executed: &Executed<'_>) -> (Vec<CompileUnit>, Vec<SimUnit>) {
    let mut compiles: Vec<CompileUnit> = Vec::new();
    let mut sims: Vec<SimUnit> = Vec::new();
    let mut index: BTreeMap<String, usize> = BTreeMap::new();
    for spec in specs {
        let res = executed.results(spec);
        for (si, sc) in spec.scenarios.iter().enumerate() {
            for run in res.runs(si) {
                let point = format!("{}|{}|{}", run.name, input_tag(sc.input), sc.scale);
                let region = fields_hash(&sc.region.fields());
                let ckey = format!("compile|{point}|r:{region}");
                let compile = *index.entry(ckey.clone()).or_insert_with(|| {
                    compiles.push(CompileUnit {
                        key: ckey,
                        name: run.name,
                        input: sc.input,
                        config: CompileConfig {
                            region: sc.region,
                            emu: emu_config(),
                            ..CompileConfig::paper()
                        },
                        compiled: Arc::clone(&run.compiled),
                    });
                    compiles.len() - 1
                });
                let bkey = format!("base|{point}|m:{}", fields_hash(&sc.machine.fields()));
                let base = *index.entry(bkey.clone()).or_insert_with(|| {
                    sims.push(SimUnit {
                        key: bkey,
                        compile,
                        machine: sc.machine,
                        crb: None,
                        base: None,
                        outcome: run.measurement.base.clone(),
                    });
                    sims.len() - 1
                });
                let skey = format!(
                    "ccr|{point}|r:{region}|c:{}",
                    config_hash(&sc.machine, &sc.crb)
                );
                index.entry(skey.clone()).or_insert_with(|| {
                    sims.push(SimUnit {
                        key: skey,
                        compile,
                        machine: sc.machine,
                        crb: Some(sc.crb),
                        base: Some(base),
                        outcome: run.measurement.ccr.clone(),
                    });
                    sims.len() - 1
                });
            }
        }
    }
    (compiles, sims)
}

/// Output digests, plus the units whose CCR run returned something
/// other than its baseline.
fn outputs(compiles: &[CompileUnit], sims: &[SimUnit]) -> (BTreeMap<String, String>, usize) {
    let mut digests = BTreeMap::new();
    for c in compiles {
        digests.insert(c.key.clone(), program_digest(&c.compiled.annotated));
    }
    let mut diverged = 0;
    for s in sims {
        digests.insert(s.key.clone(), sim_digest(&s.outcome));
        if let Some(b) = s.base {
            diverged += usize::from(s.outcome.run.returned != sims[b].outcome.run.returned);
        }
    }
    (digests, diverged)
}

/// Tables plus the plan's distinct compile and simulation units.
pub fn ops_per_round() -> u64 {
    let registry = specs::registry();
    let specs: Vec<&ExperimentSpec> = registry.iter().collect();
    let stats = exp::plan(&specs).stats;
    (registry.len() + stats.unique_compiles + stats.unique_sims) as u64
}

pub fn run(p: &Params) -> Result<Report, String> {
    let mut report = Report::default();
    // Set-up: the registry, its plan, and the reference tables. The
    // plan borrows the registry, so each repetition plans its own and
    // the rounds use one made the same way afterwards.
    let mut setup = |clock: &mut Probed| {
        clock.time_part(|| {
            let registry = specs::registry();
            let expected = registry
                .iter()
                .map(|s| {
                    let path = format!("results/{}.txt", s.output);
                    std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))
                })
                .collect::<Result<Vec<String>, String>>()?;
            std::hint::black_box(exp::plan(&registry.iter().collect::<Vec<_>>()));
            Ok((registry, expected))
        })
    };
    let (registry, expected) = repeated_setup(1, &mut report, &mut setup)?;
    let specs: Vec<&ExperimentSpec> = registry.iter().collect();
    let plan = exp::plan(&specs);

    // The engine runs every unit on this thread (one worker); a sampler
    // on the same CPU tracks the machine's speed under it.
    let sampler = Sampler::start(&[pin_here()?])?;
    let mut scaled_rounds = Vec::new();
    let mut first: Option<BTreeMap<String, String>> = None;
    timed_rounds(
        p.seconds,
        &mut report,
        || {
            let start = Instant::now();
            let engine = Engine::new(1);
            let executed = engine.execute_plan(&plan, &Harness::disabled(), None, None)?;
            let texts: Vec<String> = specs
                .iter()
                .map(|s| executed.results(s).render().text)
                .collect();
            Ok((executed, texts, sampler.speed(start, Instant::now())))
        },
        |(executed, texts, speed), report| {
            scaled_rounds.extend(report.rounds.last().map(|r| r * speed));
            let bad_tables = texts.iter().zip(&expected).filter(|(a, b)| a != b).count();
            for (spec, (a, b)) in specs.iter().zip(texts.iter().zip(&expected)) {
                if a != b {
                    eprintln!(
                        "sweep: {} differs from results/{}.txt",
                        spec.name, spec.output
                    );
                }
            }
            report.ops(texts.len(), bad_tables);
            let (compiles, sims) = units(&specs, &executed);
            let (digests, diverged) = outputs(&compiles, &sims);
            let bad = match &first {
                None => golden::check("sweep", p.seed, &digests)?.len(),
                Some(f) => digests.iter().filter(|(k, v)| f.get(*k) != Some(v)).count(),
            };
            report.ops(digests.len(), bad + diverged);
            first.get_or_insert(digests);
            repeated_setup(SETUP_REPS, report, &mut setup).map(drop)
        },
    )?;
    report.wall_s = median(&scaled_rounds);
    report.probe_s = sampler.probe_s();
    if p.trace {
        traced(&specs, &sampler, &mut report)?;
    }
    Ok(report)
}

/// Busy time of the engine's job-pool workers, from the harness log.
fn pool_busy_ms(path: &Path) -> Result<f64, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut busy_ns = 0u64;
    for line in text.lines() {
        let v = value::parse(line).map_err(|e| format!("{}: {e:?}", path.display()))?;
        if v.str_field("ev") == "pool" {
            for w in v.get("workers").and_then(Value::as_arr).unwrap_or(&[]) {
                busy_ns += w.u64_field("busy_ns");
            }
        }
    }
    Ok(busy_ns as f64 / 1e6)
}

/// One more pass with the harness logging to a file and spans around
/// the planner, the engine and the renderer, timed at the nominal speed
/// like the untraced rounds; then every distinct unit again through
/// direct calls, split into layers.
fn traced(specs: &[&ExperimentSpec], sampler: &Sampler, report: &mut Report) -> Result<(), String> {
    let tr = Tracer::new();
    let harness_path = Path::new("benchmark/out/harness.jsonl");
    let plan = tr.span("exp.plan", 0, None, |_| exp::plan(specs));
    let start = Instant::now();
    let harness = Harness::start(&HarnessOptions {
        out: Some(harness_path.to_path_buf()),
        ..HarnessOptions::default()
    })
    .map_err(|e| format!("harness: {e}"))?;
    let engine = Engine::new(1);
    let exec_start = Instant::now();
    let executed = tr.span("engine.execute", 0, None, |_| {
        engine.execute_plan(&plan, &harness, None, None)
    })?;
    let execute_ms = exec_start.elapsed().as_secs_f64() * 1e3;
    for s in specs {
        tr.span("exp.render", 0, None, |_| executed.results(s).render());
    }
    harness.finish();
    let traced_wall_s = start.elapsed().as_secs_f64() * sampler.speed(start, Instant::now());

    let rc = engine.result_cache();
    let mut given = Given {
        compile_cache: executed.cache_stats(),
        result_cache: (rc.hits(), rc.misses()),
        result_cache_evictions: rc.evictions(),
        engine_overhead_ms: execute_ms - pool_busy_ms(harness_path)?,
        untraced_wall_s: report.wall_s,
        traced_wall_s,
        ..Given::default()
    };

    let (compiles, sims) = units(specs, &executed);
    let emu = emu_config();
    let mut fresh: Vec<CompiledWorkload> = Vec::with_capacity(compiles.len());
    for c in &compiles {
        let u = tr.new_id();
        let (train, target) = tr.span("workloads.build", u, None, |_| {
            (
                build(c.name, InputSet::Train, SCALE),
                build(c.name, c.input, SCALE),
            )
        });
        let (train, target) = train.zip(target).ok_or("unknown workload")?;
        let real = replay::compile(&tr, u, &train, &target, &c.config)
            .map_err(|e| format!("{}: {e}", c.name))?;
        report.ops(1, usize::from(real.annotated != c.compiled.annotated));
        replay::compile_stages(&tr, u, &train, &target, &c.config, &real)
            .map_err(|e| format!("{}: {e}", c.name))?;
        fresh.push(real);
    }
    let mut base_digests = Vec::new();
    for s in &sims {
        let u = tr.new_id();
        let cw = &fresh[s.compile];
        let (name, program) = match s.crb {
            None => ("sim.base", &cw.base),
            Some(_) => ("sim.ccr", &cw.annotated),
        };
        let real = tr
            .span(name, u, None, |_| simulate(program, &s.machine, s.crb, emu))
            .map_err(|e| format!("{}: {e}", s.key))?;
        let same = real.stats == s.outcome.stats && real.run.returned == s.outcome.run.returned;
        report.ops(1, usize::from(!same));
        replay::sim_layers(&tr, u, program, &s.machine, s.crb, emu, &real)
            .map_err(|e| format!("{}: {e}", s.key))?;
        if s.crb.is_none() {
            let c = &compiles[s.compile];
            let program_key = format!("{}|{}", c.name, input_tag(c.input));
            base_digests.push((program_key, sim_digest(&real)));
        }
    }
    let fig4 = specs
        .iter()
        .find(|s| s.potential)
        .ok_or("registry has no potential study")?;
    let expected: Vec<ReusePotential> = executed.results(fig4).potentials().to_vec();
    for (name, want) in fig4.workloads.iter().zip(expected) {
        let u = tr.new_id();
        let program = build(name, InputSet::Train, SCALE).ok_or("unknown workload")?;
        let got = tr
            .span("profile.potential", u, None, |_| {
                reuse_potential(&program, emu)
            })
            .map_err(|e| format!("{name}: {e}"))?;
        report.ops(1, usize::from(got != want));
    }
    given.base_duplicate = layers::duplicates(&base_digests);
    given.distinct_profiles = compiles
        .iter()
        .map(|c| c.name)
        .collect::<HashSet<_>>()
        .len() as u64;
    let spans = tr.into_spans();
    report.layers = layers::compute(&spans, &given);
    report.spans = spans;
    Ok(())
}
