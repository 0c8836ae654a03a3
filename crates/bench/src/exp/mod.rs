//! Declarative experiment engine: specs, a deduplicating sweep
//! planner, and a parallel executor.
//!
//! The paper's evaluation is a family of *sweeps*: run the benchmark
//! suite under a set of configurations that differ along one axis
//! (CRB instances, CRB entries, input set, machine width, a formation
//! knob) and render tables from the measurements. Historically each
//! figure was a hand-rolled binary that re-implemented the sweep loop
//! — and re-simulated (workload, config) points other figures had
//! already run. This module replaces that with three layers:
//!
//! 1. **Specs** ([`ExperimentSpec`], registry in [`specs`]): a named
//!    experiment is a workload selection, a list of [`Scenario`]s
//!    (input set + region/machine/CRB configuration), and a renderer
//!    that turns measurements into the figure's tables.
//! 2. **Planner** ([`plan`]): expands the selected specs into the
//!    *unique* set of compile and simulation units. Distinct specs
//!    (and repeated scenarios within one spec) that need the same
//!    (workload, region-config) pair compile it once; the same full
//!    (workload, region, machine, CRB) point simulates once. Units
//!    are keyed by FNV-1a hashes of the canonical config field
//!    enumerations ([`ccr_regions::RegionConfig::fields`],
//!    [`ccr_sim::MachineConfig::fields`],
//!    [`ccr_sim::CrbConfig::fields`]) and the PR-2
//!    [`ccr_core::config_hash`]. Baseline simulations do not depend
//!    on the region configuration at all (the baseline program is the
//!    optimized, unannotated build), nor on the machine knobs only a
//!    reuse instruction reads ([`ccr_sim::MachineConfig::baseline_fields`]),
//!    so they deduplicate across scenarios that form different regions
//!    or vary the reuse penalties.
//! 3. **Executor** ([`crate::Engine::execute_plan`]): fans the planned
//!    units through the [`ccr_core::jobs`] pool — compiles and
//!    reuse-potential studies first, then the simulations in functional
//!    groups, one emulation per group feeding one pipeline per machine
//!    (see [`crate::engine`]).
//!
//! **Bit-identity contract:** every rendered table is byte-identical
//! to what the original per-figure binaries printed. Deduplication only
//! elides *repeats* of deterministic work; each spec's renderer reads
//! the same statistics it always did (`tests/exp_golden.rs` pins this
//! against the committed `results/` tables).
//!
//! **Resumable sweeps** (the `checkpoint` argument of
//! [`crate::Engine::execute_plan`]): a checkpoint path is opened as
//! the disk journal of the engine's [`crate::SimResultCache`]. Every
//! newly simulated unit is appended to the line-tolerant
//! `{"ckpt_v":4,...}` JSONL file as it completes, and a later run loads
//! the file's lines as ready cache entries, so finished units are
//! ordinary cache hits instead of re-simulations. Lines are keyed by
//! result-cache key — the planner's dedup key (workload, input, scale,
//! emulator limits, config-field hashes) plus a CCR point's
//! fingerprint window (`fp:none` without one, and on every baseline) —
//! so a stale checkpoint from a different sweep never matches, nor do
//! CCR lines recorded without fingerprints or at another window, while
//! a plain checkpoint's baselines resume a fingerprinted sweep. A
//! torn final line (crashed run) fails to parse and is silently
//! re-simulated. With a fingerprint window, every CCR simulation's
//! [`ccr_sim::SimSession`] additionally folds the determinism
//! fingerprint (bit-identical statistics) and reports its final
//! chain hash in the `fingerprint` of its
//! [`Executed::records`] entry.

pub mod specs;

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

use ccr_analyze::RunRecord;
use ccr_core::compile::{
    compile_with_profile, profile_train, CompileConfig, CompiledWorkload, TrainProfile,
};
use ccr_core::measure::Measurement;
use ccr_core::report::Table;
use ccr_core::single_flight::SingleFlight;
use ccr_core::telemetry::value::{self, req, req_arr, req_u64, Value};
use ccr_core::telemetry::JsonWriter;
use ccr_core::{config_hash, fnv1a_hex};
use ccr_profile::{EmuConfig, ReusePotential, RunOutcome};
use ccr_regions::RegionConfig;
use ccr_sim::snapshot::{parse_sim_stats, write_sim_stats};
use ccr_sim::{CrbConfig, MachineConfig, SimOutcome};
use ccr_workloads::{build, InputSet};

use crate::engine::CachedSim;
use crate::{emu_config, SuiteRun, RUN_EMU, SCALE};

/// One configuration a workload selection runs under: the only
/// description of a selection, whether it is one scenario of an
/// experiment spec or the single scenario of `ccr suite`, `ccr bench`
/// or a served point ([`crate::Engine::run_selected`]).
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Human-readable label (planner log only; renderers carry their
    /// own column headings).
    pub label: String,
    /// Input set the target build uses (profiling is always Train).
    pub input: InputSet,
    /// Workload scale factor.
    pub scale: u32,
    /// Region-formation configuration (with `trial_instances` already
    /// matched to the CRB — see [`Scenario::new`]).
    pub region: RegionConfig,
    /// Simulated machine.
    pub machine: MachineConfig,
    /// Simulated reuse buffer.
    pub crb: CrbConfig,
    /// Emulator limits. They bound the training profile and both
    /// simulations of every point, so a compile and its simulations
    /// never disagree on them.
    pub emu: EmuConfig,
}

/// The unit keys of one (workload, scenario) point.
#[derive(Clone)]
pub(crate) struct PointKeys {
    pub(crate) compile: String,
    pub(crate) profile: String,
    pub(crate) base: String,
    pub(crate) ccr: String,
}

impl Scenario {
    /// Builds a scenario at the default experiment [`SCALE`] and
    /// emulator limits ([`emu_config`]), matching the compiler's
    /// selection trial to the hardware's instance count
    /// (`region.trial_instances = crb.instances`): the compiler
    /// targets the actual machine.
    pub fn new(
        label: impl Into<String>,
        input: InputSet,
        region: &RegionConfig,
        machine: &MachineConfig,
        crb: CrbConfig,
    ) -> Scenario {
        Scenario {
            label: label.into(),
            input,
            scale: SCALE,
            region: RegionConfig {
                trial_instances: crb.instances,
                ..*region
            },
            machine: *machine,
            crb,
            emu: emu_config(),
        }
    }

    /// The scenario of a single-configuration run (`ccr suite`, `ccr
    /// bench`, `ccr run`, a served point): `input` at `scale` on the
    /// paper machine under `crb`, forming regions per `region` with the
    /// trial matched to the CRB, within the [`RUN_EMU`] limits.
    pub fn single(input: InputSet, scale: u32, region: &RegionConfig, crb: CrbConfig) -> Scenario {
        Scenario {
            scale,
            emu: RUN_EMU,
            ..Scenario::new("selection", input, region, &MachineConfig::paper(), crb)
        }
    }

    /// The compile configuration this scenario's workloads build with.
    pub fn compile_config(&self) -> CompileConfig {
        CompileConfig {
            region: self.region,
            emu: self.emu,
            ..CompileConfig::paper()
        }
    }

    /// The unit keys of `name`'s point under this scenario.
    fn keys(&self, name: &str) -> PointKeys {
        let config = self.compile_config();
        let compile = compile_key(name, self.input, self.scale, &config);
        PointKeys {
            profile: profile_key(name, self.scale, &config),
            base: base_sim_key(name, self.input, self.scale, &config, &self.machine),
            ccr: ccr_sim_key(&compile, &self.machine, &self.crb),
            compile,
        }
    }

    /// Every knob that identifies this scenario's point, as prefixed
    /// `(field, value)` pairs — the planner's axis detection and the
    /// human side of its dedup keys.
    fn point_fields(&self) -> Vec<(String, String)> {
        let mut out = vec![
            ("input".to_string(), self.input.name().to_string()),
            ("scale".to_string(), self.scale.to_string()),
        ];
        for (prefix, fields) in [
            ("region", self.region.fields()),
            ("machine", self.machine.fields()),
            ("crb", self.crb.fields()),
        ] {
            out.extend(
                fields
                    .into_iter()
                    .map(|(n, v)| (format!("{prefix}.{n}"), v)),
            );
        }
        out
    }
}

/// A named, declarative experiment: what to run and how to render it.
pub struct ExperimentSpec {
    /// Short CLI name (`ccr exp fig8a`).
    pub name: &'static str,
    /// Output file stem — also the legacy binary's name, accepted as
    /// a CLI alias (`ccr exp fig8a_instances`).
    pub output: &'static str,
    /// One-line description (`ccr exp --list`).
    pub title: &'static str,
    /// Workload selection, in presentation order.
    pub workloads: &'static [&'static str],
    /// Sweep scenarios, in presentation order. Repeats are fine — the
    /// planner deduplicates; renderers index scenarios positionally.
    pub scenarios: Vec<Scenario>,
    /// Whether the spec also needs the compiler-side reuse-potential
    /// study (Figure 4) for each workload on the Train input.
    pub potential: bool,
    /// Renders measurements into the figure's text and tables.
    pub render: fn(&SpecResults<'_>) -> Rendered,
}

/// A rendered experiment: the exact text the legacy binary printed,
/// plus each table for CSV export.
pub struct Rendered {
    /// Byte-identical stdout of the legacy per-figure binary.
    pub text: String,
    /// Named tables (`<output>.<name>.csv` under `--out`).
    pub tables: Vec<(&'static str, Table)>,
}

/// Everything one spec's renderer may read: per-scenario runs (in
/// workload order) and, for potential studies, per-workload
/// [`ReusePotential`].
pub struct SpecResults<'a> {
    /// The spec being rendered.
    pub spec: &'a ExperimentSpec,
    scenario_runs: Vec<Vec<SuiteRun>>,
    potentials: Vec<ReusePotential>,
}

impl SpecResults<'_> {
    /// The runs of scenario `i`, in `spec.workloads` order.
    pub fn runs(&self, scenario: usize) -> &[SuiteRun] {
        &self.scenario_runs[scenario]
    }

    /// Per-workload reuse potential (empty unless `spec.potential`).
    pub fn potentials(&self) -> &[ReusePotential] {
        &self.potentials
    }

    /// Renders the spec from these results.
    pub fn render(&self) -> Rendered {
        (self.spec.render)(self)
    }
}

pub(crate) fn hash_fields(fields: &[(&'static str, String)]) -> String {
    let mut s = String::new();
    for (n, v) in fields {
        s.push_str(n);
        s.push('=');
        s.push_str(v);
        s.push(';');
    }
    fnv1a_hex(s.as_bytes())
}

/// The key a compile unit deduplicates under: workload, target input,
/// scale, the FNV-1a hash of the region-config field enumeration, and
/// the (constant across specs) optimizer + emulator settings.
fn compile_key(name: &str, input: InputSet, scale: u32, config: &CompileConfig) -> String {
    format!(
        "{name}|{}|{scale}|r:{}|opt:{:?}|emu:{}/{}",
        input.name(),
        hash_fields(&config.region.fields()),
        config.opt,
        config.emu.max_instrs,
        config.emu.max_depth,
    )
}

/// The key of a compile's first stage ([`profile_train`]): the
/// training build's optimization and value profile depend on the
/// workload, scale, optimizer and emulator settings only — not on the
/// region configuration or the target input.
fn profile_key(name: &str, scale: u32, config: &CompileConfig) -> String {
    format!(
        "train|{name}|{scale}|opt:{:?}|emu:{}/{}",
        config.opt, config.emu.max_instrs, config.emu.max_depth,
    )
}

/// Baseline simulations depend on the optimized program and the
/// machine — not on regions or the CRB — so their key drops the
/// region-config hash entirely, and hashes only the machine fields an
/// unannotated program can observe ([`MachineConfig::baseline_fields`]).
fn base_sim_key(
    name: &str,
    input: InputSet,
    scale: u32,
    config: &CompileConfig,
    machine: &MachineConfig,
) -> String {
    format!(
        "base|{name}|{}|{scale}|opt:{:?}|emu:{}/{}|m:{}",
        input.name(),
        config.opt,
        config.emu.max_instrs,
        config.emu.max_depth,
        hash_fields(&machine.baseline_fields()),
    )
}

/// CCR simulations depend on the compiled (annotated) program plus
/// the full simulated hardware, keyed by the PR-2 FNV-1a
/// [`config_hash`] over machine + CRB.
fn ccr_sim_key(compile_key: &str, machine: &MachineConfig, crb: &CrbConfig) -> String {
    format!("ccr|{compile_key}|cfg:{}", config_hash(machine, crb))
}

fn potential_key(name: &str, input: InputSet, scale: u32) -> String {
    format!("pot|{name}|{}|{scale}", input.name())
}

pub(crate) struct CompileUnit {
    pub(crate) name: &'static str,
    pub(crate) input: InputSet,
    pub(crate) scale: u32,
    pub(crate) config: CompileConfig,
    pub(crate) key: String,
}

pub(crate) struct BaseUnit {
    pub(crate) name: &'static str,
    pub(crate) machine: MachineConfig,
    pub(crate) emu: EmuConfig,
    /// Any compile unit whose `base` program this sim runs (every
    /// region config yields the same optimized baseline).
    pub(crate) compile_key: String,
    pub(crate) key: String,
}

pub(crate) struct CcrUnit {
    pub(crate) name: &'static str,
    pub(crate) input: InputSet,
    pub(crate) scale: u32,
    pub(crate) machine: MachineConfig,
    pub(crate) crb: CrbConfig,
    pub(crate) emu: EmuConfig,
    /// This point's keys: its compile, the baseline it pairs with, and
    /// (`keys.ccr`) its own.
    pub(crate) keys: PointKeys,
}

pub(crate) struct PotentialUnit {
    pub(crate) name: &'static str,
    pub(crate) input: InputSet,
    pub(crate) scale: u32,
    pub(crate) key: String,
}

/// What the planner decided to run: the deduplicated unit lists plus
/// accounting for the log.
pub struct Plan<'s> {
    pub(crate) specs: Vec<&'s ExperimentSpec>,
    pub(crate) compiles: Vec<CompileUnit>,
    pub(crate) bases: Vec<BaseUnit>,
    pub(crate) ccrs: Vec<CcrUnit>,
    pub(crate) potentials: Vec<PotentialUnit>,
    /// Dedup accounting and per-spec axis summaries.
    pub stats: PlanStats,
}

impl Plan<'_> {
    /// Every unit key of the plan, in unit order: each compile's key
    /// followed by its value profile's, then the baseline, CCR and
    /// potential-study keys. Result-cache and checkpoint keys are the
    /// sim keys plus the fingerprint window, so an unchanged list means
    /// journals written by an earlier build still resume.
    pub fn unit_keys(&self) -> Vec<String> {
        let mut keys = Vec::new();
        for u in &self.compiles {
            keys.push(u.key.clone());
            keys.push(profile_key(u.name, u.scale, &u.config));
        }
        keys.extend(self.bases.iter().map(|u| u.key.clone()));
        keys.extend(self.ccrs.iter().map(|u| u.keys.ccr.clone()));
        keys.extend(self.potentials.iter().map(|u| u.key.clone()));
        keys
    }
}

/// Planner accounting: how much work the specs requested vs how much
/// survives deduplication.
#[derive(Clone, Debug, Default)]
pub struct PlanStats {
    /// Number of specs planned.
    pub specs: usize,
    /// (workload, scenario) simulation points requested, duplicates
    /// included.
    pub requested_points: usize,
    /// Compile units after deduplication.
    pub unique_compiles: usize,
    /// Compile requests elided as duplicates.
    pub deduped_compiles: usize,
    /// Distinct value profiles the unique compiles share: one per
    /// (workload, scale, optimizer, emulator) setting.
    pub value_profiles: usize,
    /// Baseline simulations after deduplication (part of
    /// `unique_sims`).
    pub base_sims: usize,
    /// Simulation runs (baseline + CCR) after deduplication.
    pub unique_sims: usize,
    /// Simulation runs elided as duplicates (a requested point wants
    /// one baseline and one CCR run; shared baselines and shared full
    /// points both count here).
    pub deduped_sims: usize,
    /// Reuse-potential studies after deduplication.
    pub potential_points: usize,
    /// Per-spec one-line summaries: point count and the config fields
    /// that vary across its scenarios.
    pub axes: Vec<String>,
}

impl PlanStats {
    /// Multi-line human-readable plan log.
    pub fn render(&self) -> String {
        let mut out = String::new();
        writeln!(
            out,
            "experiment plan: {} spec(s), {} requested points -> {} compiles \
             (+{} shared), {} sims (+{} deduplicated), {} potential studies",
            self.specs,
            self.requested_points,
            self.unique_compiles,
            self.deduped_compiles,
            self.unique_sims,
            self.deduped_sims,
            self.potential_points,
        )
        .unwrap();
        for line in &self.axes {
            writeln!(out, "  {line}").unwrap();
        }
        out
    }
}

/// Which config fields vary across a spec's scenarios, as
/// `name ∈ {v1, v2, ...}` clauses.
fn axis_summary(spec: &ExperimentSpec) -> String {
    let points = spec.scenarios.len() * spec.workloads.len();
    let mut clauses: Vec<String> = Vec::new();
    if spec.scenarios.len() > 1 {
        let field_sets: Vec<Vec<(String, String)>> =
            spec.scenarios.iter().map(Scenario::point_fields).collect();
        for (i, (name, _)) in field_sets[0].iter().enumerate() {
            let mut values: Vec<&str> = Vec::new();
            for fields in &field_sets {
                let v = fields[i].1.as_str();
                if !values.contains(&v) {
                    values.push(v);
                }
            }
            if values.len() > 1 {
                clauses.push(format!("{name} in {{{}}}", values.join(", ")));
            }
        }
    }
    let axes = if clauses.is_empty() {
        if spec.potential && spec.scenarios.is_empty() {
            "compiler-side potential study, no simulation axis".to_string()
        } else {
            "single configuration".to_string()
        }
    } else {
        format!("axes: {}", clauses.join(", "))
    };
    format!(
        "{}: {} scenario(s), {} sim point(s); {}",
        spec.output,
        spec.scenarios.len(),
        points,
        axes
    )
}

/// Expands `specs` into deduplicated compile / simulation /
/// potential-study units.
///
/// Unit order is deterministic: first-encounter order over specs in
/// the given order, scenarios in spec order, workloads in selection
/// order.
pub fn plan<'s>(specs: &[&'s ExperimentSpec]) -> Plan<'s> {
    let mut plan = Plan::empty(specs.to_vec());
    let mut seen = HashSet::new();
    for spec in specs {
        plan.stats.axes.push(axis_summary(spec));
        for sc in &spec.scenarios {
            plan.add_points(spec.workloads, sc, &mut seen);
        }
        if spec.potential {
            for &name in spec.workloads {
                let key = potential_key(name, InputSet::Train, SCALE);
                if seen.insert(key.clone()) {
                    plan.potentials.push(PotentialUnit {
                        name,
                        input: InputSet::Train,
                        scale: SCALE,
                        key,
                    });
                }
            }
        }
    }
    plan.finish()
}

/// The plan of one workload selection under one scenario: what
/// [`crate::Engine::run_selected`] executes.
pub(crate) fn plan_selection(names: &[&'static str], scenario: &Scenario) -> Plan<'static> {
    let mut plan = Plan::empty(Vec::new());
    plan.add_points(names, scenario, &mut HashSet::new());
    plan.finish()
}

impl<'s> Plan<'s> {
    fn empty(specs: Vec<&'s ExperimentSpec>) -> Plan<'s> {
        Plan {
            stats: PlanStats {
                specs: specs.len(),
                ..PlanStats::default()
            },
            specs,
            compiles: Vec::new(),
            bases: Vec::new(),
            ccrs: Vec::new(),
            potentials: Vec::new(),
        }
    }

    /// Adds the point of every workload in `workloads` under `sc`,
    /// skipping units whose key is already in `seen`. Compile, profile,
    /// sim and potential keys never collide: each kind has its own
    /// shape (`train|`, `base|`, `ccr|` and `pot|` prefixes).
    fn add_points(
        &mut self,
        workloads: &[&'static str],
        sc: &Scenario,
        seen: &mut HashSet<String>,
    ) {
        for &name in workloads {
            self.stats.requested_points += 1;
            let keys = sc.keys(name);
            if seen.insert(keys.compile.clone()) {
                if seen.insert(keys.profile.clone()) {
                    self.stats.value_profiles += 1;
                }
                self.compiles.push(CompileUnit {
                    name,
                    input: sc.input,
                    scale: sc.scale,
                    config: sc.compile_config(),
                    key: keys.compile.clone(),
                });
            } else {
                self.stats.deduped_compiles += 1;
            }
            if seen.insert(keys.base.clone()) {
                self.bases.push(BaseUnit {
                    name,
                    machine: sc.machine,
                    emu: sc.emu,
                    compile_key: keys.compile.clone(),
                    key: keys.base.clone(),
                });
            } else {
                self.stats.deduped_sims += 1;
            }
            if seen.insert(keys.ccr.clone()) {
                self.ccrs.push(CcrUnit {
                    name,
                    input: sc.input,
                    scale: sc.scale,
                    machine: sc.machine,
                    crb: sc.crb,
                    emu: sc.emu,
                    keys,
                });
            } else {
                self.stats.deduped_sims += 1;
            }
        }
    }

    fn finish(mut self) -> Plan<'s> {
        self.stats.unique_compiles = self.compiles.len();
        self.stats.base_sims = self.bases.len();
        self.stats.unique_sims = self.bases.len() + self.ccrs.len();
        self.stats.potential_points = self.potentials.len();
        self
    }
}

/// A shared compile memo keyed by (workload, target input, scale,
/// region-config hash): the fix for sweeps that vary only the CRB
/// geometry recompiling an identical program per configuration.
///
/// Compiles run in two stages ([`profile_train`], then
/// [`compile_with_profile`]), and the first stage has a memo of its
/// own keyed by (workload, scale, optimizer, emulator settings): every
/// region configuration and both target inputs of a workload share one
/// value-profiling run. A compile on the training input takes its
/// optimized build from that profile, and each profile memoizes the
/// reiteration trials compiled through it.
///
/// Thread-safe and **single-flight** at both stages: a concurrent miss
/// on a key another thread is already computing blocks until that
/// result lands, then reads it as a hit — so each unique unit compiles
/// (and each workload profiles) exactly once even when
/// [`crate::engine::Engine`] shares one cache across concurrent
/// `ccr serve` requests, and the hit/miss totals stay deterministic.
/// Errors are never cached (a blocked waiter retries with its own
/// computation).
#[derive(Default)]
pub struct CompileCache {
    flight: SingleFlight<HashMap<String, Arc<CompiledWorkload>>>,
    profiles: SingleFlight<HashMap<String, Arc<TrainProfile>>>,
}

impl CompileCache {
    /// An empty cache.
    pub fn new() -> CompileCache {
        CompileCache::default()
    }

    /// Lookups that returned a previously compiled workload.
    pub fn hits(&self) -> u64 {
        self.flight.hits()
    }

    /// Lookups that had to compile.
    pub fn misses(&self) -> u64 {
        self.flight.misses()
    }

    /// Value-profiling runs: compiles that had to profile their
    /// training build.
    pub fn profiles_run(&self) -> u64 {
        self.profiles.misses()
    }

    /// Compiles that reused another compile's value profile.
    pub fn profiles_reused(&self) -> u64 {
        self.profiles.hits()
    }

    /// Reiteration trials `(run, reused)` summed over every memoized
    /// value profile ([`TrainProfile::trial_stats`]).
    pub fn trial_stats(&self) -> (u64, u64) {
        self.profiles.with_store(|done| {
            done.values()
                .map(|tp| tp.trial_stats())
                .fold((0, 0), |(r, u), (dr, du)| (r + dr, u + du))
        })
    }

    /// Returns the cached compile of `(name, target, scale, config)`,
    /// compiling and memoizing on first use.
    ///
    /// # Errors
    ///
    /// Returns the compile error (unknown benchmark, emulator limit
    /// breach) without caching it.
    pub fn get_or_compile(
        &self,
        name: &str,
        target: InputSet,
        scale: u32,
        config: &CompileConfig,
    ) -> Result<Arc<CompiledWorkload>, String> {
        let key = compile_key(name, target, scale, config);
        self.flight.get_or_run(
            &key,
            |done| done.get(&key).cloned(),
            || {
                let train = self.train_profile(name, scale, config)?;
                // The training build's optimized form is the profile's.
                let target = match target {
                    InputSet::Train => None,
                    input => Some(
                        build(name, input, scale)
                            .ok_or_else(|| format!("unknown benchmark `{name}`"))?,
                    ),
                };
                compile_with_profile(&train, target.as_ref(), config)
                    .map(Arc::new)
                    .map_err(|e| format!("{name}: {e}"))
            },
            |done, cw| {
                done.insert(key.clone(), Arc::clone(cw));
            },
        )
    }

    /// The memoized first compile stage of `name` at `scale`.
    fn train_profile(
        &self,
        name: &str,
        scale: u32,
        config: &CompileConfig,
    ) -> Result<Arc<TrainProfile>, String> {
        let key = profile_key(name, scale, config);
        self.profiles.get_or_run(
            &key,
            |done| done.get(&key).cloned(),
            || {
                let train = build(name, InputSet::Train, scale)
                    .ok_or_else(|| format!("unknown benchmark `{name}`"))?;
                profile_train(&train, config)
                    .map(Arc::new)
                    .map_err(|e| format!("{name}: {e}"))
            },
            |done, tp| {
                done.insert(key.clone(), Arc::clone(tp));
            },
        )
    }
}

/// Version tag of experiment-checkpoint JSONL lines. Bumped only on
/// incompatible changes; additive fields ride under the same version.
/// Lines are keyed by result-cache key (`…|fp:none`, `…|fp:<window>`).
pub const CKPT_VERSION: u64 = 4;

/// One checkpoint journal line: a result-cache entry under its key.
pub(crate) fn ckpt_line(key: &str, c: &CachedSim) -> String {
    let o = &c.outcome;
    let mut w = JsonWriter::new();
    w.obj_begin();
    w.key("ckpt_v").u64_val(CKPT_VERSION);
    w.key("key").str_val(key);
    w.key("wall_ms").u64_val(c.wall_ms);
    w.key("fingerprint").str_val(&c.fingerprint);
    w.key("returned").arr_begin();
    for v in &o.run.returned {
        w.i64_val(v.0);
    }
    w.arr_end();
    w.key("dyn_instrs").u64_val(o.run.dyn_instrs);
    w.key("skipped_instrs").u64_val(o.run.skipped_instrs);
    w.key("reuse_hits").u64_val(o.run.reuse_hits);
    w.key("reuse_misses").u64_val(o.run.reuse_misses);
    w.key("memory_digest").u64_val(o.run.memory_digest);
    w.key("stats");
    write_sim_stats(&mut w, &o.stats);
    w.obj_end();
    w.finish()
}

/// Loads a checkpoint journal as result-cache entries in file order,
/// plus whether the file ends in a torn line (non-empty, no final
/// newline). A missing file is an empty journal (first run); an
/// unreadable or wrong-version file is a one-line error. Lines that
/// fail to parse as JSON are skipped — that is the torn final line of
/// a crashed run, and the unit it would have recorded simply
/// re-simulates.
pub(crate) fn load_checkpoint(path: &Path) -> Result<(Vec<(String, CachedSim)>, bool), String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), false)),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    let mut out = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let Ok(v) = value::parse(line) else { continue };
        let ctx = format!("{}:{}", path.display(), i + 1);
        value::check_version(&v, "ckpt_v", &[CKPT_VERSION]).map_err(|e| format!("{ctx}: {e}"))?;
        let key = v.str_field("key").to_string();
        if key.is_empty() {
            return Err(format!("{ctx}: missing `key`"));
        }
        let returned = req_arr(&v, "returned", &ctx)?
            .iter()
            .map(|x| match x {
                Value::U64(n) => i64::try_from(*n)
                    .map(ccr_ir::Value)
                    .map_err(|_| format!("{ctx}: returned value out of i64 range")),
                Value::I64(n) => Ok(ccr_ir::Value(*n)),
                _ => Err(format!("{ctx}: non-integer returned value")),
            })
            .collect::<Result<Vec<_>, String>>()?;
        out.push((
            key,
            CachedSim {
                outcome: SimOutcome {
                    run: RunOutcome {
                        returned,
                        dyn_instrs: req_u64(&v, "dyn_instrs", &ctx)?,
                        skipped_instrs: req_u64(&v, "skipped_instrs", &ctx)?,
                        reuse_hits: req_u64(&v, "reuse_hits", &ctx)?,
                        reuse_misses: req_u64(&v, "reuse_misses", &ctx)?,
                        memory_digest: req_u64(&v, "memory_digest", &ctx)?,
                    },
                    stats: parse_sim_stats(req(&v, "stats", &ctx)?, &ctx)?,
                },
                wall_ms: v.u64_field("wall_ms"),
                fingerprint: v.str_field("fingerprint").to_string(),
            },
        ));
    }
    let torn = !text.is_empty() && !text.ends_with('\n');
    Ok((out, torn))
}

/// Executed results, keyed for assembly into per-spec views.
pub struct Executed<'s> {
    pub(crate) specs: Vec<&'s ExperimentSpec>,
    pub(crate) compiles: HashMap<String, Arc<CompiledWorkload>>,
    /// Every simulation (base and CCR alike) by planner unit key, as
    /// the result cache returned it.
    pub(crate) sims: HashMap<String, CachedSim>,
    pub(crate) potentials: HashMap<String, ReusePotential>,
    /// One entry per unique executed CCR point, in plan order.
    pub(crate) points: Vec<PointMeta>,
    /// Compile-cache (hits, misses) delta for the run.
    pub(crate) cache: (u64, u64),
    /// Value profiles (run, reused) delta for the run.
    pub(crate) profiles: (u64, u64),
    /// Reiteration trials (run, reused) delta for the run.
    pub(crate) trials: (u64, u64),
    /// Functional runs (baseline, CCR) the run executed.
    pub(crate) functional_runs: (u64, u64),
}

/// Identity of one unique CCR sweep point, kept by the executor so
/// summaries can pair each CCR sim with its baseline and compile.
pub(crate) struct PointMeta {
    pub(crate) name: &'static str,
    pub(crate) input: InputSet,
    pub(crate) scale: u32,
    pub(crate) config_hash: String,
    pub(crate) keys: PointKeys,
}

impl<'s> Executed<'s> {
    /// Compile-cache `(hits, misses)` for the run — the PR-5 counters,
    /// surfaced so the CLI can print them and the harness can log
    /// them.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache
    }

    /// Value profiles `(run, reused)` for the run: how many compiles
    /// had to profile their training build, and how many shared
    /// another compile's profile.
    pub fn profile_stats(&self) -> (u64, u64) {
        self.profiles
    }

    /// Reiteration trials `(run, reused)` for the run: how many
    /// compiles ran the trial, and how many read the hit ratios of an
    /// identical trial on the same value profile.
    pub fn trial_stats(&self) -> (u64, u64) {
        self.trials
    }

    /// Functional runs `(baseline, CCR)` the run executed: one
    /// emulation per functional group with a member to simulate, each
    /// feeding the pipelines of all its members' machines (see
    /// [`crate::Engine::execute_plan`]). On a fresh engine, at most
    /// the plan's `unique_sims`.
    pub fn functional_runs(&self) -> (u64, u64) {
        self.functional_runs
    }

    /// The one builder of a measured point: `name`'s compile and its
    /// baseline and CCR outcomes, checked for architectural equality
    /// ([`Measurement::checked`]), with the host time of the two
    /// simulations. A cache hit reports the time measured when the
    /// simulation originally ran, and a baseline shared across CRB
    /// configs counts in every point that reads it.
    ///
    /// # Panics
    ///
    /// Panics if the baseline and CCR runs disagree architecturally
    /// (reuse must never change program semantics).
    fn point(&self, name: &'static str, keys: &PointKeys) -> SuiteRun {
        let (base, ccr) = (&self.sims[&keys.base], &self.sims[&keys.ccr]);
        SuiteRun {
            name,
            compiled: Arc::clone(&self.compiles[&keys.compile]),
            measurement: Measurement::checked(base.outcome.clone(), ccr.outcome.clone()),
            wall_ms: base.wall_ms + ccr.wall_ms,
        }
    }

    /// `name`'s run under `sc`, a point of the executed plan.
    pub(crate) fn run(&self, name: &'static str, sc: &Scenario) -> SuiteRun {
        self.point(name, &sc.keys(name))
    }

    /// The run-store record of every unique executed CCR point, in
    /// plan (first-encounter) order, built by [`SuiteRun::record`]:
    /// what an `ccr exp` invocation or a served experiment appends to
    /// the cross-run store.
    pub fn records(&self) -> Vec<RunRecord> {
        self.points
            .iter()
            .map(|p| RunRecord {
                fingerprint: self.sims[&p.keys.ccr].fingerprint.clone(),
                ..self
                    .point(p.name, &p.keys)
                    .record(p.input, p.scale, &p.config_hash)
            })
            .collect()
    }

    /// Assembles one planned spec's results for rendering.
    ///
    /// # Panics
    ///
    /// Panics if `spec` was not part of the executed plan, or if any
    /// point's baseline and CCR runs disagree architecturally (reuse
    /// must never change program semantics).
    pub fn results(&self, spec: &'s ExperimentSpec) -> SpecResults<'s> {
        assert!(
            self.specs.iter().any(|s| std::ptr::eq(*s, spec)),
            "spec `{}` was not part of the executed plan",
            spec.name
        );
        let scenario_runs = spec
            .scenarios
            .iter()
            .map(|sc| {
                spec.workloads
                    .iter()
                    .map(|&name| self.run(name, sc))
                    .collect()
            })
            .collect();
        let potentials = if spec.potential {
            spec.workloads
                .iter()
                .map(|&n| self.potentials[&potential_key(n, InputSet::Train, SCALE)])
                .collect()
        } else {
            Vec::new()
        };
        SpecResults {
            spec,
            scenario_runs,
            potentials,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use ccr_core::harness::Harness;
    use proptest::prelude::*;
    use std::path::PathBuf;

    static ONE_WORKLOAD: [&str; 1] = ["bitcount"];

    fn tiny_render(_res: &SpecResults<'_>) -> Rendered {
        Rendered {
            text: String::new(),
            tables: Vec::new(),
        }
    }

    fn tiny_spec() -> ExperimentSpec {
        ExperimentSpec {
            name: "ckpt_tiny",
            output: "ckpt_tiny",
            title: "checkpoint/fingerprint engine tests",
            workloads: &ONE_WORKLOAD,
            scenarios: vec![Scenario::new(
                "paper",
                InputSet::Train,
                &RegionConfig::paper(),
                &MachineConfig::paper(),
                CrbConfig::paper(),
            )],
            potential: false,
            render: tiny_render,
        }
    }

    fn temp_file(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("ccr-exp-ckpt-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    fn summary_view(points: &[RunRecord]) -> Vec<String> {
        points
            .iter()
            .map(|p| {
                format!(
                    "{} {} {} {} {} {} {:.12} {:.12} {:?} {} {} {}",
                    p.workload,
                    p.input,
                    p.scale,
                    p.config_hash,
                    p.base_cycles,
                    p.ccr_cycles,
                    p.speedup,
                    p.hit_rate,
                    p.miss_causes,
                    p.regions,
                    p.wall_ms,
                    p.fingerprint,
                )
            })
            .collect()
    }

    #[test]
    fn checkpoint_restores_instead_of_resimulating_and_survives_a_torn_tail() {
        let spec = tiny_spec();
        let plan = plan(&[&spec]);
        let path = temp_file("roundtrip.ckpt.jsonl");
        let harness = Harness::disabled();

        let first = Engine::new(2)
            .execute_plan(&plan, &harness, Some(&path), None)
            .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let keys: Vec<String> = text
            .lines()
            .map(|l| {
                let v = value::parse(l).expect("every committed line parses");
                assert_eq!(v.u64_field("ckpt_v"), CKPT_VERSION, "{l}");
                v.str_field("key").to_string()
            })
            .collect();
        assert_eq!(keys.len(), 2, "one base + one CCR unit:\n{text}");

        // Resume: the file must not grow (growth would mean a unit was
        // re-simulated and re-appended) and summaries must match the
        // original run exactly — including wall_ms, which is restored
        // from the checkpoint rather than re-measured.
        let second = Engine::new(2)
            .execute_plan(&plan, &harness, Some(&path), None)
            .unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        assert_eq!(
            summary_view(&first.records()),
            summary_view(&second.records()),
        );

        // Crash simulation: tear the last line in half and append raw
        // garbage. The torn unit re-simulates; the run still succeeds
        // and reaches the same statistics.
        let torn: String = text[..text.len() - text.len() / 3].to_string();
        std::fs::write(
            &path,
            format!("{torn}\n{{\"ckpt_v\":{CKPT_VERSION},\"key\""),
        )
        .unwrap();
        let third = Engine::new(2)
            .execute_plan(&plan, &harness, Some(&path), None)
            .unwrap();
        let a = summary_view(&first.records());
        let b = summary_view(&third.records());
        // wall_ms of the re-simulated unit is re-measured, so compare
        // everything but the wall column.
        let strip = |rows: &[String]| -> Vec<String> {
            rows.iter()
                .map(|r| {
                    let mut cols: Vec<&str> = r.split(' ').collect();
                    cols.remove(cols.len() - 2);
                    cols.join(" ")
                })
                .collect()
        };
        assert_eq!(strip(&a), strip(&b));

        // The re-simulated unit's line must start on a fresh line, not
        // be glued onto the garbage fragment: a fourth run restores
        // every unit and appends nothing.
        let repaired = std::fs::read_to_string(&path).unwrap();
        let fourth = Engine::new(2);
        let out = fourth
            .execute_plan(&plan, &harness, Some(&path), None)
            .unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), repaired);
        assert_eq!(fourth.result_cache().misses(), 0, "nothing re-simulated");
        assert_eq!(fourth.result_cache().hits(), 2, "both units restored");
        assert_eq!(summary_view(&third.records()), summary_view(&out.records()),);

        let _ = std::fs::remove_file(&path);
    }

    /// One workload on three machines that differ only in timing (the
    /// branch misprediction penalty): one baseline and one CCR
    /// functional group of three members each.
    fn group_spec() -> ExperimentSpec {
        ExperimentSpec {
            name: "group_tiny",
            output: "group_tiny",
            title: "functional-group engine tests",
            scenarios: [4, 8, 16]
                .into_iter()
                .map(|mispredict_penalty| {
                    let machine = MachineConfig {
                        mispredict_penalty,
                        ..MachineConfig::paper()
                    };
                    let region = RegionConfig::paper();
                    Scenario::new(
                        "penalty",
                        InputSet::Train,
                        &region,
                        &machine,
                        CrbConfig::paper(),
                    )
                })
                .collect(),
            ..tiny_spec()
        }
    }

    /// The journal's keys, in line order.
    fn journal_keys(text: &str) -> Vec<String> {
        let key = |l: &str| value::parse(l).unwrap().str_field("key").to_string();
        text.lines().map(key).collect()
    }

    #[test]
    fn a_partly_journaled_group_simulates_only_its_missing_members() {
        let spec = group_spec();
        let plan = plan(&[&spec]);
        let harness = Harness::disabled();
        let path = temp_file("partial-group.ckpt.jsonl");
        let engine = Engine::new(1);
        let full = engine
            .execute_plan(&plan, &harness, Some(&path), None)
            .unwrap();
        assert_eq!(full.functional_runs(), (1, 1), "two groups of three");
        // Each member equals its point run alone (groups of one), and
        // the machines tell the members apart.
        let records = full.records();
        for (sc, record) in spec.scenarios.iter().zip(&records) {
            let alone = &Engine::new(1)
                .run_selected(&ONE_WORKLOAD, sc, &harness)
                .unwrap()[0];
            let m = &alone.measurement;
            let cycles = (m.base.stats.cycles, m.ccr.stats.cycles);
            assert_eq!(cycles, (record.base_cycles, record.ccr_cycles));
        }
        assert!(records[0].base_cycles < records[2].base_cycles);
        assert!(records[0].ccr_cycles < records[2].ccr_cycles);
        assert_eq!(
            (engine.result_cache().misses(), engine.result_cache().hits()),
            (6, 0)
        );
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 6, "one line per member:\n{text}");

        // Keep the first member of the baseline group and the first and
        // last of the CCR group; drop the rest.
        let kept: String = [0, 3, 5]
            .iter()
            .map(|&i| format!("{}\n", lines[i]))
            .collect();
        std::fs::write(&path, &kept).unwrap();
        let engine = Engine::new(1);
        let resumed = engine
            .execute_plan(&plan, &harness, Some(&path), None)
            .unwrap();
        let rc = engine.result_cache();
        assert_eq!(
            (rc.misses(), rc.hits()),
            (3, 3),
            "only the missing members run"
        );
        assert_eq!(
            resumed.functional_runs(),
            (1, 1),
            "one run per partial group"
        );
        let after = std::fs::read_to_string(&path).unwrap();
        let mut appended = journal_keys(&after[kept.len()..]);
        let mut missing: Vec<String> = [1, 2, 4]
            .iter()
            .map(|&i| journal_keys(lines[i])[0].clone())
            .collect();
        appended.sort();
        missing.sort();
        assert_eq!(
            appended, missing,
            "the journal gains exactly the missing members"
        );

        // Every record equals the uninterrupted run's. A point whose
        // sims were both journaled keeps their recorded wall times; a
        // re-simulated one is re-timed, so its wall column is left out.
        let (a, b) = (
            summary_view(&full.records()),
            summary_view(&resumed.records()),
        );
        assert_eq!(a.len(), 3);
        let strip = |row: &str| {
            let mut cols: Vec<&str> = row.split(' ').collect();
            cols.remove(cols.len() - 2);
            cols.join(" ")
        };
        for (i, (a, b)) in a.iter().zip(&b).enumerate() {
            match i {
                0 => assert_eq!(a, b, "both sims of the first point were journaled"),
                _ => assert_eq!(strip(a), strip(b)),
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resumed_fingerprint_runs_never_reuse_plain_or_other_window_entries() {
        let spec = tiny_spec();
        let plan = plan(&[&spec]);
        let path = temp_file("fpwindow.ckpt.jsonl");
        let harness = Harness::disabled();
        let run = |checkpoint: Option<&Path>, window: Option<u64>| {
            Engine::new(1)
                .execute_plan(&plan, &harness, checkpoint, window)
                .unwrap()
                .records()[0]
                .fingerprint
                .clone()
        };
        let (w, w2) = (500, 700);
        let fresh = run(None, Some(w));
        let fresh2 = run(None, Some(w2));
        assert_ne!(fresh, fresh2, "the chain depends on the window");

        // A plain journal must not serve a fingerprinted resume...
        assert_eq!(run(Some(&path), None), "");
        assert_eq!(run(Some(&path), Some(w)), fresh);
        // ...and a journal written at one window must not serve another.
        assert_eq!(run(Some(&path), Some(w2)), fresh2);
        // Entries written at the matching window are reused as-is.
        assert_eq!(run(Some(&path), Some(w)), fresh);

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unknown_checkpoint_version_is_a_one_line_error() {
        let path = temp_file("badversion.ckpt.jsonl");
        std::fs::write(&path, "{\"ckpt_v\":99,\"key\":\"x\"}\n").unwrap();
        let err = load_checkpoint(&path).err().expect("must reject");
        assert!(
            err.contains("unknown ckpt_v 99 (known: [4])") && !err.contains('\n'),
            "{err}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fingerprinted_execution_is_bit_identical_and_deterministic() {
        let spec = tiny_spec();
        let plan = plan(&[&spec]);
        let harness = Harness::disabled();
        let plain = Engine::new(1)
            .execute_plan(&plan, &harness, None, None)
            .unwrap();
        let fp1 = Engine::new(1)
            .execute_plan(&plan, &harness, None, Some(50_000))
            .unwrap();
        let fp2 = Engine::new(2)
            .execute_plan(&plan, &harness, None, Some(50_000))
            .unwrap();

        let points = fp1.records();
        assert_eq!(points.len(), 1);
        let hash = &points[0].fingerprint;
        assert_eq!(hash.len(), 16, "chain hash is 16 hex digits: {hash}");
        assert!(hash.bytes().all(|b| b.is_ascii_hexdigit()));
        // Deterministic across runs and worker counts.
        assert_eq!(*hash, fp2.records()[0].fingerprint);
        // And the session path changes nothing about the statistics.
        let plain_points = plain.records();
        assert_eq!(plain_points[0].base_cycles, points[0].base_cycles);
        assert_eq!(plain_points[0].ccr_cycles, points[0].ccr_cycles);
        assert_eq!(plain_points[0].miss_causes, points[0].miss_causes);
        assert_eq!(plain_points[0].fingerprint, "", "unmeasured stays empty");

        // Three machines that differ only in timing share one baseline
        // and one CCR run, and each member folds the chain its
        // one-point run folds.
        let group = group_spec();
        let grouped = Engine::new(1)
            .execute_plan(&super::plan(&[&group]), &harness, None, Some(50_000))
            .unwrap();
        assert_eq!(grouped.functional_runs(), (1, 1));
        let records = grouped.records();
        assert_eq!(records.len(), 3);
        for (sc, record) in group.scenarios.iter().zip(&records) {
            let one = ExperimentSpec {
                scenarios: vec![sc.clone()],
                ..group_spec()
            };
            let alone = Engine::new(1)
                .execute_plan(&super::plan(&[&one]), &harness, None, Some(50_000))
                .unwrap();
            assert_eq!(alone.functional_runs(), (1, 1));
            assert_eq!(alone.records()[0].fingerprint, record.fingerprint);
        }
        let distinct: HashSet<&str> = records.iter().map(|r| r.fingerprint.as_str()).collect();
        assert_eq!(distinct.len(), 3, "the machines fold different chains");
    }

    /// One real line of each journal format, from its own writer: a
    /// run-store record and the checkpoint entry of a simulated
    /// baseline.
    fn real_lines() -> &'static [String; 2] {
        static LINES: std::sync::OnceLock<[String; 2]> = std::sync::OnceLock::new();
        LINES.get_or_init(|| {
            let program = build("bitcount", InputSet::Train, 1).unwrap();
            let outcome =
                ccr_sim::simulate(&program, &MachineConfig::paper(), None, emu_config()).unwrap();
            let store = ccr_analyze::RunRecord {
                timestamp: 1_700_000_000,
                commit: "abc1234".into(),
                workload: "bitcount".into(),
                input: "train".into(),
                scale: 1,
                base_cycles: outcome.stats.cycles,
                ccr_cycles: outcome.stats.cycles / 2,
                speedup: 2.0,
                hit_rate: 0.5,
                ..Default::default()
            }
            .to_json_line();
            let cached = CachedSim {
                outcome,
                wall_ms: 12,
                fingerprint: String::new(),
            };
            [store, ckpt_line("bitcount|train|1|base|fp:none", &cached)]
        })
    }

    #[test]
    fn real_journal_lines_load() {
        let [store, ckpt] = real_lines();
        let path = temp_file("real.jsonl");
        std::fs::write(&path, format!("{store}\n")).unwrap();
        assert_eq!(ccr_analyze::RunStore::load(&path).unwrap().records.len(), 1);
        std::fs::write(&path, format!("{ckpt}\n")).unwrap();
        let (entries, torn) = load_checkpoint(&path).unwrap();
        assert_eq!((entries.len(), torn), (1, false));
        assert!(entries[0].1.outcome.stats.cycles > 0);
        let _ = std::fs::remove_file(&path);
    }

    /// `line` after `edits`: each inserts, deletes, replaces or
    /// truncates at a position, or splices in a troublesome token.
    fn mutate(line: &str, edits: &[(usize, u8, u8)]) -> String {
        const CHARS: &[u8] = b"{}[]:,\"\\-.+eE0123456789 ntrufalsx_";
        const TOKENS: [&str; 8] = [
            "18446744073709551616",
            "-9223372036854775809",
            "1e400",
            "null",
            "[]",
            "{}",
            "\"\\u12\"",
            "-0.5",
        ];
        let mut chars: Vec<char> = line.chars().collect();
        for &(pos, op, pick) in edits {
            let at = pos % (chars.len() + 1);
            let c = char::from(CHARS[usize::from(pick) % CHARS.len()]);
            match op % 5 {
                0 => chars.insert(at, c),
                1 if at < chars.len() => {
                    chars.remove(at);
                }
                2 if at < chars.len() => chars[at] = c,
                3 => chars.truncate(at),
                4 => {
                    let token = TOKENS[usize::from(pick) % TOKENS.len()];
                    chars.splice(at..at, token.chars());
                }
                _ => {}
            }
        }
        chars.into_iter().collect()
    }

    /// An arbitrary line, or a mutated copy of a real one.
    fn journal_line() -> impl Strategy<Value = String> {
        let edits = proptest::collection::vec((0usize..4096, any::<u8>(), any::<u8>()), 0..6);
        prop_oneof![
            ".{0,80}",
            (0usize..2, edits).prop_map(|(which, edits)| mutate(&real_lines()[which], &edits)),
        ]
    }

    /// A loader's verdict: a value or a one-line error, never a panic.
    fn check_verdict<T>(
        what: &str,
        text: &str,
        verdict: std::thread::Result<Result<T, String>>,
    ) -> Result<(), TestCaseError> {
        match verdict {
            Ok(Ok(_)) => Ok(()),
            Ok(Err(e)) if !e.contains('\n') => Ok(()),
            Ok(Err(e)) => Err(TestCaseError::fail(format!(
                "{what}: multi-line error {e:?}"
            ))),
            Err(_) => Err(TestCaseError::fail(format!("{what} panicked on {text:?}"))),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Malformed run-store and checkpoint files load as a value or
        /// a one-line error, never a panic.
        #[test]
        fn malformed_store_and_checkpoint_files_never_panic(
            lines in proptest::collection::vec(journal_line(), 1..6),
            torn in any::<bool>(),
        ) {
            let mut text = lines.join("\n");
            if !torn {
                text.push('\n');
            }
            let path = temp_file("malformed.jsonl");
            std::fs::write(&path, &text).unwrap();
            let store = std::panic::catch_unwind(|| ccr_analyze::RunStore::load(&path));
            let ckpt = std::panic::catch_unwind(|| load_checkpoint(&path));
            let _ = std::fs::remove_file(&path);
            check_verdict("RunStore::load", &text, store)?;
            check_verdict("load_checkpoint", &text, ckpt)?;
        }
    }
}
