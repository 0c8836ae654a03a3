//! The shared execution engine: one long-lived object owning the
//! job pool, the compile cache, and a content-addressed simulation
//! result cache.
//!
//! [`Engine`] is the one way to run the plan→compile→sim pipeline,
//! and [`Engine::execute_plan`] is its one entry point: it runs a
//! planned experiment sweep (`ccr exp`, `ccr fingerprint`, served
//! experiment requests), and [`Engine::run_selected`] plans a workload
//! selection under one [`Scenario`] (`ccr suite`, `ccr bench`, served
//! point requests) and runs it through the same call. `ccr serve`
//! keeps a process alive across many requests, and the paper's core
//! economics (amortize one compile/region-formation pass across many
//! dynamic executions) applies to the harness itself: two clients
//! sweeping overlapping configuration spaces should pay for each
//! unique compile and each unique simulation exactly once.
//!
//! The engine owns:
//!
//! - the worker count fanned through [`ccr_core::jobs`] (PR 4),
//! - the [`CompileCache`], **single-flight**: a concurrent miss on a
//!   key another thread is already compiling blocks until that
//!   compile lands, so each unique unit compiles exactly once even
//!   across concurrent requests; its first stage (the training
//!   build's value profile) is memoized per workload, so every region
//!   configuration of a workload shares one profiling run,
//! - a [`SimResultCache`]: completed simulation outcomes keyed by the
//!   planner's FNV-1a dedup keys (workload, input, scale, emulator
//!   limits, and the region/machine/CRB `fields()` hashes), single-flight
//!   through the same routine as the compile cache, with a configurable
//!   capacity, LRU eviction, and hit/miss/eviction counters. A `ccr exp
//!   --checkpoint` file is this cache's optional disk journal: its
//!   lines load as ready entries and every newly computed entry is
//!   appended to it, so a resumed sweep's finished units are ordinary
//!   cache hits.
//!
//! The one-shot paths (`ccr exp`, `ccr bench`, `ccr suite`,
//! `ccr profile`) construct a fresh engine per invocation — every
//! lookup misses, and every rendered table stays byte-identical to
//! the committed `results/` artifacts (`tests/engine_equivalence.rs`
//! pins this). `ccr bench --host-reps N` reuses one engine with
//! result capacity 0 across its repetitions: compiles are shared,
//! every simulation re-runs. `ccr serve` keeps one engine for the
//! whole session, which is where the cross-request dedup comes from.
//!
//! **Bit-identity contract:** the caches only elide *repeats* of
//! deterministic work. A cache hit returns the identical
//! [`SimOutcome`] and the originally measured host wall time, so every
//! statistic a renderer reads is unchanged whether a point ran cold or
//! was served from the result cache — in memory or from its journal.

use std::collections::HashMap;
use std::fs::File;
use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ccr_core::compile::CompiledWorkload;
use ccr_core::config_hash;
use ccr_core::harness::Harness;
use ccr_core::jobs::parallel_map_observed;
use ccr_core::measure::reuse_potential;
use ccr_core::telemetry::Counter;
use ccr_ir::Program;
use ccr_profile::{EmuConfig, EmuError, ReusePotential};
use ccr_sim::{simulate, CrbConfig, MachineConfig, SimOutcome, SimSession};

use crate::exp::{
    hash_fields, plan_selection, CompileCache, CompileUnit, Executed, Plan, PointMeta,
    PotentialUnit, Scenario,
};
use crate::single_flight::SingleFlight;
use crate::{emu_config, SuiteRun};

/// Default retained-entry capacity of a fresh engine's
/// [`SimResultCache`]. Generous relative to the full experiment
/// registry (455 requested points → 351 unique sims), so a default
/// engine never evicts mid-sweep; serve sessions that outgrow it
/// evict least-recently-used entries.
pub const DEFAULT_RESULT_CACHE_CAPACITY: usize = 4096;

/// One cached simulation: the deterministic [`SimOutcome`] plus the
/// host wall time and determinism-fingerprint chain hash measured
/// when the unit originally ran. Wall time is reused on a hit —
/// including hits on entries loaded from a checkpoint journal — so
/// summaries stay reproducible.
#[derive(Clone)]
pub struct CachedSim {
    /// The simulated outcome (bit-identical across reruns).
    pub outcome: SimOutcome,
    /// Host milliseconds the original run took.
    pub wall_ms: u64,
    /// Final fingerprint chain hash (16-digit lowercase hex), `""`
    /// for non-fingerprinted runs.
    pub fingerprint: String,
}

struct ReadyEntry {
    value: CachedSim,
    /// Logical LRU clock value of the last lookup that touched this
    /// entry (monotonic per cache, not wall time).
    last_used: u64,
}

#[derive(Default)]
struct ResultStore {
    ready: HashMap<String, ReadyEntry>,
    /// Completed reuse-potential studies, keyed by the planner's
    /// `pot|…` keys. Never evicted: the map is bounded by the
    /// workload registry (13 entries per input/scale), not by sweep
    /// size, so LRU pressure from simulations can't thrash it. Sim and
    /// potential keys are disjoint by construction (`pot|` prefixes
    /// the latter), so both share one pending set.
    potentials: HashMap<String, ReusePotential>,
    tick: u64,
}

/// A content-addressed cache of completed simulation outcomes.
///
/// Keys are the planner's FNV-1a dedup keys (suffixed with the
/// fingerprint window so fingerprinted and plain runs never share an
/// entry): identical keys imply identical deterministic outcomes.
/// Lookups are single-flight — a miss marks the key pending and
/// computes outside the lock; concurrent lookups of the same key
/// block and then count as hits — so each unique simulation runs
/// exactly once no matter how many concurrent requests want it, and
/// the hit/miss totals are deterministic (pinned by
/// `tests/engine_equivalence.rs`).
///
/// Capacity bounds *retained* entries: inserting past it evicts the
/// least-recently-used ready entry (pending keys are never evicted
/// and never count). A capacity of 0 retains nothing — every lookup
/// misses, though concurrent lookups still share one in-flight run.
/// Errors are never cached; waiters retry after a failed or panicked
/// compute.
///
/// While a checkpoint journal is open (see [`Engine::execute_plan`]),
/// every newly computed simulation is also appended to it as one
/// flushed `{"ckpt_v":4,...}` line, on the computing thread and
/// outside the store lock.
pub struct SimResultCache {
    flight: SingleFlight<ResultStore>,
    capacity: usize,
    evictions: Counter,
    journal: Mutex<Option<Journal>>,
}

/// An open checkpoint file. `torn` marks a file whose last line has
/// no terminating newline (a crashed writer): the first append starts
/// a fresh line instead of gluing itself onto the fragment.
struct Journal {
    file: File,
    torn: bool,
}

impl SimResultCache {
    /// An empty cache with `capacity` retained entries.
    pub fn new(capacity: usize) -> SimResultCache {
        SimResultCache {
            flight: SingleFlight::default(),
            capacity,
            evictions: Counter::default(),
            journal: Mutex::new(None),
        }
    }

    /// Lookups served from a ready entry (including lookups that
    /// waited out another thread's in-flight computation).
    pub fn hits(&self) -> u64 {
        self.flight.hits()
    }

    /// Lookups that had to run the simulation.
    pub fn misses(&self) -> u64 {
        self.flight.misses()
    }

    /// Ready entries discarded to stay within capacity.
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }

    /// Maximum retained entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Currently retained entries.
    pub fn len(&self) -> usize {
        self.flight.with_store(|s| s.ready.len())
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the cached result of `key`, running `run` to produce
    /// and memoize it on first use. Concurrent callers of the same
    /// key block until the first caller's `run` completes, then read
    /// its entry.
    ///
    /// # Errors
    ///
    /// Returns `run`'s error without caching it (a waiter blocked on
    /// the failed computation retries with its own `run`).
    pub fn get_or_run(
        &self,
        key: &str,
        run: impl FnOnce() -> Result<CachedSim, String>,
    ) -> Result<CachedSim, String> {
        self.flight.get_or_run(
            key,
            |s| {
                let entry = s.ready.get_mut(key)?;
                s.tick += 1;
                entry.last_used = s.tick;
                Some(entry.value.clone())
            },
            || {
                let value = run()?;
                self.append_to_journal(key, &value);
                Ok(value)
            },
            |s, value| self.insert_ready(s, key, value.clone()),
        )
    }

    /// Stores `value` under `key` as the most recently used entry,
    /// evicting least-recently-used entries past capacity.
    fn insert_ready(&self, s: &mut ResultStore, key: &str, value: CachedSim) {
        s.tick += 1;
        let entry = ReadyEntry {
            value,
            last_used: s.tick,
        };
        s.ready.insert(key.to_string(), entry);
        while s.ready.len() > self.capacity {
            let victim = s
                .ready
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("non-empty over-capacity map");
            s.ready.remove(&victim);
            self.evictions.inc();
        }
    }

    /// Opens `path` as the cache's journal: its entries become ready
    /// entries (neither hits nor misses) and later computations append
    /// to it. A missing file is an empty journal.
    fn open_journal(&self, path: &Path) -> Result<(), String> {
        let (entries, torn) = crate::exp::load_checkpoint(path)?;
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| format!("{}: {e}", parent.display()))?;
            }
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        self.flight.with_store(|s| {
            for (key, value) in entries {
                self.insert_ready(s, &key, value);
            }
        });
        *self.journal.lock().expect("journal lock") = Some(Journal { file, torn });
        Ok(())
    }

    /// Detaches the journal; later computations stay in memory only.
    fn close_journal(&self) {
        *self.journal.lock().expect("journal lock") = None;
    }

    /// Appends one computed entry to the open journal, if any, in a
    /// single unbuffered write, so a crash loses at most the line in
    /// flight. A failed write only costs a later resume that unit.
    fn append_to_journal(&self, key: &str, value: &CachedSim) {
        let mut journal = self.journal.lock().expect("journal lock");
        let Some(j) = journal.as_mut() else { return };
        let mut line = crate::exp::ckpt_line(key, value);
        line.push('\n');
        if std::mem::take(&mut j.torn) {
            line.insert(0, '\n');
        }
        let _ = j.file.write_all(line.as_bytes());
    }

    /// [`SimResultCache::get_or_run`] for reuse-potential studies
    /// (Figure 4 prep units): same single-flight discipline and the
    /// same hit/miss counters, but entries are exempt from LRU
    /// eviction — the map is bounded by the workload registry, and a
    /// repeated `fig4` submission must stay a pure cache hit no
    /// matter how many simulations churned the cache in between.
    ///
    /// # Errors
    ///
    /// Returns `run`'s error without caching it (a waiter blocked on
    /// the failed computation retries with its own `run`).
    pub fn get_or_run_potential(
        &self,
        key: &str,
        run: impl FnOnce() -> Result<ReusePotential, String>,
    ) -> Result<ReusePotential, String> {
        self.flight.get_or_run(
            key,
            |s| s.potentials.get(key).copied(),
            run,
            |s, p| {
                s.potentials.insert(key.to_string(), *p);
            },
        )
    }
}

/// The long-lived execution engine: job-pool width plus the shared
/// compile and simulation-result caches. See the module docs for the
/// layering; one-shot commands use a fresh engine, `ccr serve` shares
/// one across requests.
pub struct Engine {
    jobs: usize,
    compile_cache: CompileCache,
    result_cache: SimResultCache,
}

impl Engine {
    /// An engine fanning work over `jobs` workers with the default
    /// result-cache capacity.
    pub fn new(jobs: usize) -> Engine {
        Engine::with_capacity(jobs, DEFAULT_RESULT_CACHE_CAPACITY)
    }

    /// [`Engine::new`] with an explicit result-cache capacity.
    pub fn with_capacity(jobs: usize, result_capacity: usize) -> Engine {
        Engine {
            jobs,
            compile_cache: CompileCache::new(),
            result_cache: SimResultCache::new(result_capacity),
        }
    }

    /// Worker count the engine fans units over.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The shared compile cache.
    pub fn compile_cache(&self) -> &CompileCache {
        &self.compile_cache
    }

    /// The shared simulation-result cache.
    pub fn result_cache(&self) -> &SimResultCache {
        &self.result_cache
    }

    /// Runs a plan through the engine: compiles and potential studies
    /// first (a simulation needs its compile), then every simulation
    /// as an independent work item, all over the engine's workers and
    /// through the shared caches.
    ///
    /// - `harness`: every unit runs under a stable task label
    ///   (`compile:`/`potential:`/`sim:base:`/`sim:ccr:` × workload ×
    ///   config hash), the job pool reports per-worker busy/idle
    ///   accounting, and start/finish/cache events land in
    ///   `harness.jsonl`. The harness only observes: results are
    ///   bit-identical with `Harness::disabled()`
    ///   (`tests/harness_observability.rs` pins this).
    /// - `checkpoint`: a JSONL file opened as the result cache's
    ///   journal for this run (crash-resumable: each newly computed
    ///   simulation is appended as one line the moment it finishes).
    ///   On entry, the file's lines load as ready cache entries under
    ///   their result-cache keys, so units a previous run finished are
    ///   ordinary cache hits that keep their recorded wall times — a
    ///   resumed run reproduces the original run's
    ///   [`Executed::records`] exactly. Entries recorded
    ///   under another fingerprint window (or none) never match.
    /// - `fingerprint_window`: when set, every CCR simulation runs
    ///   through a [`SimSession`] folding the determinism fingerprint
    ///   every that many cycles (bit-identical statistics to
    ///   [`simulate`]), and the final chain hash lands in the
    ///   `fingerprint` of the point's [`Executed::records`] entry.
    ///
    /// Cache accounting on the returned [`Executed`] (and the
    /// `compile_cache` harness event) is the **delta** this run
    /// contributed, so a fresh engine reports every compile as a miss.
    ///
    /// # Errors
    ///
    /// Returns the first failing unit's error (unknown workload or
    /// emulator limit breach), in unit order, plus one-line errors
    /// for an unreadable, truncated, or wrong-version checkpoint.
    pub fn execute_plan<'s>(
        &self,
        plan: &Plan<'s>,
        harness: &Harness,
        checkpoint: Option<&Path>,
        fingerprint_window: Option<u64>,
    ) -> Result<Executed<'s>, String> {
        enum Prep<'a> {
            Compile(&'a CompileUnit),
            Potential(&'a PotentialUnit),
        }
        enum PrepOut {
            Compile(String, Arc<CompiledWorkload>),
            Potential(String, ReusePotential),
        }
        impl Prep<'_> {
            fn label(&self) -> String {
                match self {
                    Prep::Compile(u) => format!(
                        "compile:{}:{}@r{}",
                        u.name,
                        u.input.name(),
                        &hash_fields(&u.config.region.fields())[..8],
                    ),
                    Prep::Potential(u) => format!("potential:{}:{}", u.name, u.input.name()),
                }
            }
            fn phase(&self) -> &'static str {
                match self {
                    Prep::Compile(_) => "compile",
                    Prep::Potential(_) => "potential",
                }
            }
        }
        let jobs = self.jobs;
        harness.plan(
            (plan.compiles.len() + plan.potentials.len()) as u64,
            (plan.bases.len() + plan.ccrs.len()) as u64,
            &[
                ("specs", plan.stats.specs as u64),
                ("requested_points", plan.stats.requested_points as u64),
                ("deduped_compiles", plan.stats.deduped_compiles as u64),
                ("deduped_sims", plan.stats.deduped_sims as u64),
                ("profiles_run", plan.stats.value_profiles as u64),
                (
                    "profiles_reused",
                    (plan.stats.unique_compiles - plan.stats.value_profiles) as u64,
                ),
                ("jobs", jobs as u64),
            ],
        );
        // Cache accounting is the run's delta: the engine's caches
        // outlive this call, but each run reports only what it added.
        let cache = &self.compile_cache;
        let (hits_before, misses_before) = (cache.hits(), cache.misses());
        let (run_before, reused_before) = (cache.profiles_run(), cache.profiles_reused());
        let prep_items: Vec<Prep<'_>> = plan
            .compiles
            .iter()
            .map(Prep::Compile)
            .chain(plan.potentials.iter().map(Prep::Potential))
            .collect();
        let prep_labels: Vec<String> = prep_items.iter().map(Prep::label).collect();
        let (prep, prep_pool) = parallel_map_observed(
            &prep_items,
            jobs,
            Some(&prep_labels),
            harness.observer(),
            |i, item| {
                harness.task_start(item.phase(), &prep_labels[i]);
                let start = Instant::now();
                let out = match item {
                    Prep::Compile(u) => cache
                        .get_or_compile(u.name, u.input, u.scale, &u.config)
                        .map(|cw| PrepOut::Compile(u.key.clone(), cw)),
                    Prep::Potential(u) => self
                        .result_cache
                        .get_or_run_potential(&u.key, || {
                            let program = ccr_workloads::build(u.name, u.input, u.scale)
                                .ok_or_else(|| format!("unknown benchmark `{}`", u.name))?;
                            reuse_potential(&program, emu_config())
                                .map_err(|e| format!("{}: {e}", u.name))
                        })
                        .map(|p| PrepOut::Potential(u.key.clone(), p)),
                };
                if out.is_ok() {
                    let wall_ms = start.elapsed().as_millis() as u64;
                    harness.task_finish(item.phase(), &prep_labels[i], wall_ms, None);
                }
                out
            },
        );
        harness.pool("prep", &prep_pool);
        let profiles = (
            cache.profiles_run() - run_before,
            cache.profiles_reused() - reused_before,
        );
        harness.compile_cache(cache.hits() - hits_before, cache.misses() - misses_before);
        harness.value_profiles(profiles.0, profiles.1);
        let mut executed = Executed {
            specs: plan.specs.clone(),
            compiles: HashMap::new(),
            sims: HashMap::new(),
            potentials: HashMap::new(),
            points: plan
                .ccrs
                .iter()
                .map(|u| PointMeta {
                    name: u.name,
                    input: u.input,
                    scale: u.scale,
                    config_hash: config_hash(&u.machine, &u.crb),
                    keys: u.keys.clone(),
                })
                .collect(),
            cache: (cache.hits() - hits_before, cache.misses() - misses_before),
            profiles,
        };
        for out in prep {
            match out? {
                PrepOut::Compile(key, cw) => {
                    executed.compiles.insert(key, cw);
                }
                PrepOut::Potential(key, p) => {
                    executed.potentials.insert(key, p);
                }
            }
        }

        let compiles = &executed.compiles;
        let tasks: Vec<SimTask<'_>> = plan
            .bases
            .iter()
            .map(|u| SimTask {
                name: u.name,
                label: format!(
                    "sim:base:{}:m{}",
                    u.name,
                    &hash_fields(&u.machine.fields())[..8]
                ),
                key: result_cache_key(&u.key, fingerprint_window),
                program: &compiles[&u.compile_key].base,
                machine: &u.machine,
                crb: None,
                emu: u.emu,
                fingerprint_window: None,
            })
            .chain(plan.ccrs.iter().map(|u| SimTask {
                name: u.name,
                label: format!("sim:ccr:{}:{}", u.name, config_hash(&u.machine, &u.crb)),
                key: result_cache_key(&u.keys.ccr, fingerprint_window),
                program: &compiles[&u.keys.compile].annotated,
                machine: &u.machine,
                crb: Some(u.crb),
                emu: u.emu,
                fingerprint_window,
            }))
            .collect();
        if let Some(path) = checkpoint {
            self.result_cache.open_journal(path)?;
            let restored = self.result_cache.flight.with_store(|s| {
                tasks
                    .iter()
                    .filter(|t| s.ready.contains_key(&t.key))
                    .count()
            });
            if restored > 0 {
                eprintln!(
                    "checkpoint: restored {restored} of {} sim unit(s)",
                    tasks.len()
                );
            }
        }
        let sims = self.run_sims(&tasks, harness);
        self.result_cache.close_journal();
        let keys = plan.bases.iter().map(|u| &u.key);
        for (key, out) in keys.chain(plan.ccrs.iter().map(|u| &u.keys.ccr)).zip(sims) {
            executed.sims.insert(key.clone(), out?);
        }
        Ok(executed)
    }

    /// Runs a workload selection under one scenario (`ccr suite`,
    /// `ccr bench`, served points): a one-scenario plan through
    /// [`Engine::execute_plan`], so a selection shares the plan path's
    /// fan-outs, task labels and cache keys. Runs come back in `names`
    /// order, each with the host time of its baseline and CCR
    /// simulations. Every simulated statistic is identical to a serial,
    /// uncached run; repeated or overlapping selections reuse compiles
    /// and simulation outcomes across calls, and an engine built with
    /// result capacity 0 re-runs every simulation.
    ///
    /// # Errors
    ///
    /// Returns the first failing workload's error (unknown name or
    /// emulator limit breach), in `names` order.
    pub fn run_selected(
        &self,
        names: &[&'static str],
        scenario: &Scenario,
        harness: &Harness,
    ) -> Result<Vec<SuiteRun>, String> {
        let executed = self.execute_plan(&plan_selection(names, scenario), harness, None, None)?;
        Ok(names.iter().map(|&n| executed.run(n, scenario)).collect())
    }

    /// The one simulation fan-out: runs every task over the engine's
    /// workers, each through the result cache under its key, reporting
    /// `sim` start/finish events and the `sim` pool to `harness`.
    /// Results come back in task order.
    fn run_sims(&self, tasks: &[SimTask<'_>], harness: &Harness) -> Vec<Result<CachedSim, String>> {
        let labels: Vec<String> = tasks.iter().map(|t| t.label.clone()).collect();
        let (sims, pool) = parallel_map_observed(
            tasks,
            self.jobs,
            Some(&labels),
            harness.observer(),
            |_, task| {
                harness.task_start("sim", &task.label);
                let out = self.result_cache.get_or_run(&task.key, || task.run());
                if let Ok(c) = &out {
                    harness.task_finish(
                        "sim",
                        &task.label,
                        c.wall_ms,
                        Some(c.outcome.stats.cycles),
                    );
                }
                out
            },
        );
        harness.pool("sim", &pool);
        sims
    }
}

/// One simulation work item of [`Engine::run_sims`]: the program and
/// hardware to simulate, the result-cache key it memoizes under, and
/// its harness task label.
struct SimTask<'a> {
    name: &'static str,
    label: String,
    key: String,
    program: &'a Program,
    machine: &'a MachineConfig,
    crb: Option<CrbConfig>,
    emu: EmuConfig,
    /// When set, the run goes through a [`SimSession`] folding the
    /// determinism fingerprint every that many cycles (statistics
    /// bit-identical to [`simulate`]).
    fingerprint_window: Option<u64>,
}

impl SimTask<'_> {
    /// Simulates the task, timing it on the host.
    fn run(&self) -> Result<CachedSim, String> {
        let start = Instant::now();
        let err = |e: EmuError| format!("{}: {e}", self.name);
        let (outcome, fingerprint) = match self.fingerprint_window {
            None => (
                simulate(self.program, self.machine, self.crb, self.emu).map_err(err)?,
                String::new(),
            ),
            Some(window) => {
                let mut session =
                    SimSession::new(self.program, self.machine, self.crb, self.emu, window);
                session.run_to_end().map_err(err)?;
                let hash = session.final_hash().expect("finished run");
                (session.into_outcome(), format!("{hash:016x}"))
            }
        };
        Ok(CachedSim {
            outcome,
            wall_ms: start.elapsed().as_millis() as u64,
            fingerprint,
        })
    }
}

/// The result-cache key of a planned simulation unit: the planner's
/// dedup key plus the fingerprint window, so fingerprinted and plain
/// runs of the same point never share an entry.
fn result_cache_key(unit_key: &str, fingerprint_window: Option<u64>) -> String {
    match fingerprint_window {
        None => format!("{unit_key}|fp:none"),
        Some(w) => format!("{unit_key}|fp:{w}"),
    }
}
