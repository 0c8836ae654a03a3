//! The shared execution engine: one long-lived object owning the
//! job pool, the compile cache, and a content-addressed simulation
//! result cache.
//!
//! [`Engine`] is the one way to run the plan→compile→sim pipeline,
//! and [`Engine::execute_plan`] is its one entry point: it runs a
//! planned experiment sweep (`ccr exp`, `ccr exp --fingerprint`, served
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
//! Simulations run in **functional groups**: the sims of a plan that
//! differ only in machine knobs (the width study, the penalty and
//! speculation ablations, the baselines) share one emulation, whose
//! events feed one pipeline per machine, while each simulation keeps
//! its own cache entry, journal line, harness events and, in a
//! fingerprinted plan, its own fingerprint chain (see
//! [`Engine::execute_plan`]).
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
use ccr_core::single_flight::{Claim, SingleFlight};
use ccr_core::telemetry::record::{Codec, Flat, Lenient, Record};
use ccr_core::telemetry::{record, value, Counter};
use ccr_ir::Program;
use ccr_profile::{EmuConfig, ReusePotential};
use ccr_sim::{CrbConfig, MachineConfig, SimOutcome, SimSession};

use crate::exp::{
    hash_fields, plan_selection, CompileCache, CompileUnit, Executed, Plan, PointMeta,
    PotentialUnit, Scenario,
};
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

impl ResultStore {
    /// The ready entry of `key`, touched as most recently used.
    fn touch(&mut self, key: &str) -> Option<CachedSim> {
        let entry = self.ready.get_mut(key)?;
        self.tick += 1;
        entry.last_used = self.tick;
        Some(entry.value.clone())
    }
}

/// A content-addressed cache of completed simulation outcomes.
///
/// Keys are the planner's FNV-1a dedup keys, suffixed with the
/// fingerprint window of a CCR point (`…|fp:<window>`) and with
/// `…|fp:none` on a plain CCR point and on every baseline, which
/// carries no fingerprint: identical keys imply identical
/// deterministic outcomes.
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

/// Version tag of experiment-checkpoint JSONL lines. Bumped only on
/// incompatible changes; additive fields ride under the same version.
/// Lines are keyed by result-cache key (`…|fp:none`, `…|fp:<window>`).
pub const CKPT_VERSION: u64 = 4;

// A journal entry after its `ckpt_v` and `key`: the host figures, read
// leniently, then the outcome's fields inline, read strictly.
record!(Strict CachedSim { wall_ms: Lenient, fingerprint: Lenient, outcome: Flat });

/// One checkpoint journal line: a result-cache entry under its key,
/// its [`CachedSim`] fields inline.
pub(crate) fn ckpt_line(key: &str, c: &CachedSim) -> String {
    record::object(
        |w| {
            w.key("ckpt_v").u64_val(CKPT_VERSION);
            Lenient::put(&key.to_string(), "key", w);
        },
        c,
    )
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
        let key: String = Lenient::get(&v, "key", &ctx)?;
        if key.is_empty() {
            return Err(format!("{ctx}: missing `key`"));
        }
        out.push((key, CachedSim::get_fields(&v, &ctx)?));
    }
    let torn = !text.is_empty() && !text.ends_with('\n');
    Ok((out, torn))
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
            |s| s.touch(key),
            || {
                let value = run()?;
                self.append_to_journal(key, &value);
                Ok(value)
            },
            |s, value| self.insert_ready(s, key, value.clone()),
        )
    }

    /// [`SimResultCache::get_or_run`] for the members of one
    /// functional group, under their own keys: members already ready
    /// are hits, and one call of `run` computes every member this
    /// caller claims (`run` gets their indices into `keys` and returns
    /// one result per index, in order). Each computed member is
    /// journaled and stored on its own. A member another caller is
    /// computing is looked up again once this caller's claims are
    /// released (a hit when that computation succeeds, its own `run`
    /// otherwise), so no caller waits while holding a claim. Results
    /// come back in `keys` order.
    fn get_or_run_group(
        &self,
        keys: &[&str],
        run: impl Fn(&[usize]) -> Result<Vec<CachedSim>, String>,
    ) -> Vec<Result<CachedSim, String>> {
        let mut out: Vec<Option<Result<CachedSim, String>>> = vec![None; keys.len()];
        let (mut mine, mut busy) = (Vec::new(), Vec::new());
        for (i, &key) in keys.iter().enumerate() {
            match self.flight.try_claim(key, |s| s.touch(key)) {
                Claim::Ready(hit) => out[i] = Some(Ok(hit)),
                Claim::Mine(pending) => mine.push((i, pending)),
                Claim::Busy => busy.push(i),
            }
        }
        if !mine.is_empty() {
            let todo: Vec<usize> = mine.iter().map(|(i, _)| *i).collect();
            match run(&todo) {
                Ok(values) => {
                    for ((i, pending), value) in mine.into_iter().zip(values) {
                        self.append_to_journal(keys[i], &value);
                        pending.store(|s| self.insert_ready(s, keys[i], value.clone()));
                        out[i] = Some(Ok(value));
                    }
                }
                Err(e) => {
                    for (i, _released) in mine {
                        out[i] = Some(Err(e.clone()));
                    }
                }
            }
        }
        for i in busy {
            let one = || run(&[i]).map(|mut v| v.pop().expect("one result per member"));
            out[i] = Some(self.get_or_run(keys[i], one));
        }
        out.into_iter()
            .map(|r| r.expect("every member resolved"))
            .collect()
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
        let (entries, torn) = load_checkpoint(path)?;
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
        let mut line = ckpt_line(key, value);
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
    /// first (a simulation needs its compile), then the simulations,
    /// all over the engine's workers and through the shared caches.
    ///
    /// After the compiles, the simulations are grouped by functional
    /// key: the simulated program, emulator limits and CRB, with no
    /// machine field. Each group is one work item and one emulation
    /// that feeds one pipeline per distinct machine of its members
    /// ([`SimSession::with_machines`]); the full registry's 351
    /// simulations take 190 emulations. Everything else stays per
    /// simulation: its result-cache key and journal line, its
    /// `sim_start`/`sim_finish` events and its [`CachedSim`], whose
    /// `wall_ms` is an equal share of its group's host time (the
    /// remainder going to the first members, so the shares sum to the
    /// group's time). Fingerprinted plans group the same way: each
    /// member's pipeline folds its own chain. A plan without
    /// simulations runs no sim pool and emits no `sim` pool or
    /// `sim_groups` event.
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
    ///   [`Executed::records`] exactly. A CCR entry recorded under
    ///   another fingerprint window (or none) never matches; baselines
    ///   carry no fingerprint, so a plain run's baselines resume a
    ///   fingerprinted one.
    /// - `fingerprint_window`: when set, every CCR group's
    ///   [`SimSession`] folds each member's determinism fingerprint
    ///   every that many of its cycles (bit-identical statistics to a
    ///   plain session), and the member's final chain hash lands in the
    ///   `fingerprint` of the point's [`Executed::records`] entry.
    ///
    /// Cache accounting on the returned [`Executed`] (and the
    /// `compile_cache` harness event) is the **delta** this run
    /// contributed, so a fresh engine reports every compile as a miss.
    /// The functional runs executed ([`Executed::functional_runs`])
    /// land in a `sim_groups` harness event after the simulations.
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
        let trials_before = cache.trial_stats();
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
        let trials = cache.trial_stats();
        let trials = (trials.0 - trials_before.0, trials.1 - trials_before.1);
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
            trials,
            functional_runs: (0, 0),
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
                // Baselines are never fingerprinted (`run_group`), so
                // plain and fingerprinted runs share their entries.
                key: result_cache_key(&u.key, None),
                compile_key: &u.compile_key,
                program: &compiles[&u.compile_key].base,
                machine: &u.machine,
                crb: None,
                emu: u.emu,
            })
            .chain(plan.ccrs.iter().map(|u| SimTask {
                name: u.name,
                label: format!("sim:ccr:{}:{}", u.name, config_hash(&u.machine, &u.crb)),
                key: result_cache_key(&u.keys.ccr, fingerprint_window),
                compile_key: &u.keys.compile,
                program: &compiles[&u.keys.compile].annotated,
                machine: &u.machine,
                crb: Some(u.crb),
                emu: u.emu,
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
        let groups = functional_groups(&tasks);
        let (sims, functional_runs) = self.run_sims(&tasks, &groups, fingerprint_window, harness);
        self.result_cache.close_journal();
        executed.functional_runs = functional_runs;
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

    /// The one simulation fan-out: runs every functional group over
    /// the engine's workers, each member through the result cache
    /// under its own key ([`SimResultCache::get_or_run_group`]), and
    /// reports every member's `sim` start/finish events, the `sim`
    /// pool and the `sim_groups` count to `harness`. CCR groups fold
    /// fingerprints under `window`. Results come back in task order,
    /// with the (baseline, CCR) functional runs executed. Without
    /// tasks, no pool starts and nothing is reported.
    fn run_sims(
        &self,
        tasks: &[SimTask<'_>],
        groups: &[Vec<usize>],
        window: Option<u64>,
        harness: &Harness,
    ) -> (Vec<Result<CachedSim, String>>, (u64, u64)) {
        if tasks.is_empty() {
            return (Vec::new(), (0, 0));
        }
        let labels: Vec<String> = groups
            .iter()
            .map(|g| match g.len() {
                1 => tasks[g[0]].label.clone(),
                n => format!("{}+{}", tasks[g[0]].label, n - 1),
            })
            .collect();
        let (base_runs, ccr_runs) = (Counter::default(), Counter::default());
        let (outs, pool) = parallel_map_observed(
            groups,
            self.jobs,
            Some(&labels),
            harness.observer(),
            |_, group| {
                let members: Vec<&SimTask<'_>> = group.iter().map(|&i| &tasks[i]).collect();
                for task in &members {
                    harness.task_start("sim", &task.label);
                }
                let keys: Vec<&str> = members.iter().map(|t| t.key.as_str()).collect();
                let outs = self.result_cache.get_or_run_group(&keys, |todo| {
                    let runs = match members[0].crb {
                        None => &base_runs,
                        Some(_) => &ccr_runs,
                    };
                    runs.inc();
                    let todo: Vec<&SimTask<'_>> = todo.iter().map(|&m| members[m]).collect();
                    run_group(&todo, window)
                });
                for (task, out) in members.iter().zip(&outs) {
                    if let Ok(c) = out {
                        let cycles = Some(c.outcome.stats.cycles);
                        harness.task_finish("sim", &task.label, c.wall_ms, cycles);
                    }
                }
                outs
            },
        );
        harness.pool("sim", &pool);
        let runs = (base_runs.get(), ccr_runs.get());
        harness.sim_groups(runs.0 + runs.1, tasks.len() as u64);
        let mut sims: Vec<Option<Result<CachedSim, String>>> = vec![None; tasks.len()];
        for (group, outs) in groups.iter().zip(outs) {
            for (&i, out) in group.iter().zip(outs) {
                sims[i] = Some(out);
            }
        }
        let sims = sims.into_iter().map(|s| s.expect("every task grouped"));
        (sims.collect(), runs)
    }
}

/// One simulation work item: the program and hardware to simulate,
/// the result-cache key it memoizes under, and its harness task label.
struct SimTask<'a> {
    name: &'static str,
    label: String,
    key: String,
    /// The compile unit whose program this simulates.
    compile_key: &'a str,
    program: &'a Program,
    machine: &'a MachineConfig,
    crb: Option<CrbConfig>,
    emu: EmuConfig,
}

/// Groups `tasks` by functional key, in first-encounter order: the
/// simulated program, the emulator limits and the CRB fields. No
/// machine field is in the key: neither the emulator nor the buffer
/// reads the machine, so a group's members differ only in timing and
/// one functional run serves them all. Programs are told apart by
/// equality, once per compile unit and build, against the distinct
/// programs of the same workload seen so far.
fn functional_groups(tasks: &[SimTask<'_>]) -> Vec<Vec<usize>> {
    let mut distinct: Vec<(&str, &Program)> = Vec::new();
    let mut program_of: HashMap<(&str, bool), usize> = HashMap::new();
    let mut index = HashMap::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, task) in tasks.iter().enumerate() {
        let program = *program_of
            .entry((task.compile_key, task.crb.is_none()))
            .or_insert_with(|| {
                let same = |(name, p): &(&str, &Program)| *name == task.name && *p == task.program;
                distinct.iter().position(same).unwrap_or_else(|| {
                    distinct.push((task.name, task.program));
                    distinct.len() - 1
                })
            });
        let crb = task.crb.map(|c| hash_fields(&c.fields()));
        let key = (program, task.emu.max_instrs, task.emu.max_depth, crb);
        let g = *index.entry(key).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[g].push(i);
    }
    groups
}

/// Simulates `members` (one functional group) in one session, timing
/// it on the host: one pipeline per distinct machine, shared by the
/// members that name equal machines. A CCR group folds each machine's
/// fingerprint chain under `window`, and each member records its
/// machine's final hash. Each member's `wall_ms` is its equal share of
/// the group's host time, the remainder going to the first members, so
/// the shares sum to the group's time.
fn run_group(members: &[&SimTask<'_>], window: Option<u64>) -> Result<Vec<CachedSim>, String> {
    let start = Instant::now();
    let first = members[0];
    let mut machines: Vec<MachineConfig> = Vec::new();
    let mut machine_keys: Vec<String> = Vec::new();
    let slots: Vec<usize> = members
        .iter()
        .map(|t| {
            let key = hash_fields(&t.machine.fields());
            machine_keys
                .iter()
                .position(|k| *k == key)
                .unwrap_or_else(|| {
                    machines.push(*t.machine);
                    machine_keys.push(key);
                    machines.len() - 1
                })
        })
        .collect();
    let window = window.filter(|_| first.crb.is_some());
    let mut session =
        SimSession::with_machines(first.program, &machines, first.crb, first.emu, window)?;
    session
        .run_to_end()
        .map_err(|e| format!("{}: {e}", first.name))?;
    let fingerprints: Vec<String> = (0..machines.len())
        .map(|m| (session.final_hash_of(m)).map_or_else(String::new, |h| format!("{h:016x}")))
        .collect();
    let outcomes = session.into_outcomes();
    let total = start.elapsed().as_millis() as u64;
    let n = members.len() as u64;
    Ok(slots
        .iter()
        .zip(0..)
        .map(|(&slot, k)| CachedSim {
            outcome: outcomes[slot].clone(),
            wall_ms: total / n + u64::from(k < total % n),
            fingerprint: fingerprints[slot].clone(),
        })
        .collect())
}

/// The result-cache key of a planned simulation unit: the planner's
/// dedup key plus the fingerprint window, so fingerprinted and plain
/// runs of the same CCR point never share an entry. Baselines always
/// take the `None` window: they carry no fingerprint either way.
fn result_cache_key(unit_key: &str, fingerprint_window: Option<u64>) -> String {
    match fingerprint_window {
        None => format!("{unit_key}|fp:none"),
        Some(w) => format!("{unit_key}|fp:{w}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccr_profile::RunOutcome;
    use ccr_sim::SimStats;
    use std::sync::mpsc;

    fn sim_of(cycles: u64) -> CachedSim {
        CachedSim {
            outcome: SimOutcome {
                run: RunOutcome {
                    returned: Vec::new(),
                    dyn_instrs: 0,
                    skipped_instrs: 0,
                    reuse_hits: 0,
                    reuse_misses: 0,
                    memory_digest: 0,
                },
                stats: SimStats {
                    cycles,
                    ..SimStats::default()
                },
            },
            wall_ms: 1,
            fingerprint: String::new(),
        }
    }

    #[test]
    fn a_member_in_flight_elsewhere_is_waited_for_after_the_own_claims() {
        let cache = SimResultCache::new(8);
        let (started_tx, started) = mpsc::channel();
        let (go, go_rx) = mpsc::channel::<()>();
        let (computed_tx, computed) = mpsc::channel();
        let cache = &cache;
        std::thread::scope(|scope| {
            // One caller claims `k1` and holds it until told to go.
            let first = scope.spawn(move || {
                cache.get_or_run_group(&["k1"], |_| {
                    started_tx.send(()).expect("test is listening");
                    go_rx.recv().expect("test sends go");
                    Ok(vec![sim_of(1)])
                })
            });
            started.recv().expect("the first caller claims k1");
            // The second caller's group is `k0` (free) and `k1` (in
            // flight): it computes `k0` alone, then waits out `k1`.
            let second = scope.spawn(move || {
                cache.get_or_run_group(&["k0", "k1"], |todo| {
                    computed_tx.send(todo.to_vec()).expect("test is listening");
                    Ok(todo.iter().map(|_| sim_of(0)).collect())
                })
            });
            assert_eq!(computed.recv().expect("k0 computed"), vec![0]);
            go.send(()).expect("the first caller waits");
            let first = first.join().expect("first caller");
            let second = second.join().expect("second caller");
            assert_eq!(first[0].as_ref().unwrap().outcome.stats.cycles, 1);
            let cycles: Vec<u64> = second
                .iter()
                .map(|r| r.as_ref().unwrap().outcome.stats.cycles)
                .collect();
            assert_eq!(cycles, [0, 1], "k1 is the first caller's result");
        });
        assert!(computed.try_recv().is_err(), "k1 ran once");
        assert_eq!((cache.misses(), cache.hits()), (2, 1));
    }
}
