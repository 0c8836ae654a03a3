//! Host-side harness observability: a structured `harness.jsonl`
//! event log and live `--progress` rendering, both fed by the
//! executors' own task events.
//!
//! PRs 1–3 and 6 instrumented the *guest* — the compiler passes, the
//! simulated CRB, the cross-run store. This module instruments the
//! *host*: what the `ccr exp` planner decided, how long each compile
//! and simulation took, how busy the job-pool workers were, and which
//! points were the stragglers on the critical path. A 351-sim `--all`
//! run no longer runs dark.
//!
//! Three sinks, all optional and all off by default:
//!
//! * **`harness.jsonl`** (`--harness-out FILE`): one JSON object per
//!   line, every line tagged `{"harness_v":1,"ev":"<kind>",...}` and
//!   written to the file as it happens, so a live log can be tailed
//!   and a killed run keeps every finished line. Consumers tolerate
//!   unknown fields and unknown event kinds, so new fields are
//!   additive (same contract as the PR-6 run store).
//! * **plain progress** (`--progress`): a human line to **stderr** on
//!   each `monitor` sample — completed points, points/sec, aggregate
//!   simulated Mcycles/sec, worker utilization, ETA.
//! * **json progress** (`--progress=json`): the event stream itself
//!   mirrored to stderr, for tooling that watches a live run.
//!
//! The live view has no thread of its own. Its counters move only when
//! a task starts or finishes, so [`Harness::task_finish`] takes a
//! `monitor` sample once 250 ms (`SAMPLE_PERIOD`) have passed since the last
//! one, and [`Harness::finish`] takes the final `last:true` sample. An
//! idle harness writes no sample until it finishes.
//!
//! **Bit-identity contract** (extends PRs 1 and 4): the harness only
//! *observes* — it reads clocks, bumps atomics, and writes to stderr
//! and the side-channel file. Harness on or off, every simulated
//! statistic and every committed artifact (stdout tables, CSVs,
//! `results/`) is byte/bit-identical; `tests/harness_observability.rs`
//! asserts this end to end.

use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ccr_telemetry::JsonWriter;

use crate::jobs::{PoolObserver, PoolStats};

/// Version tag carried by every `harness.jsonl` line. Bumped only on
/// incompatible changes; adding fields or event kinds is not one.
pub const HARNESS_SCHEMA_VERSION: u32 = 1;

/// How many straggler points the summary keeps.
const STRAGGLER_TOP_K: usize = 5;

/// The least host time between two live `monitor` samples.
const SAMPLE_PERIOD: Duration = Duration::from_millis(250);

/// What `--progress` renders to stderr.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ProgressMode {
    /// No stderr rendering (the default; `--harness-out` may still
    /// record events to a file).
    #[default]
    Off,
    /// One human-readable line per `monitor` sample.
    Plain,
    /// The raw event stream, one JSON object per line.
    Json,
}

impl ProgressMode {
    /// Parses a `--progress=` value (`plain` or `json`).
    pub fn parse(s: &str) -> Option<ProgressMode> {
        match s {
            "plain" => Some(ProgressMode::Plain),
            "json" => Some(ProgressMode::Json),
            _ => None,
        }
    }
}

/// Harness configuration, assembled by the CLI from `--progress`,
/// `--no-progress`, and `--harness-out`.
#[derive(Clone, Debug, Default)]
pub struct HarnessOptions {
    /// Stderr rendering mode.
    pub progress: ProgressMode,
    /// Event-log path (`--harness-out`); parent directories are
    /// created on [`Harness::start`].
    pub out: Option<PathBuf>,
}

impl HarnessOptions {
    /// True when some sink is active (otherwise [`Harness::start`]
    /// degenerates to [`Harness::disabled`]).
    pub fn enabled(&self) -> bool {
        self.progress != ProgressMode::Off || self.out.is_some()
    }
}

/// End-of-run host-side accounting: what [`Harness::finish`] returns,
/// what the `harness_summary` event records, and (as
/// `host_util_pct`) what flows onto cross-run store records.
#[derive(Clone, Debug)]
pub struct HarnessSummary {
    /// Wall time from [`Harness::start`] to [`Harness::finish`].
    pub wall_ms: u64,
    /// Pool-worker utilization over every observed map, percent.
    pub utilization_pct: f64,
    /// Distinct pool workers: the most any one observed map ran.
    pub workers: usize,
    /// Compile / potential-study tasks finished.
    pub compiles: u64,
    /// Simulations finished.
    pub sims: u64,
    /// Total simulated cycles across every finished simulation.
    pub sim_cycles: u64,
    /// Compile-cache lookups that reused a prior compile.
    pub cache_hits: u64,
    /// Compile-cache lookups that had to compile.
    pub cache_misses: u64,
    /// Compiles that value-profiled their training build.
    pub profiles_run: u64,
    /// Compiles that reused another compile's value profile.
    pub profiles_reused: u64,
    /// The top-K longest tasks — the sweep's critical path — as
    /// `(label, wall_ms)`, longest first.
    pub stragglers: Vec<(String, u64)>,
}

impl HarnessSummary {
    /// Cache hit rate in percent (0 when no lookups ran).
    pub fn cache_hit_pct(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            0.0
        } else {
            100.0 * self.cache_hits as f64 / lookups as f64
        }
    }

    /// The multi-line stderr rendering of the summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "harness: {:.1}s wall | {} worker(s), util {:.1}% | {} compile(s), {} sim(s), \
             {:.1} Mcycles | compile cache {} hit / {} miss ({:.1}%) | \
             value profiles {} run / {} reused\n",
            self.wall_ms as f64 / 1000.0,
            self.workers,
            self.utilization_pct,
            self.compiles,
            self.sims,
            self.sim_cycles as f64 / 1e6,
            self.cache_hits,
            self.cache_misses,
            self.cache_hit_pct(),
            self.profiles_run,
            self.profiles_reused,
        );
        if !self.stragglers.is_empty() {
            out.push_str("harness: stragglers:");
            for (label, wall_ms) in &self.stragglers {
                out.push_str(&format!(" {label} {wall_ms}ms;"));
            }
            out.push('\n');
        }
        out
    }
}

/// A live harness's sinks and the counters its samples read.
struct Live {
    start: Instant,
    progress: ProgressMode,
    /// The `--harness-out` file, written unbuffered: one `write_all`
    /// per line, under the mutex so lines never interleave.
    out: Option<Mutex<std::fs::File>>,
    compiles_total: AtomicU64,
    compiles_done: AtomicU64,
    sims_total: AtomicU64,
    sims_done: AtomicU64,
    sim_cycles: AtomicU64,
    /// Units started through [`Harness::task_start`].
    tasks_started: AtomicU64,
    /// Pool items finished, over every observed map.
    pool_tasks_done: AtomicU64,
    /// Busy nanoseconds per pool worker index, over every observed map.
    worker_busy_ns: Mutex<Vec<u64>>,
    /// Nanoseconds after `start` of the last `monitor` sample.
    last_sample_ns: AtomicU64,
    /// The next sample's sequence number.
    sample_seq: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    profiles_run: AtomicU64,
    profiles_reused: AtomicU64,
    pool: Mutex<PoolStats>,
}

fn get(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

fn add(counter: &AtomicU64, delta: u64) {
    counter.fetch_add(delta, Ordering::Relaxed);
}

impl Live {
    fn line_begin(&self, ev: &str) -> JsonWriter {
        let mut w = JsonWriter::new();
        w.obj_begin();
        w.key("harness_v").u64_val(HARNESS_SCHEMA_VERSION as u64);
        w.key("ev").str_val(ev);
        w.key("t_ms")
            .u64_val(self.start.elapsed().as_millis() as u64);
        w
    }

    /// Writes one finished event line to the active sinks. The file
    /// mutex serializes worker threads; stderr writes are single
    /// `eprint!` calls, so lines never interleave.
    fn emit_line(&self, mut w: JsonWriter) {
        w.obj_end();
        let mut line = w.finish();
        line.push('\n');
        if let Some(file) = &self.out {
            let _ = file.lock().expect("harness out").write_all(line.as_bytes());
        }
        if self.progress == ProgressMode::Json {
            eprint!("{line}");
        }
    }

    /// Takes one `monitor` sample of the counters: a `monitor` line
    /// (the counters and the queue-depth gauge go to the file only)
    /// and, under plain progress, the `--progress` line.
    fn sample(&self, last: bool) {
        let seq = self.sample_seq.fetch_add(1, Ordering::Relaxed);
        let busy_ns = self.worker_busy_ns.lock().expect("worker busy").clone();
        if self.out.is_some() || self.progress == ProgressMode::Json {
            let mut w = self.line_begin("monitor");
            w.key("seq").u64_val(seq);
            w.key("last").bool_val(last);
            if self.out.is_some() {
                w.key("counters").obj_begin();
                for (name, value) in [
                    ("harness.compiles.done", &self.compiles_done),
                    ("harness.compiles.total", &self.compiles_total),
                    ("harness.sim.cycles", &self.sim_cycles),
                    ("harness.sims.done", &self.sims_done),
                    ("harness.sims.total", &self.sims_total),
                    ("harness.tasks.started", &self.tasks_started),
                    ("pool.tasks.done", &self.pool_tasks_done),
                ] {
                    w.key(name).u64_val(get(value));
                }
                for (worker, busy) in busy_ns.iter().enumerate() {
                    w.key(&format!("pool.worker{worker}.busy_ns"))
                        .u64_val(*busy);
                }
                w.obj_end();
                let total = get(&self.compiles_total) + get(&self.sims_total);
                let queued = total.saturating_sub(get(&self.tasks_started));
                w.key("gauges").obj_begin();
                w.key("harness.queue.depth").f64_val(queued as f64);
                w.obj_end();
            }
            // emit_line also mirrors to stderr under Json progress.
            self.emit_line(w);
        }
        if self.progress == ProgressMode::Plain {
            eprintln!("{}", self.progress_line(&busy_ns));
        }
    }

    /// The plain `--progress` line: completed points, rates,
    /// utilization, ETA — all from the counters.
    fn progress_line(&self, busy_ns: &[u64]) -> String {
        let elapsed_s = self.start.elapsed().as_secs_f64().max(1e-3);
        let compiles_done = get(&self.compiles_done);
        let compiles_total = get(&self.compiles_total);
        let sims_done = get(&self.sims_done);
        let sims_total = get(&self.sims_total);
        let done = compiles_done + sims_done;
        let total = compiles_total + sims_total;
        let pct = if total == 0 {
            0.0
        } else {
            100.0 * done as f64 / total as f64
        };
        let cycles = get(&self.sim_cycles);
        let workers = busy_ns.len();
        let busy_ns: u64 = busy_ns.iter().sum();
        let util = if workers == 0 {
            0.0
        } else {
            100.0 * (busy_ns as f64 / 1e9) / (workers as f64 * elapsed_s)
        };
        let eta = if done == 0 || total <= done {
            "-".to_string()
        } else {
            let rate = done as f64 / elapsed_s;
            format!("{:.0}s", (total - done) as f64 / rate)
        };
        format!(
            "progress: {compiles_done}/{compiles_total} compiles, {sims_done}/{sims_total} sims \
             ({pct:.0}%) | {:.1} pts/s | {:.1} Mcyc/s | util {util:.0}% | eta {eta}",
            done as f64 / elapsed_s,
            cycles as f64 / 1e6 / elapsed_s,
        )
    }

    fn summary(&self) -> HarnessSummary {
        let pool = self.pool.lock().expect("pool stats");
        HarnessSummary {
            wall_ms: self.start.elapsed().as_millis() as u64,
            utilization_pct: 100.0 * pool.utilization(),
            workers: pool.jobs,
            compiles: get(&self.compiles_done),
            sims: get(&self.sims_done),
            sim_cycles: get(&self.sim_cycles),
            cache_hits: get(&self.cache_hits),
            cache_misses: get(&self.cache_misses),
            profiles_run: get(&self.profiles_run),
            profiles_reused: get(&self.profiles_reused),
            stragglers: pool
                .stragglers(STRAGGLER_TOP_K)
                .into_iter()
                .map(|t| (t.label.clone(), t.wall_ns / 1_000_000))
                .collect(),
        }
    }
}

/// The harness observability hub: hands out the [`PoolObserver`],
/// receives the per-task events from the executors, samples its
/// counters at task boundaries, and owns the `harness.jsonl` writer.
///
/// A disabled harness ([`Harness::disabled`]) is a guaranteed no-op:
/// every method early-returns, so instrumented code paths pay one
/// `Option` check when observability is off.
pub struct Harness {
    live: Option<Live>,
}

impl Harness {
    /// A no-op harness: nothing is recorded, nothing is rendered.
    pub fn disabled() -> Harness {
        Harness { live: None }
    }

    /// Opens the configured sinks. With no sink enabled this returns
    /// [`Harness::disabled`].
    ///
    /// # Errors
    ///
    /// Returns the I/O error if `--harness-out` (or its parent
    /// directory) cannot be created.
    pub fn start(opts: &HarnessOptions) -> std::io::Result<Harness> {
        if !opts.enabled() {
            return Ok(Harness::disabled());
        }
        let out = match &opts.out {
            None => None,
            Some(path) => {
                if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                    std::fs::create_dir_all(parent)?;
                }
                Some(Mutex::new(std::fs::File::create(path)?))
            }
        };
        Ok(Harness {
            live: Some(Live {
                start: Instant::now(),
                progress: opts.progress,
                out,
                compiles_total: AtomicU64::new(0),
                compiles_done: AtomicU64::new(0),
                sims_total: AtomicU64::new(0),
                sims_done: AtomicU64::new(0),
                sim_cycles: AtomicU64::new(0),
                tasks_started: AtomicU64::new(0),
                pool_tasks_done: AtomicU64::new(0),
                worker_busy_ns: Mutex::new(Vec::new()),
                last_sample_ns: AtomicU64::new(0),
                sample_seq: AtomicU64::new(0),
                cache_hits: AtomicU64::new(0),
                cache_misses: AtomicU64::new(0),
                profiles_run: AtomicU64::new(0),
                profiles_reused: AtomicU64::new(0),
                pool: Mutex::new(PoolStats::default()),
            }),
        })
    }

    /// True when some sink is recording.
    pub fn enabled(&self) -> bool {
        self.live.is_some()
    }

    /// The pool observer to pass to
    /// [`crate::jobs::parallel_map_observed`] (`None` when disabled).
    pub fn observer(&self) -> Option<&dyn PoolObserver> {
        self.live.as_ref().map(|_| self as &dyn PoolObserver)
    }

    /// Records what the planner decided and arms the progress totals:
    /// `compiles` prep tasks (compiles + potential studies) and `sims`
    /// simulations, plus free-form accounting fields for the `plan`
    /// event.
    pub fn plan(&self, compiles: u64, sims: u64, detail: &[(&str, u64)]) {
        let Some(live) = &self.live else { return };
        add(&live.compiles_total, compiles);
        add(&live.sims_total, sims);
        let mut w = live.line_begin("plan");
        w.key("compiles").u64_val(compiles);
        w.key("sims").u64_val(sims);
        for (name, value) in detail {
            w.key(name).u64_val(*value);
        }
        live.emit_line(w);
    }

    /// A labeled task began. `phase` is `compile`, `potential`, `sim`,
    /// or `profile`; the label carries the point identity
    /// (workload × config-hash × phase).
    pub fn task_start(&self, phase: &str, label: &str) {
        let Some(live) = &self.live else { return };
        add(&live.tasks_started, 1);
        let mut w = live.line_begin(&format!("{phase}_start"));
        w.key("label").str_val(label);
        live.emit_line(w);
    }

    /// A labeled task finished after `wall_ms`; simulations also
    /// report their simulated `cycles` (which feeds the aggregate
    /// Mcycles/sec rate in `--progress`). Takes a `monitor` sample
    /// when `SAMPLE_PERIOD` has passed since the last one; of
    /// racing finishers, the one that moves the last sample's time
    /// takes it.
    pub fn task_finish(&self, phase: &str, label: &str, wall_ms: u64, cycles: Option<u64>) {
        let Some(live) = &self.live else { return };
        if phase == "sim" {
            add(&live.sims_done, 1);
        } else {
            add(&live.compiles_done, 1);
        }
        if let Some(cycles) = cycles {
            add(&live.sim_cycles, cycles);
        }
        let mut w = live.line_begin(&format!("{phase}_finish"));
        w.key("label").str_val(label);
        w.key("wall_ms").u64_val(wall_ms);
        if let Some(cycles) = cycles {
            w.key("cycles").u64_val(cycles);
        }
        live.emit_line(w);
        let now_ns = live.start.elapsed().as_nanos() as u64;
        let last_ns = get(&live.last_sample_ns);
        if now_ns.saturating_sub(last_ns) >= SAMPLE_PERIOD.as_nanos() as u64
            && live
                .last_sample_ns
                .compare_exchange(last_ns, now_ns, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            live.sample(false);
        }
    }

    /// Records a simulation-state snapshot crossing the host boundary:
    /// `action` is `save` or `restore`, `cycle` the simulated cycle
    /// the snapshot captures, `path` where it lives. Additive under
    /// `harness_v: 1` like every event kind.
    pub fn snapshot(&self, action: &str, workload: &str, cycle: u64, path: &str) {
        let Some(live) = &self.live else { return };
        let mut w = live.line_begin("snapshot");
        w.key("action").str_val(action);
        w.key("workload").str_val(workload);
        w.key("cycle").u64_val(cycle);
        w.key("path").str_val(path);
        live.emit_line(w);
    }

    /// Records a completed determinism fingerprint: the final chain
    /// `hash` (16-digit hex) over `cycles` simulated cycles, with
    /// `windows` sealed window digests behind it.
    pub fn fingerprint(&self, workload: &str, windows: u64, cycles: u64, hash: &str) {
        let Some(live) = &self.live else { return };
        let mut w = live.line_begin("fingerprint");
        w.key("workload").str_val(workload);
        w.key("windows").u64_val(windows);
        w.key("cycles").u64_val(cycles);
        w.key("hash").str_val(hash);
        live.emit_line(w);
    }

    /// Records the compile-cache hit/miss counters (cumulative for the
    /// run) and emits a `compile_cache` event.
    pub fn compile_cache(&self, hits: u64, misses: u64) {
        let Some(live) = &self.live else { return };
        live.cache_hits.store(hits, Ordering::Relaxed);
        live.cache_misses.store(misses, Ordering::Relaxed);
        let mut w = live.line_begin("compile_cache");
        w.key("hits").u64_val(hits);
        w.key("misses").u64_val(misses);
        live.emit_line(w);
    }

    /// Emits a `sim_groups` event: the functional runs (emulations) a
    /// plan's simulation phase executed for its `sims` simulation
    /// units, each run feeding one pipeline per machine of its group.
    pub fn sim_groups(&self, functional_runs: u64, sims: u64) {
        let Some(live) = &self.live else { return };
        let mut w = live.line_begin("sim_groups");
        w.key("functional_runs").u64_val(functional_runs);
        w.key("sims").u64_val(sims);
        live.emit_line(w);
    }

    /// Records the value-profile counters of the compile cache's first
    /// stage (cumulative for the run) for the `harness_summary` event.
    pub fn value_profiles(&self, run: u64, reused: u64) {
        let Some(live) = &self.live else { return };
        live.profiles_run.store(run, Ordering::Relaxed);
        live.profiles_reused.store(reused, Ordering::Relaxed);
    }

    /// Records a service request entering execution: its session-local
    /// `id`, the protocol `op` (`submit`), and a free-form `detail`
    /// (experiment name or workload spec). Emit-only — requests are
    /// tracked per-session, not against the run's task totals.
    pub fn request_start(&self, id: u64, op: &str, detail: &str) {
        let Some(live) = &self.live else { return };
        let mut w = live.line_begin("request_start");
        w.key("id").u64_val(id);
        w.key("op").str_val(op);
        w.key("detail").str_val(detail);
        live.emit_line(w);
    }

    /// Records a service request completing: `status` is `done` or
    /// `error`, `wall_ms` the host time from dequeue to completion,
    /// `points` the simulation points the request asked for (before
    /// cross-request dedup). Emit-only, like [`Harness::request_start`].
    pub fn request_finish(&self, id: u64, status: &str, wall_ms: u64, points: u64) {
        let Some(live) = &self.live else { return };
        let mut w = live.line_begin("request_finish");
        w.key("id").u64_val(id);
        w.key("status").str_val(status);
        w.key("wall_ms").u64_val(wall_ms);
        w.key("points").u64_val(points);
        live.emit_line(w);
    }

    /// Records the engine's simulation-result-cache counters
    /// (cumulative for the engine's lifetime) as a `result_cache`
    /// event. Emit-only: unlike [`Harness::compile_cache`] these do
    /// not feed the run summary, since a long-lived engine outlives
    /// any one harness session.
    pub fn result_cache(&self, hits: u64, misses: u64, evictions: u64) {
        let Some(live) = &self.live else { return };
        let mut w = live.line_begin("result_cache");
        w.key("hits").u64_val(hits);
        w.key("misses").u64_val(misses);
        w.key("evictions").u64_val(evictions);
        live.emit_line(w);
    }

    /// Folds one observed map's [`PoolStats`] into the run accounting
    /// and emits a `pool` event with the per-worker busy/idle split.
    pub fn pool(&self, phase: &str, stats: &PoolStats) {
        let Some(live) = &self.live else { return };
        let mut w = live.line_begin("pool");
        w.key("phase").str_val(phase);
        w.key("jobs").u64_val(stats.jobs as u64);
        w.key("wall_ms").u64_val(stats.wall_ns / 1_000_000);
        w.key("utilization").f64_val(stats.utilization());
        w.key("workers").arr_begin();
        for worker in &stats.workers {
            w.obj_begin();
            w.key("worker").u64_val(worker.worker as u64);
            w.key("busy_ns").u64_val(worker.busy_ns);
            w.key("idle_ns").u64_val(worker.idle_ns);
            w.key("wall_ns").u64_val(worker.wall_ns);
            w.key("tasks").u64_val(worker.tasks);
            w.obj_end();
        }
        w.arr_end();
        live.emit_line(w);
        live.pool.lock().expect("pool stats").merge(stats);
    }

    /// Takes the final `last:true` sample, emits the
    /// `harness_summary` event, and returns the summary — `None` when
    /// disabled.
    pub fn finish(&self) -> Option<HarnessSummary> {
        let live = self.live.as_ref()?;
        live.sample(true);
        let summary = live.summary();
        let mut w = live.line_begin("harness_summary");
        w.key("wall_ms").u64_val(summary.wall_ms);
        w.key("utilization_pct").f64_val(summary.utilization_pct);
        w.key("workers").u64_val(summary.workers as u64);
        w.key("compiles").u64_val(summary.compiles);
        w.key("sims").u64_val(summary.sims);
        w.key("sim_cycles").u64_val(summary.sim_cycles);
        w.key("cache_hits").u64_val(summary.cache_hits);
        w.key("cache_misses").u64_val(summary.cache_misses);
        w.key("profiles_run").u64_val(summary.profiles_run);
        w.key("profiles_reused").u64_val(summary.profiles_reused);
        w.key("stragglers").arr_begin();
        for (label, wall_ms) in &summary.stragglers {
            w.obj_begin();
            w.key("label").str_val(label);
            w.key("wall_ms").u64_val(*wall_ms);
            w.obj_end();
        }
        w.arr_end();
        live.emit_line(w);
        Some(summary)
    }
}

impl PoolObserver for Harness {
    fn task_finished(&self, worker: usize, _index: usize, _label: &str, wall_ns: u64) {
        let Some(live) = &self.live else { return };
        let mut busy = live.worker_busy_ns.lock().expect("worker busy");
        if busy.len() <= worker {
            busy.resize(worker + 1, 0);
        }
        busy[worker] += wall_ns;
        add(&live.pool_tasks_done, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_harness_is_a_no_op() {
        let h = Harness::disabled();
        assert!(!h.enabled());
        assert!(h.observer().is_none());
        h.plan(3, 5, &[("specs", 1)]);
        h.task_start("sim", "sim:ccr:x");
        h.task_finish("sim", "sim:ccr:x", 12, Some(1000));
        h.snapshot("save", "x", 5000, "/tmp/x.snap.jsonl");
        h.fingerprint("x", 3, 200_000, "00c0ffee00c0ffee");
        h.compile_cache(1, 2);
        h.value_profiles(1, 1);
        h.request_start(1, "submit", "fig4");
        h.request_finish(1, "done", 40, 7);
        h.result_cache(3, 4, 0);
        h.pool("sim", &PoolStats::default());
        assert!(h.finish().is_none());
    }

    #[test]
    fn options_enable_logic() {
        assert!(!HarnessOptions::default().enabled());
        assert!(HarnessOptions {
            progress: ProgressMode::Plain,
            ..HarnessOptions::default()
        }
        .enabled());
        assert!(HarnessOptions {
            out: Some(PathBuf::from("/tmp/x.jsonl")),
            ..HarnessOptions::default()
        }
        .enabled());
        assert_eq!(ProgressMode::parse("plain"), Some(ProgressMode::Plain));
        assert_eq!(ProgressMode::parse("json"), Some(ProgressMode::Json));
        assert_eq!(ProgressMode::parse("loud"), None);
    }

    #[test]
    fn file_sink_records_versioned_events_and_summary() {
        let dir = std::env::temp_dir().join(format!(
            "ccr-harness-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let path = dir.join("harness.jsonl");
        let h = Harness::start(&HarnessOptions {
            progress: ProgressMode::Off,
            out: Some(path.clone()),
        })
        .expect("start harness");
        assert!(h.enabled());
        h.plan(2, 4, &[("jobs", 8)]);
        h.task_start("compile", "compile:bitcount:train");
        h.task_finish("compile", "compile:bitcount:train", 3, None);
        h.task_finish("sim", "sim:ccr:bitcount:abc", 7, Some(12345));
        h.snapshot("save", "bitcount", 64_000, "runs/bitcount.snap.jsonl");
        h.fingerprint("bitcount", 2, 130_000, "0123456789abcdef");
        h.compile_cache(5, 2);
        h.value_profiles(1, 6);
        h.request_start(1, "submit", "fig4");
        h.request_finish(1, "done", 11, 7);
        h.result_cache(3, 4, 1);
        let summary = h.finish().expect("enabled harness summarizes");
        assert_eq!(summary.compiles, 1);
        assert_eq!(summary.sims, 1);
        assert_eq!(summary.sim_cycles, 12345);
        assert_eq!(summary.cache_hits, 5);
        assert_eq!((summary.profiles_run, summary.profiles_reused), (1, 6));
        assert!((summary.cache_hit_pct() - 100.0 * 5.0 / 7.0).abs() < 1e-9);

        let text = std::fs::read_to_string(&path).expect("harness.jsonl written");
        let lines: Vec<&str> = text.lines().collect();
        assert!(
            lines.iter().all(|l| l.starts_with("{\"harness_v\":1,")),
            "every line is version-tagged: {lines:#?}"
        );
        for ev in [
            "\"ev\":\"plan\"",
            "\"ev\":\"compile_start\"",
            "\"ev\":\"compile_finish\"",
            "\"ev\":\"sim_finish\"",
            "\"ev\":\"snapshot\"",
            "\"ev\":\"fingerprint\"",
            "\"ev\":\"compile_cache\"",
            "\"ev\":\"request_start\"",
            "\"ev\":\"request_finish\"",
            "\"ev\":\"result_cache\"",
            "\"ev\":\"monitor\"",
            "\"ev\":\"harness_summary\"",
        ] {
            assert!(text.contains(ev), "missing {ev} in:\n{text}");
        }
        // The final sample observed the armed totals.
        assert!(text.contains("\"harness.sims.total\":4"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pool_accounting_feeds_utilization_and_stragglers() {
        let dir = std::env::temp_dir().join(format!(
            "ccr-harness-pool-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let path = dir.join("harness.jsonl");
        let h = Harness::start(&HarnessOptions {
            progress: ProgressMode::Off,
            out: Some(path.clone()),
        })
        .expect("start harness");
        let items: Vec<u64> = vec![30, 1, 2];
        let labels: Vec<String> = items.iter().map(|x| format!("sim:w{x}")).collect();
        let (_, stats) =
            crate::jobs::parallel_map_observed(&items, 2, Some(&labels), h.observer(), |_, x| {
                std::thread::sleep(Duration::from_millis(*x))
            });
        h.pool("sim", &stats);
        let summary = h.finish().expect("summary");
        assert_eq!(summary.workers, 2);
        assert!(summary.utilization_pct > 0.0);
        assert_eq!(summary.stragglers.len(), 3);
        assert_eq!(summary.stragglers[0].0, "sim:w30", "slowest point leads");
        let text = std::fs::read_to_string(&path).expect("written");
        assert!(text.contains("\"ev\":\"pool\""), "{text}");
        assert!(text.contains("\"busy_ns\":"), "{text}");
        // The observer fed the per-worker busy time, so the final
        // sample carries it too.
        assert!(text.contains("pool.worker0.busy_ns"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A harness logging to a fresh file under the temp directory.
    fn logging_harness(tag: &str) -> (Harness, PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "ccr-harness-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let h = Harness::start(&HarnessOptions {
            progress: ProgressMode::Off,
            out: Some(dir.join("harness.jsonl")),
        })
        .expect("start harness");
        (h, dir)
    }

    /// The log's lines so far.
    fn log_lines(dir: &std::path::Path) -> Vec<String> {
        let text = std::fs::read_to_string(dir.join("harness.jsonl")).expect("log exists");
        text.lines().map(str::to_string).collect()
    }

    fn monitor_lines(dir: &std::path::Path) -> Vec<String> {
        log_lines(dir)
            .into_iter()
            .filter(|l| l.contains("\"ev\":\"monitor\""))
            .collect()
    }

    #[test]
    fn each_line_reaches_the_file_before_finish() {
        let (h, dir) = logging_harness("unbuffered");
        h.plan(1, 2, &[]);
        let lines = log_lines(&dir);
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert!(lines[0].contains("\"ev\":\"plan\""), "{lines:?}");
        h.finish();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_idle_harness_samples_only_when_it_finishes() {
        let (h, dir) = logging_harness("idle");
        h.plan(1, 1, &[]);
        std::thread::sleep(SAMPLE_PERIOD + Duration::from_millis(50));
        h.request_start(1, "submit", "fig4");
        assert!(monitor_lines(&dir).is_empty(), "{:?}", log_lines(&dir));
        h.finish().expect("summary");
        let lines = log_lines(&dir);
        let monitors = monitor_lines(&dir);
        assert_eq!(monitors.len(), 1, "{lines:?}");
        assert!(monitors[0].contains("\"seq\":0,\"last\":true"), "{lines:?}");
        // The final sample is followed only by the summary.
        let n = lines.len();
        assert_eq!(lines[n - 2], monitors[0]);
        assert!(lines[n - 1].contains("\"ev\":\"harness_summary\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_burst_of_task_finishes_within_the_period_takes_no_sample() {
        let (h, dir) = logging_harness("burst");
        h.plan(0, 50, &[]);
        for i in 0..50 {
            h.task_start("sim", &format!("sim:{i}"));
            h.task_finish("sim", &format!("sim:{i}"), 0, Some(10));
        }
        assert!(monitor_lines(&dir).is_empty(), "{:?}", log_lines(&dir));
        h.finish().expect("summary");
        let monitors = monitor_lines(&dir);
        assert_eq!(monitors.len(), 1, "only the final sample: {monitors:?}");
        assert!(monitors[0].contains("\"last\":true"));
        assert!(monitors[0].contains("\"harness.tasks.started\":50"));
        assert!(monitors[0].contains("\"harness.queue.depth\":0"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_task_finish_a_period_after_the_last_sample_takes_one() {
        let (h, dir) = logging_harness("periodic");
        h.plan(0, 3, &[]);
        h.task_start("sim", "sim:a");
        h.task_finish("sim", "sim:a", 0, Some(10));
        std::thread::sleep(SAMPLE_PERIOD + Duration::from_millis(10));
        h.task_start("sim", "sim:b");
        h.task_finish("sim", "sim:b", 0, Some(10));
        // The next finish falls inside the new period: no sample.
        h.task_start("sim", "sim:c");
        h.task_finish("sim", "sim:c", 0, Some(10));
        let lines = log_lines(&dir);
        let monitors = monitor_lines(&dir);
        assert_eq!(monitors.len(), 1, "{lines:?}");
        assert!(
            monitors[0].contains("\"seq\":0,\"last\":false"),
            "{lines:?}"
        );
        assert!(monitors[0].contains("\"harness.sims.done\":2"), "{lines:?}");
        let at = lines.iter().position(|l| *l == monitors[0]).unwrap();
        assert!(lines[at - 1].contains("\"label\":\"sim:b\""), "{lines:?}");
        h.finish().expect("summary");
        let monitors = monitor_lines(&dir);
        assert_eq!(monitors.len(), 2);
        assert!(
            monitors[1].contains("\"seq\":1,\"last\":true"),
            "{monitors:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
