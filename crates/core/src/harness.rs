//! Host-side harness observability: a structured `harness.jsonl`
//! event log, live `--progress` rendering, and the monitor thread
//! that drives both.
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
//!   line, every line tagged `{"harness_v":1,"ev":"<kind>",...}`.
//!   Consumers tolerate unknown fields and unknown event kinds, so
//!   new fields are additive (same contract as the PR-6 run store).
//! * **plain progress** (`--progress`): a human line to **stderr** on
//!   each monitor sample — completed points, points/sec, aggregate
//!   simulated Mcycles/sec, worker utilization, ETA.
//! * **json progress** (`--progress=json`): the event stream itself
//!   mirrored to stderr, for tooling that watches a live run.
//!
//! **Bit-identity contract** (extends PRs 1 and 4): the harness only
//! *observes* — it reads clocks, bumps atomics, and writes to stderr
//! and the side-channel file. Monitor on or off, every simulated
//! statistic and every committed artifact (stdout tables, CSVs,
//! `results/`) is byte/bit-identical; `tests/harness_observability.rs`
//! asserts this end to end.

use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ccr_telemetry::{Counter, Gauge, JsonWriter, MetricsRegistry, Monitor, MonitorSample};

use crate::jobs::{PoolObserver, PoolStats};

/// Version tag carried by every `harness.jsonl` line. Bumped only on
/// incompatible changes; adding fields or event kinds is not one.
pub const HARNESS_SCHEMA_VERSION: u32 = 1;

/// How many straggler points the summary keeps.
const STRAGGLER_TOP_K: usize = 5;

/// What `--progress` renders to stderr.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ProgressMode {
    /// No stderr rendering (the default; `--harness-out` may still
    /// record events to a file).
    #[default]
    Off,
    /// One human-readable line per monitor sample.
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
#[derive(Clone, Debug)]
pub struct HarnessOptions {
    /// Stderr rendering mode.
    pub progress: ProgressMode,
    /// Event-log path (`--harness-out`); parent directories are
    /// created on [`Harness::start`].
    pub out: Option<PathBuf>,
    /// Monitor sample period in milliseconds.
    pub period_ms: u64,
}

impl Default for HarnessOptions {
    fn default() -> HarnessOptions {
        HarnessOptions {
            progress: ProgressMode::Off,
            out: None,
            period_ms: 250,
        }
    }
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
    /// Distinct pool workers observed.
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

/// Everything the emitting side shares with the monitor thread.
struct HarnessShared {
    start: Instant,
    progress: ProgressMode,
    registry: Arc<MetricsRegistry>,
    out: Mutex<Option<std::io::BufWriter<std::fs::File>>>,
    compiles_total: Counter,
    compiles_done: Counter,
    sims_total: Counter,
    sims_done: Counter,
    sim_cycles: Counter,
    tasks_started: Counter,
    queue_depth: Gauge,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    profiles_run: AtomicU64,
    profiles_reused: AtomicU64,
    pool: Mutex<PoolStats>,
}

impl HarnessShared {
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
    /// mutex serializes worker threads and the monitor; stderr writes
    /// are single `eprintln!` calls, so lines never interleave.
    fn emit_line(&self, mut w: JsonWriter) {
        w.obj_end();
        let line = w.finish();
        if let Some(file) = self.out.lock().expect("harness out").as_mut() {
            let _ = writeln!(file, "{line}");
        }
        if self.progress == ProgressMode::Json {
            eprintln!("{line}");
        }
    }

    fn on_sample(&self, sample: &MonitorSample) {
        if self.out.lock().expect("harness out").is_some() {
            let mut w = self.line_begin("monitor");
            w.key("seq").u64_val(sample.seq);
            w.key("last").bool_val(sample.last);
            w.key("counters").obj_begin();
            for (name, value) in &sample.snapshot.counters {
                w.key(name).u64_val(*value);
            }
            w.obj_end();
            w.key("gauges").obj_begin();
            for (name, value) in &sample.snapshot.gauges {
                w.key(name).f64_val(*value);
            }
            w.obj_end();
            // emit_line also mirrors to stderr under Json progress.
            self.emit_line(w);
        } else if self.progress == ProgressMode::Json {
            let mut w = self.line_begin("monitor");
            w.key("seq").u64_val(sample.seq);
            w.key("last").bool_val(sample.last);
            self.emit_line(w);
        }
        if self.progress == ProgressMode::Plain {
            eprintln!("{}", self.progress_line(sample));
        }
    }

    /// The plain `--progress` line: completed points, rates,
    /// utilization, ETA — all from the sampled counters.
    fn progress_line(&self, sample: &MonitorSample) -> String {
        let snap = &sample.snapshot;
        let elapsed_s = (sample.elapsed_ms as f64 / 1000.0).max(1e-3);
        let compiles_done = snap.counter("harness.compiles.done");
        let compiles_total = snap.counter("harness.compiles.total");
        let sims_done = snap.counter("harness.sims.done");
        let sims_total = snap.counter("harness.sims.total");
        let done = compiles_done + sims_done;
        let total = compiles_total + sims_total;
        let pct = if total == 0 {
            0.0
        } else {
            100.0 * done as f64 / total as f64
        };
        let cycles = snap.counter("harness.sim.cycles");
        let busy_ns: u64 = snap
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("pool.worker") && k.ends_with(".busy_ns"))
            .map(|(_, v)| *v)
            .sum();
        let workers = snap
            .counters
            .keys()
            .filter(|k| k.starts_with("pool.worker") && k.ends_with(".busy_ns"))
            .count();
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
            workers: pool.workers.len(),
            compiles: self.compiles_done.get(),
            sims: self.sims_done.get(),
            sim_cycles: self.sim_cycles.get(),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            profiles_run: self.profiles_run.load(Ordering::Relaxed),
            profiles_reused: self.profiles_reused.load(Ordering::Relaxed),
            stragglers: pool
                .stragglers(STRAGGLER_TOP_K)
                .into_iter()
                .map(|t| (t.label.clone(), t.wall_ns / 1_000_000))
                .collect(),
        }
    }
}

/// The harness observability hub: hands out the [`PoolObserver`],
/// receives the per-task events from the executors, and owns the
/// monitor thread plus the `harness.jsonl` writer.
///
/// A disabled harness ([`Harness::disabled`]) is a guaranteed no-op:
/// every method early-returns, so instrumented code paths pay one
/// `Option` check when observability is off.
pub struct Harness {
    shared: Option<Arc<HarnessShared>>,
    monitor: Mutex<Option<Monitor>>,
}

impl Harness {
    /// A no-op harness: nothing is recorded, nothing is rendered.
    pub fn disabled() -> Harness {
        Harness {
            shared: None,
            monitor: Mutex::new(None),
        }
    }

    /// Opens the configured sinks and spawns the monitor thread. With
    /// no sink enabled this returns [`Harness::disabled`].
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
                Some(std::io::BufWriter::new(std::fs::File::create(path)?))
            }
        };
        let registry = Arc::new(MetricsRegistry::new());
        let shared = Arc::new(HarnessShared {
            start: Instant::now(),
            progress: opts.progress,
            registry: Arc::clone(&registry),
            out: Mutex::new(out),
            compiles_total: registry.counter("harness.compiles.total"),
            compiles_done: registry.counter("harness.compiles.done"),
            sims_total: registry.counter("harness.sims.total"),
            sims_done: registry.counter("harness.sims.done"),
            sim_cycles: registry.counter("harness.sim.cycles"),
            tasks_started: registry.counter("harness.tasks.started"),
            queue_depth: registry.gauge("harness.queue.depth"),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            profiles_run: AtomicU64::new(0),
            profiles_reused: AtomicU64::new(0),
            pool: Mutex::new(PoolStats::default()),
        });
        let sampler = Arc::clone(&shared);
        let monitor = Monitor::spawn(
            registry,
            Duration::from_millis(opts.period_ms.max(1)),
            move |s| sampler.on_sample(s),
        );
        Ok(Harness {
            shared: Some(shared),
            monitor: Mutex::new(Some(monitor)),
        })
    }

    /// True when some sink is recording.
    pub fn enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// The pool observer to pass to
    /// [`crate::jobs::parallel_map_observed`] (`None` when disabled).
    pub fn observer(&self) -> Option<&dyn PoolObserver> {
        self.shared.as_ref().map(|_| self as &dyn PoolObserver)
    }

    /// Records what the planner decided and arms the progress totals:
    /// `compiles` prep tasks (compiles + potential studies) and `sims`
    /// simulations, plus free-form accounting fields for the `plan`
    /// event.
    pub fn plan(&self, compiles: u64, sims: u64, detail: &[(&str, u64)]) {
        let Some(shared) = &self.shared else { return };
        shared.compiles_total.add(compiles);
        shared.sims_total.add(sims);
        let mut w = shared.line_begin("plan");
        w.key("compiles").u64_val(compiles);
        w.key("sims").u64_val(sims);
        for (name, value) in detail {
            w.key(name).u64_val(*value);
        }
        shared.emit_line(w);
    }

    /// A labeled task began. `phase` is `compile`, `potential`, `sim`,
    /// or `profile`; the label carries the point identity
    /// (workload × config-hash × phase).
    pub fn task_start(&self, phase: &str, label: &str) {
        let Some(shared) = &self.shared else { return };
        let mut w = shared.line_begin(&format!("{phase}_start"));
        w.key("label").str_val(label);
        shared.emit_line(w);
    }

    /// A labeled task finished after `wall_ms`; simulations also
    /// report their simulated `cycles` (which feeds the aggregate
    /// Mcycles/sec rate in `--progress`).
    pub fn task_finish(&self, phase: &str, label: &str, wall_ms: u64, cycles: Option<u64>) {
        let Some(shared) = &self.shared else { return };
        if phase == "sim" {
            shared.sims_done.inc();
        } else {
            shared.compiles_done.inc();
        }
        if let Some(cycles) = cycles {
            shared.sim_cycles.add(cycles);
        }
        let mut w = shared.line_begin(&format!("{phase}_finish"));
        w.key("label").str_val(label);
        w.key("wall_ms").u64_val(wall_ms);
        if let Some(cycles) = cycles {
            w.key("cycles").u64_val(cycles);
        }
        shared.emit_line(w);
    }

    /// Records a simulation-state snapshot crossing the host boundary:
    /// `action` is `save` or `restore`, `cycle` the simulated cycle
    /// the snapshot captures, `path` where it lives. Additive under
    /// `harness_v: 1` like every event kind.
    pub fn snapshot(&self, action: &str, workload: &str, cycle: u64, path: &str) {
        let Some(shared) = &self.shared else { return };
        let mut w = shared.line_begin("snapshot");
        w.key("action").str_val(action);
        w.key("workload").str_val(workload);
        w.key("cycle").u64_val(cycle);
        w.key("path").str_val(path);
        shared.emit_line(w);
    }

    /// Records a completed determinism fingerprint: the final chain
    /// `hash` (16-digit hex) over `cycles` simulated cycles, with
    /// `windows` sealed window digests behind it.
    pub fn fingerprint(&self, workload: &str, windows: u64, cycles: u64, hash: &str) {
        let Some(shared) = &self.shared else { return };
        let mut w = shared.line_begin("fingerprint");
        w.key("workload").str_val(workload);
        w.key("windows").u64_val(windows);
        w.key("cycles").u64_val(cycles);
        w.key("hash").str_val(hash);
        shared.emit_line(w);
    }

    /// Records the compile-cache hit/miss counters (cumulative for the
    /// run) and emits a `compile_cache` event.
    pub fn compile_cache(&self, hits: u64, misses: u64) {
        let Some(shared) = &self.shared else { return };
        shared.cache_hits.store(hits, Ordering::Relaxed);
        shared.cache_misses.store(misses, Ordering::Relaxed);
        let mut w = shared.line_begin("compile_cache");
        w.key("hits").u64_val(hits);
        w.key("misses").u64_val(misses);
        shared.emit_line(w);
    }

    /// Emits a `sim_groups` event: the functional runs (emulations) a
    /// plan's simulation phase executed for its `sims` simulation
    /// units, each run feeding one pipeline per machine of its group.
    pub fn sim_groups(&self, functional_runs: u64, sims: u64) {
        let Some(shared) = &self.shared else { return };
        let mut w = shared.line_begin("sim_groups");
        w.key("functional_runs").u64_val(functional_runs);
        w.key("sims").u64_val(sims);
        shared.emit_line(w);
    }

    /// Records the value-profile counters of the compile cache's first
    /// stage (cumulative for the run) for the `harness_summary` event.
    pub fn value_profiles(&self, run: u64, reused: u64) {
        let Some(shared) = &self.shared else { return };
        shared.profiles_run.store(run, Ordering::Relaxed);
        shared.profiles_reused.store(reused, Ordering::Relaxed);
    }

    /// Records a service request entering execution: its session-local
    /// `id`, the protocol `op` (`submit`), and a free-form `detail`
    /// (experiment name or workload spec). Emit-only — requests are
    /// tracked per-session, not against the run's task totals.
    pub fn request_start(&self, id: u64, op: &str, detail: &str) {
        let Some(shared) = &self.shared else { return };
        let mut w = shared.line_begin("request_start");
        w.key("id").u64_val(id);
        w.key("op").str_val(op);
        w.key("detail").str_val(detail);
        shared.emit_line(w);
    }

    /// Records a service request completing: `status` is `done` or
    /// `error`, `wall_ms` the host time from dequeue to completion,
    /// `points` the simulation points the request asked for (before
    /// cross-request dedup). Emit-only, like [`Harness::request_start`].
    pub fn request_finish(&self, id: u64, status: &str, wall_ms: u64, points: u64) {
        let Some(shared) = &self.shared else { return };
        let mut w = shared.line_begin("request_finish");
        w.key("id").u64_val(id);
        w.key("status").str_val(status);
        w.key("wall_ms").u64_val(wall_ms);
        w.key("points").u64_val(points);
        shared.emit_line(w);
    }

    /// Records the engine's simulation-result-cache counters
    /// (cumulative for the engine's lifetime) as a `result_cache`
    /// event. Emit-only: unlike [`Harness::compile_cache`] these do
    /// not feed the run summary, since a long-lived engine outlives
    /// any one harness session.
    pub fn result_cache(&self, hits: u64, misses: u64, evictions: u64) {
        let Some(shared) = &self.shared else { return };
        let mut w = shared.line_begin("result_cache");
        w.key("hits").u64_val(hits);
        w.key("misses").u64_val(misses);
        w.key("evictions").u64_val(evictions);
        shared.emit_line(w);
    }

    /// Folds one observed map's [`PoolStats`] into the run accounting
    /// and emits a `pool` event with the per-worker busy/idle split.
    pub fn pool(&self, phase: &str, stats: &PoolStats) {
        let Some(shared) = &self.shared else { return };
        let mut w = shared.line_begin("pool");
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
        shared.emit_line(w);
        shared.pool.lock().expect("pool stats").merge(stats);
    }

    /// Stops the monitor (delivering its final sample), emits the
    /// `harness_summary` event, flushes the file, and returns the
    /// summary — `None` when disabled.
    pub fn finish(&self) -> Option<HarnessSummary> {
        if let Some(monitor) = self.monitor.lock().expect("monitor").take() {
            monitor.stop();
        }
        let shared = self.shared.as_ref()?;
        let summary = shared.summary();
        let mut w = shared.line_begin("harness_summary");
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
        shared.emit_line(w);
        if let Some(file) = shared.out.lock().expect("harness out").as_mut() {
            let _ = file.flush();
        }
        Some(summary)
    }
}

impl PoolObserver for Harness {
    fn task_started(&self, _worker: usize, _index: usize, _label: &str) {
        let Some(shared) = &self.shared else { return };
        shared.tasks_started.inc();
        let total = shared.compiles_total.get() + shared.sims_total.get();
        let pending = total.saturating_sub(shared.tasks_started.get());
        shared.queue_depth.set(pending as f64);
    }

    fn task_finished(&self, worker: usize, _index: usize, _label: &str, wall_ns: u64) {
        let Some(shared) = &self.shared else { return };
        shared
            .registry
            .counter(&format!("pool.worker{worker}.busy_ns"))
            .add(wall_ns);
        shared.registry.counter("pool.tasks.done").inc();
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        // A dropped-but-unfinished harness still stops its monitor
        // (Monitor's own Drop joins); the summary event is only
        // emitted by an explicit `finish`.
        if let Ok(mut monitor) = self.monitor.lock() {
            monitor.take();
        }
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
            period_ms: 10_000, // only the final monitor sample fires
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
        // The monitor's final sample observed the armed totals.
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
            period_ms: 10_000,
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
        // The observer fed per-worker counters into the registry, so
        // the monitor's final sample carries them too.
        assert!(text.contains("pool.worker0.busy_ns"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
