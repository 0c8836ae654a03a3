//! A dependency-free scoped-thread job pool for the evaluation
//! harness.
//!
//! The paper's evaluation sweeps 13 benchmarks × many CRB
//! configurations; every simulation is independent, so the suite
//! parallelizes embarrassingly well. This module provides the one
//! primitive the harness needs — an order-preserving parallel map —
//! built on `std::thread::scope`, so the workspace stays free of
//! external dependencies (matching the vendored-shim policy).
//!
//! Parallelism is strictly a *host* concern: each work item runs the
//! exact same deterministic simulation it would run serially, and
//! results are collected back in input order, so every simulated
//! statistic is bit-identical regardless of the job count. Only wall
//! clock changes.
//!
//! The pool is also the harness's *observability* boundary:
//! [`parallel_map_observed`] accounts every worker's busy/idle
//! nanoseconds and every task's wall time under a caller-supplied
//! stable label (workload × config-hash × phase), returning them as a
//! [`PoolStats`] summary, and streams start/finish callbacks to an
//! optional [`PoolObserver`] so the harness can render live
//! progress. Observation is passive — it reads clocks and bumps
//! counters around `f`, never inside it — so observed and unobserved
//! maps produce identical results.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Instant;

/// Environment variable consulted by [`resolve_jobs`] when no
/// explicit `--jobs` value was given.
pub const JOBS_ENV: &str = "CCR_JOBS";

/// Resolves a worker count from an explicit request (a `--jobs` flag)
/// falling back to the `CCR_JOBS` environment variable, then to `1`
/// (serial). A value of `0` means "auto": one worker per available
/// hardware thread.
pub fn resolve_jobs(requested: Option<usize>) -> usize {
    let raw = requested.or_else(|| {
        std::env::var(JOBS_ENV)
            .ok()
            .and_then(|v| v.trim().parse().ok())
    });
    match raw {
        None => 1,
        Some(0) => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        Some(n) => n,
    }
}

/// Live callbacks from pool workers, invoked on the worker thread
/// around each task. Implementations must be cheap and lock-light —
/// they run between simulations, not inside them, but a slow observer
/// still serializes the pool.
pub trait PoolObserver: Sync {
    /// A worker picked up item `index` (label per the caller's
    /// labeling, `task<index>` when unlabeled).
    fn task_started(&self, worker: usize, index: usize, label: &str) {
        let _ = (worker, index, label);
    }

    /// A worker finished item `index` after `wall_ns` nanoseconds.
    fn task_finished(&self, worker: usize, index: usize, label: &str, wall_ns: u64) {
        let _ = (worker, index, label, wall_ns);
    }
}

/// One worker's accounting for one [`parallel_map_observed`] call.
#[derive(Clone, Debug)]
pub struct WorkerStats {
    /// Worker index, `0..jobs`.
    pub worker: usize,
    /// Nanoseconds spent inside `f`.
    pub busy_ns: u64,
    /// Nanoseconds spent waiting for work (including the tail wait
    /// after the queue drained). `busy_ns + idle_ns == wall_ns`.
    pub idle_ns: u64,
    /// Nanoseconds the worker existed.
    pub wall_ns: u64,
    /// Tasks this worker completed.
    pub tasks: u64,
}

/// One task's accounting: which worker ran it, for how long, under
/// what label.
#[derive(Clone, Debug)]
pub struct TaskStats {
    /// Item index in the input slice.
    pub index: usize,
    /// Worker that ran it.
    pub worker: usize,
    /// The caller's stable label (`task<index>` when unlabeled).
    pub label: String,
    /// Wall time of the `f` call, nanoseconds.
    pub wall_ns: u64,
}

/// The per-pool summary [`parallel_map_observed`] returns: worker
/// utilization and the per-task critical path.
#[derive(Clone, Debug, Default)]
pub struct PoolStats {
    /// Workers the pool actually ran (≤ requested jobs).
    pub jobs: usize,
    /// Wall time of the whole map, nanoseconds.
    pub wall_ns: u64,
    /// Per-worker accounting, by worker index.
    pub workers: Vec<WorkerStats>,
    /// Per-task accounting, in item order.
    pub tasks: Vec<TaskStats>,
}

impl PoolStats {
    /// Total nanoseconds workers spent inside `f`.
    pub fn total_busy_ns(&self) -> u64 {
        self.workers.iter().map(|w| w.busy_ns).sum()
    }

    /// Fraction of worker lifetime spent busy, `0.0..=1.0` (0.0 for an
    /// empty pool). This is the number a straggler drags down: one
    /// long task at the end of the queue idles every other worker.
    pub fn utilization(&self) -> f64 {
        let wall: u64 = self.workers.iter().map(|w| w.wall_ns).sum();
        if wall == 0 {
            0.0
        } else {
            self.total_busy_ns() as f64 / wall as f64
        }
    }

    /// The `k` longest tasks, descending by wall time (ties broken by
    /// item index, so the ranking is deterministic). These are the
    /// sweep's critical path: scheduling cannot beat the longest task.
    pub fn stragglers(&self, k: usize) -> Vec<&TaskStats> {
        let mut ranked: Vec<&TaskStats> = self.tasks.iter().collect();
        ranked.sort_by(|a, b| b.wall_ns.cmp(&a.wall_ns).then(a.index.cmp(&b.index)));
        ranked.truncate(k);
        ranked
    }

    /// Folds another pool's accounting into this one. Used by the
    /// harness to summarize a run that maps more than once (compiles,
    /// then sims). `jobs` becomes the run's distinct workers — the
    /// most any one map ran, where a map that ran no task adds none;
    /// worker and task lists concatenate, so utilization weighs every
    /// map's workers.
    pub fn merge(&mut self, other: &PoolStats) {
        if !other.tasks.is_empty() {
            self.jobs = self.jobs.max(other.jobs);
        }
        self.wall_ns += other.wall_ns;
        self.workers.extend(other.workers.iter().cloned());
        self.tasks.extend(other.tasks.iter().cloned());
    }
}

/// First panic captured while draining: item index plus rendered
/// payload. The *lowest* item index wins so the report is
/// deterministic under racing panics.
#[derive(Default)]
struct PanicSlot(Mutex<Option<(usize, String)>>);

impl PanicSlot {
    fn record(&self, index: usize, payload: Box<dyn std::any::Any + Send>) {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        let mut slot = self.0.lock().expect("panic slot");
        match &*slot {
            Some((prev, _)) if *prev <= index => {}
            _ => *slot = Some((index, msg)),
        }
    }

    fn take(&self) -> Option<(usize, String)> {
        self.0.lock().expect("panic slot").take()
    }
}

fn label_of(labels: Option<&[String]>, index: usize) -> String {
    match labels {
        Some(labels) => labels[index].clone(),
        None => format!("task{index}"),
    }
}

/// Maps `f` over `items` on up to `jobs` scoped worker threads,
/// returning results in input order.
///
/// `f` receives `(index, &item)`. With `jobs <= 1` (or one item) the
/// map runs serially on the calling thread — the parallel and serial
/// paths call `f` with identical arguments, so a deterministic `f`
/// yields identical results either way. Workers pull items from a
/// shared counter (work stealing), so uneven item costs balance
/// across threads.
///
/// # Panics
///
/// If `f` panics, the remaining items are still drained (every
/// worker finishes its queue), then the panic is re-raised tagged
/// with the failing item's label and index — one bad (workload,
/// config) point names itself instead of surfacing as a bare join
/// error.
pub fn parallel_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    parallel_map_observed(items, jobs, None, None, f).0
}

/// [`parallel_map`] with accounting: `labels` names each item (for
/// task stats, panic reports, and observer callbacks; `task<index>`
/// when `None`), `observer` receives live start/finish callbacks, and
/// the returned [`PoolStats`] summarizes worker busy/idle time and
/// per-task wall time.
///
/// # Panics
///
/// As [`parallel_map`]: drains, then re-raises the first (lowest
/// item index) panic tagged with its label. Panics immediately if
/// `labels` is given with the wrong length.
pub fn parallel_map_observed<T, R, F>(
    items: &[T],
    jobs: usize,
    labels: Option<&[String]>,
    observer: Option<&dyn PoolObserver>,
    f: F,
) -> (Vec<R>, PoolStats)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if let Some(labels) = labels {
        assert_eq!(labels.len(), items.len(), "one label per item");
    }
    let n = items.len();
    let pool_start = Instant::now();
    let panicked = PanicSlot::default();
    let task_log: Mutex<Vec<TaskStats>> = Mutex::new(Vec::with_capacity(n));
    let worker_log: Mutex<Vec<WorkerStats>> = Mutex::new(Vec::new());

    // One worker's drain loop, shared verbatim by the serial path
    // (worker 0 on the calling thread) and every spawned thread, so
    // accounting and panic semantics cannot diverge between them.
    let run_worker = |worker: usize, take: &dyn Fn() -> usize, emit: &dyn Fn(usize, R)| {
        let thread_start = Instant::now();
        let mut busy_ns = 0u64;
        let mut tasks = 0u64;
        loop {
            let i = take();
            if i >= n {
                break;
            }
            let label = label_of(labels, i);
            if let Some(obs) = observer {
                obs.task_started(worker, i, &label);
            }
            let task_start = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| f(i, &items[i])));
            let wall_ns = task_start.elapsed().as_nanos() as u64;
            busy_ns += wall_ns;
            tasks += 1;
            if let Some(obs) = observer {
                obs.task_finished(worker, i, &label, wall_ns);
            }
            task_log.lock().expect("task log").push(TaskStats {
                index: i,
                worker,
                label,
                wall_ns,
            });
            match result {
                Ok(r) => emit(i, r),
                Err(payload) => panicked.record(i, payload),
            }
        }
        let wall_ns = thread_start.elapsed().as_nanos() as u64;
        worker_log.lock().expect("worker log").push(WorkerStats {
            worker,
            busy_ns,
            idle_ns: wall_ns.saturating_sub(busy_ns),
            wall_ns,
            tasks,
        });
    };

    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    if jobs <= 1 || n <= 1 {
        let next = AtomicUsize::new(0);
        let slots_cell = Mutex::new(&mut slots);
        run_worker(0, &|| next.fetch_add(1, Ordering::Relaxed), &|i, r| {
            slots_cell.lock().expect("slots")[i] = Some(r);
        });
    } else {
        let workers = jobs.min(n);
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, R)>();
        std::thread::scope(|scope| {
            for w in 0..workers {
                let tx = tx.clone();
                let next = &next;
                let run_worker = &run_worker;
                scope.spawn(move || {
                    run_worker(w, &|| next.fetch_add(1, Ordering::Relaxed), &|i, r| {
                        let _ = tx.send((i, r));
                    });
                });
            }
            drop(tx);
            // Collect out-of-order arrivals into their input-order
            // slots.
            for (i, r) in rx {
                slots[i] = Some(r);
            }
        });
    }

    if let Some((index, msg)) = panicked.take() {
        panic!(
            "job `{}` (item {} of {n}) panicked: {msg}",
            label_of(labels, index),
            index + 1,
        );
    }

    let mut workers = worker_log.into_inner().expect("worker log");
    workers.sort_by_key(|w| w.worker);
    let mut tasks = task_log.into_inner().expect("task log");
    tasks.sort_by_key(|t| t.index);
    let stats = PoolStats {
        jobs: workers.len(),
        wall_ns: pool_start.elapsed().as_nanos() as u64,
        workers,
        tasks,
    };
    let results = slots
        .into_iter()
        .map(|s| s.expect("every item produced a result"))
        .collect();
    (results, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree_in_order() {
        let items: Vec<u64> = (0..100).collect();
        let square = |_i: usize, x: &u64| x * x;
        let serial = parallel_map(&items, 1, square);
        for jobs in [2, 4, 16, 128] {
            assert_eq!(parallel_map(&items, jobs, square), serial, "jobs={jobs}");
        }
        assert_eq!(serial[7], 49);
    }

    #[test]
    fn empty_and_single_item_inputs() {
        let none: Vec<u32> = Vec::new();
        assert!(parallel_map(&none, 8, |_, x| *x).is_empty());
        assert_eq!(parallel_map(&[42u32], 8, |i, x| (i, *x)), vec![(0, 42)]);
    }

    #[test]
    fn indexes_match_items() {
        let items: Vec<usize> = (0..57).collect();
        let got = parallel_map(&items, 5, |i, x| {
            assert_eq!(i, *x);
            i
        });
        assert_eq!(got, items);
    }

    #[test]
    fn resolve_jobs_defaults_and_auto() {
        // Explicit values win; 0 means auto (at least one worker).
        assert_eq!(resolve_jobs(Some(3)), 3);
        assert!(resolve_jobs(Some(0)) >= 1);
    }

    fn check_accounting(stats: &PoolStats, items: usize) {
        assert_eq!(stats.tasks.len(), items);
        let tasks_run: u64 = stats.workers.iter().map(|w| w.tasks).sum();
        assert_eq!(tasks_run as usize, items);
        for w in &stats.workers {
            assert_eq!(
                w.busy_ns + w.idle_ns,
                w.wall_ns,
                "worker {}: busy+idle must sum to wall",
                w.worker
            );
        }
        let busy_from_tasks: u64 = stats.tasks.iter().map(|t| t.wall_ns).sum();
        assert_eq!(stats.total_busy_ns(), busy_from_tasks);
        if items > 0 {
            let u = stats.utilization();
            assert!(u > 0.0 && u <= 1.0, "utilization {u}");
        }
    }

    #[test]
    fn pool_stats_busy_plus_idle_sums_to_wall_per_worker() {
        let items: Vec<u64> = (0..40).collect();
        for jobs in [1usize, 4] {
            let (out, stats) = parallel_map_observed(&items, jobs, None, None, |_, x| {
                // Non-trivial busy time so the accounting is visible.
                std::thread::sleep(std::time::Duration::from_micros(200 + x * 10));
                x * 2
            });
            assert_eq!(out.len(), 40);
            assert_eq!(stats.jobs, jobs);
            assert_eq!(stats.workers.len(), jobs);
            check_accounting(&stats, 40);
        }
    }

    #[test]
    fn task_stats_carry_labels_and_stragglers_rank_by_wall() {
        let items: Vec<u64> = vec![1, 50, 2, 3];
        let labels: Vec<String> = items.iter().map(|x| format!("sim:w{x}:ccr")).collect();
        let (_, stats) = parallel_map_observed(&items, 2, Some(&labels), None, |_, x| {
            std::thread::sleep(std::time::Duration::from_micros(*x * 100));
        });
        assert_eq!(stats.tasks[1].label, "sim:w50:ccr");
        assert_eq!(stats.tasks[1].index, 1, "tasks come back in item order");
        let top = stats.stragglers(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].label, "sim:w50:ccr", "slowest task leads");
        assert!(top[0].wall_ns >= top[1].wall_ns);
        // Unlabeled maps synthesize stable labels.
        let (_, stats) = parallel_map_observed(&items, 1, None, None, |_, _| ());
        assert_eq!(stats.tasks[3].label, "task3");
    }

    #[test]
    fn observer_sees_every_task_on_its_worker() {
        use std::sync::atomic::AtomicU64;
        #[derive(Default)]
        struct Spy {
            started: AtomicU64,
            finished: AtomicU64,
            bad: AtomicU64,
        }
        impl PoolObserver for Spy {
            fn task_started(&self, worker: usize, _index: usize, _label: &str) {
                self.started.fetch_add(1, Ordering::Relaxed);
                if worker >= 3 {
                    self.bad.fetch_add(1, Ordering::Relaxed);
                }
            }
            fn task_finished(&self, _worker: usize, index: usize, label: &str, _wall_ns: u64) {
                self.finished.fetch_add(1, Ordering::Relaxed);
                if label != format!("task{index}") {
                    self.bad.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let spy = Spy::default();
        let items: Vec<u32> = (0..25).collect();
        let (out, _) = parallel_map_observed(&items, 3, None, Some(&spy), |_, x| x + 1);
        assert_eq!(out[24], 25);
        assert_eq!(spy.started.load(Ordering::Relaxed), 25);
        assert_eq!(spy.finished.load(Ordering::Relaxed), 25);
        assert_eq!(spy.bad.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn merged_pools_concatenate_accounting() {
        let items: Vec<u64> = (0..6).collect();
        let (_, mut a) = parallel_map_observed(&items, 2, None, None, |_, _| ());
        let (_, b) = parallel_map_observed(&items, 3, None, None, |_, _| ());
        let wall = a.wall_ns + b.wall_ns;
        a.merge(&b);
        assert_eq!(a.jobs, 3);
        assert_eq!(a.tasks.len(), 12);
        assert_eq!(a.workers.len(), 5);
        assert_eq!(a.wall_ns, wall);
        // An empty map runs one worker but adds none to the count.
        let (_, mut c) = parallel_map_observed(&items, 1, None, None, |_, _| ());
        let (_, empty) = parallel_map_observed(&[] as &[u64], 4, None, None, |_, _| ());
        assert_eq!(empty.jobs, 1);
        c.merge(&empty);
        assert_eq!(c.jobs, 1);
        let mut none = PoolStats::default();
        none.merge(&empty);
        assert_eq!(none.jobs, 0);
    }

    #[test]
    fn panic_is_tagged_with_its_label_and_the_queue_drains() {
        use std::sync::atomic::AtomicUsize;
        let completed = AtomicUsize::new(0);
        let items: Vec<u32> = (0..20).collect();
        let labels: Vec<String> = (0..20).map(|i| format!("sim:wl{i}:cfg:ccr")).collect();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            parallel_map_observed(&items, 4, Some(&labels), None, |_, x| {
                if *x == 3 {
                    panic!("simulated point failure");
                }
                completed.fetch_add(1, Ordering::Relaxed);
            })
        }))
        .expect_err("the map must propagate the panic");
        let msg = caught
            .downcast_ref::<String>()
            .cloned()
            .expect("string panic message");
        assert!(msg.contains("sim:wl3:cfg:ccr"), "label in message: {msg}");
        assert!(msg.contains("item 4 of 20"), "position in message: {msg}");
        assert!(msg.contains("simulated point failure"), "cause: {msg}");
        assert_eq!(
            completed.load(Ordering::Relaxed),
            19,
            "every other task drained before the panic propagated"
        );
    }

    #[test]
    fn earliest_panicking_item_wins_the_report() {
        let items: Vec<u32> = (0..10).collect();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            parallel_map(&items, 2, |_, x| {
                if *x % 2 == 1 {
                    panic!("boom {x}");
                }
            })
        }))
        .expect_err("must propagate");
        let msg = caught.downcast_ref::<String>().cloned().unwrap();
        assert!(msg.contains("`task1`"), "lowest index reported: {msg}");
        assert!(msg.contains("boom 1"), "{msg}");
    }
}
