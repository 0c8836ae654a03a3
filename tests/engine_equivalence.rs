//! Execution-engine contracts.
//!
//! The engine layer (`ccr_bench::Engine`) exists so `ccr serve` can
//! keep one job pool, compile cache, and sim-result cache alive
//! across requests. Three things are pinned here:
//!
//! 1. **Bit-identity**: routing a plan through a fresh engine — every
//!    cache lookup a cold miss — produces exactly the same rendered
//!    tables and per-point statistics as the historical uncached
//!    path. Caching may only change *when* work runs, never what it
//!    computes.
//! 2. **Deterministic dedup**: two concurrent overlapping sweeps
//!    through one shared engine compile and simulate each shared
//!    point exactly once, with *pinned* hit/miss totals — the
//!    single-flight discipline makes the counters deterministic, not
//!    merely bounded.
//! 3. **Cache mechanics**: LRU eviction order, the capacity-0
//!    degenerate case, error non-caching, the eviction exemption of
//!    reuse-potential entries, and recovery from a panicking
//!    computation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use ccr::profile::RunOutcome;
use ccr::regions::RegionConfig;
use ccr::sim::{CrbConfig, MachineConfig, SimOutcome, SimStats};
use ccr::workloads::InputSet;
use ccr_bench::{exp, CachedSim, Engine, SimResultCache};

static TINY_WORKLOADS: [&str; 2] = ["bitcount", "lex"];

fn tiny_render(res: &exp::SpecResults<'_>) -> exp::Rendered {
    let mut text = String::new();
    for (i, _) in TINY_WORKLOADS.iter().enumerate() {
        let run = &res.runs(0)[i];
        text.push_str(&format!(
            "{} {} {} {:.6}\n",
            TINY_WORKLOADS[i],
            run.measurement.base.stats.cycles,
            run.measurement.ccr.stats.cycles,
            run.measurement.speedup()
        ));
    }
    exp::Rendered {
        text,
        tables: Vec::new(),
    }
}

fn paper_scenario() -> exp::Scenario {
    exp::Scenario::new(
        "paper",
        InputSet::Train,
        &RegionConfig::paper(),
        &MachineConfig::paper(),
        CrbConfig::paper(),
    )
}

fn tiny_spec(name: &'static str) -> exp::ExperimentSpec {
    exp::ExperimentSpec {
        name,
        output: name,
        title: "engine equivalence test spec",
        workloads: &TINY_WORKLOADS,
        scenarios: vec![paper_scenario()],
        potential: true,
        render: tiny_render,
    }
}

/// The simulated fields of a point summary — everything except host
/// wall time, which legitimately differs across runs.
fn sim_view(points: &[ccr_analyze::RunRecord]) -> Vec<String> {
    points
        .iter()
        .map(|p| {
            format!(
                "{} {} {} {} {} {} {:.12} {:.12} {:?} {}",
                p.workload,
                p.input,
                p.scale,
                p.config_hash,
                p.base_cycles,
                p.ccr_cycles,
                p.speedup,
                p.hit_rate,
                p.miss_causes,
                p.regions
            )
        })
        .collect()
}

#[test]
fn engine_path_is_bit_identical_to_the_uncached_path() {
    let spec = tiny_spec("tiny_engine");
    let plan = exp::plan(&[&spec]);

    // Capacity 0 retains no result: every simulation runs cold.
    let plain = Engine::with_capacity(2, 0)
        .execute_plan(&plan, &ccr::Harness::disabled(), None, None)
        .expect("tiny workloads run within limits");
    let engine = Engine::new(2);
    let routed = engine
        .execute_plan(&plan, &ccr::Harness::disabled(), None, None)
        .expect("engine run succeeds");

    assert_eq!(
        plain.results(&spec).render().text,
        routed.results(&spec).render().text,
        "the engine must not change a single rendered byte"
    );
    assert_eq!(sim_view(&plain.records()), sim_view(&routed.records()),);
    // A fresh engine serves nothing from its result cache: every
    // lookup is a cold miss (2 workloads x 2 sims + 2 potentials).
    assert_eq!(engine.result_cache().hits(), 0);
    assert_eq!(engine.result_cache().misses(), 6);
    assert_eq!(engine.result_cache().evictions(), 0);
}

#[test]
fn repeated_plan_is_served_entirely_from_the_caches() {
    let spec = tiny_spec("tiny_repeat");
    let plan = exp::plan(&[&spec]);
    let engine = Engine::new(2);
    let harness = ccr::Harness::disabled();

    let first = engine.execute_plan(&plan, &harness, None, None).unwrap();
    let again = engine.execute_plan(&plan, &harness, None, None).unwrap();
    assert_eq!(
        first.results(&spec).render().text,
        again.results(&spec).render().text,
        "a cache hit must reproduce the original result exactly"
    );
    // Second pass: 2 compiles, 4 sims, 2 potentials — all hits.
    assert_eq!(engine.compile_cache().hits(), 2);
    assert_eq!(engine.compile_cache().misses(), 2);
    assert_eq!(engine.result_cache().hits(), 6);
    assert_eq!(engine.result_cache().misses(), 6);
}

#[test]
fn concurrent_overlapping_sweeps_dedup_with_pinned_counts() {
    let engine = Engine::new(2);
    // Two clients sweep the same two-workload selection concurrently
    // through one shared engine. Single-flight pins the totals: each
    // of the 2 compiles and 4 sims runs exactly once, and the client
    // that lost the race counts a hit — whichever client that is.
    let runs: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let engine = &engine;
                scope.spawn(move || {
                    engine.run_selected(
                        &TINY_WORKLOADS,
                        &paper_scenario(),
                        &ccr::Harness::disabled(),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread").expect("sweep succeeds"))
            .collect()
    });
    assert_eq!(engine.compile_cache().hits(), 2);
    assert_eq!(engine.compile_cache().misses(), 2);
    assert_eq!(engine.result_cache().hits(), 4);
    assert_eq!(engine.result_cache().misses(), 4);
    // Both clients observe identical simulated statistics.
    for (a, b) in runs[0].iter().zip(&runs[1]) {
        assert_eq!(a.name, b.name);
        assert_eq!(
            a.measurement.base.stats.cycles,
            b.measurement.base.stats.cycles
        );
        assert_eq!(
            a.measurement.ccr.stats.cycles,
            b.measurement.ccr.stats.cycles
        );
    }
}

#[test]
fn a_selections_host_time_is_its_two_sims() {
    let dir = std::env::temp_dir().join("ccr-engine-selection-wall");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("harness.jsonl");
    let harness = ccr::Harness::start(&ccr::HarnessOptions {
        progress: ccr::ProgressMode::Off,
        out: Some(out.clone()),
    })
    .unwrap();
    let runs = Engine::new(2)
        .run_selected(&TINY_WORKLOADS, &paper_scenario(), &harness)
        .unwrap();
    harness.finish();
    // Every `sim_finish` event carries the wall time the result cache
    // recorded for that simulation; a run's host time is the sum of its
    // baseline's and its CCR simulation's, with no compile time in it.
    let text = std::fs::read_to_string(&out).unwrap();
    for run in &runs {
        let tag = format!(":{}:", run.name);
        let sims: Vec<u64> = text
            .lines()
            .map(|l| ccr_analyze::value::parse(l).unwrap())
            .filter(|v| v.str_field("ev") == "sim_finish" && v.str_field("label").contains(&tag))
            .map(|v| v.u64_field("wall_ms"))
            .collect();
        assert_eq!(sims.len(), 2, "{}: one base and one CCR sim", run.name);
        assert_eq!(run.wall_ms, sims.iter().sum::<u64>(), "{}", run.name);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

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
fn result_cache_evicts_least_recently_used() {
    let cache = SimResultCache::new(2);
    cache.get_or_run("a", || Ok(sim_of(1))).unwrap();
    cache.get_or_run("b", || Ok(sim_of(2))).unwrap();
    // Touch `a` so `b` becomes the least recently used entry.
    cache
        .get_or_run("a", || unreachable!("a is cached"))
        .unwrap();
    cache.get_or_run("c", || Ok(sim_of(3))).unwrap();
    assert_eq!(cache.len(), 2);
    assert_eq!(cache.evictions(), 1);
    // `a` and `c` survive; `b` was evicted and must recompute.
    cache
        .get_or_run("a", || unreachable!("a survives"))
        .unwrap();
    cache
        .get_or_run("c", || unreachable!("c survives"))
        .unwrap();
    let recomputed = cache.get_or_run("b", || Ok(sim_of(2))).unwrap();
    assert_eq!(recomputed.outcome.stats.cycles, 2);
    assert_eq!(cache.hits(), 3);
    assert_eq!(cache.misses(), 4);
}

#[test]
fn zero_capacity_cache_retains_nothing_but_still_runs() {
    let cache = SimResultCache::new(0);
    assert_eq!(cache.get_or_run("k", || Ok(sim_of(7))).unwrap().wall_ms, 1);
    assert!(cache.is_empty());
    // The same key misses again: nothing was retained.
    cache.get_or_run("k", || Ok(sim_of(7))).unwrap();
    assert_eq!(cache.hits(), 0);
    assert_eq!(cache.misses(), 2);
    assert_eq!(cache.evictions(), 2);
}

#[test]
fn errors_are_never_cached() {
    let cache = SimResultCache::new(8);
    let Err(err) = cache.get_or_run("k", || Err("emulator limit".to_string())) else {
        panic!("a failing computation must surface its error");
    };
    assert_eq!(err, "emulator limit");
    assert!(cache.is_empty());
    // A later caller retries with its own computation and succeeds.
    cache.get_or_run("k", || Ok(sim_of(9))).unwrap();
    cache
        .get_or_run("k", || unreachable!("now cached"))
        .unwrap();
    assert_eq!(cache.hits(), 1);
    assert_eq!(cache.misses(), 2);
}

#[test]
fn a_panicking_computation_releases_its_key() {
    let cache = Arc::new(SimResultCache::new(8));
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        cache.get_or_run("k", || panic!("simulation bug"))
    }));
    assert!(panicked.is_err(), "the panic reaches the caller");
    // A later lookup of the same key must run its own computation
    // rather than wait forever on the panicked one. It runs on its own
    // thread so a hang fails this test instead of stalling the suite.
    let (tx, rx) = mpsc::channel();
    let lookup = {
        let cache = Arc::clone(&cache);
        std::thread::spawn(move || {
            let out = cache.get_or_run("k", || Ok(sim_of(3)));
            tx.send(out).expect("test thread is listening");
        })
    };
    let out = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("lookup after a panicked computation timed out");
    assert_eq!(out.unwrap().outcome.stats.cycles, 3);
    lookup.join().expect("lookup thread");
    assert_eq!(cache.misses(), 2);
    assert_eq!(cache.hits(), 0);
    cache
        .get_or_run("k", || unreachable!("now cached"))
        .unwrap();
    assert_eq!(cache.hits(), 1);
}

#[test]
fn single_flight_runs_each_key_exactly_once_under_contention() {
    let cache = SimResultCache::new(8);
    let computations = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| {
                cache
                    .get_or_run("shared", || {
                        computations.fetch_add(1, Ordering::SeqCst);
                        // Widen the race window so waiters actually block.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        Ok(sim_of(5))
                    })
                    .unwrap();
            });
        }
    });
    assert_eq!(computations.load(Ordering::SeqCst), 1);
    assert_eq!(cache.misses(), 1);
    assert_eq!(cache.hits(), 7);
}

#[test]
fn potential_entries_are_exempt_from_eviction() {
    let cache = SimResultCache::new(1);
    let pot = ccr::profile::ReusePotential::default();
    cache
        .get_or_run_potential("pot|w|train|1", || Ok(pot))
        .unwrap();
    // Churn the sim side well past capacity.
    for i in 0..5 {
        cache
            .get_or_run(&format!("sim{i}"), || Ok(sim_of(i)))
            .unwrap();
    }
    assert!(cache.evictions() > 0, "sim churn must have evicted");
    // The potential entry survived every eviction.
    cache
        .get_or_run_potential("pot|w|train|1", || unreachable!("never evicted"))
        .unwrap();
    assert_eq!(cache.hits(), 1);
}
