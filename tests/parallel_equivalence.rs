//! Parallel harness equivalence: running the full suite through a
//! multi-worker job pool must produce bit-identical simulated results
//! to a serial run — only host wall time may differ. This is the
//! cycle-invariance contract of `--jobs` / `CCR_JOBS`.
//!
//! Slow in debug builds (a full suite compile + two simulations per
//! benchmark, twice); run with `cargo test --release`.

use ccr::regions::RegionConfig;
use ccr::sim::{CrbConfig, MachineConfig};
use ccr::workloads::{InputSet, NAMES};
use ccr_bench::exp::Scenario;
use ccr_bench::{Engine, SuiteRun};

/// Runs `names` at the paper configuration on a fresh `jobs`-worker
/// engine, compiling for the CRB's instance count.
fn run_paper(names: &[&'static str], jobs: usize) -> Vec<SuiteRun> {
    let scenario = Scenario::new(
        "paper",
        InputSet::Train,
        &RegionConfig::paper(),
        &MachineConfig::paper(),
        CrbConfig::paper(),
    );
    Engine::new(jobs)
        .run_selected(names, &scenario, &ccr::Harness::disabled())
        .expect("suite workloads compile")
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow in debug builds; run with --release")]
fn suite_stats_are_identical_across_job_counts() {
    let serial = run_paper(&NAMES, 1);
    let parallel = run_paper(&NAMES, 4);

    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.name, p.name, "suite order must be deterministic");
        assert_eq!(
            s.measurement.base.stats, p.measurement.base.stats,
            "{}: baseline stats diverged under parallel execution",
            s.name
        );
        assert_eq!(
            s.measurement.ccr.stats, p.measurement.ccr.stats,
            "{}: CCR stats diverged under parallel execution",
            s.name
        );
        assert_eq!(
            s.measurement.base.run.returned, p.measurement.base.run.returned,
            "{}: baseline architectural results diverged",
            s.name
        );
        assert_eq!(
            s.measurement.ccr.run.returned, p.measurement.ccr.run.returned,
            "{}: CCR architectural results diverged",
            s.name
        );
        // `wall_ms` is intentionally not compared: host timing is the
        // one field allowed to differ between job counts.
    }
}

/// A cheap always-on variant: one workload, jobs=1 vs jobs=2, so the
/// invariance contract is exercised in debug CI too.
#[test]
fn single_workload_stats_identical_across_job_counts() {
    let serial = run_paper(&["129.compress"], 1);
    let parallel = run_paper(&["129.compress"], 2);
    assert_eq!(parallel.len(), 1);
    assert_eq!(
        serial[0].measurement.base.stats,
        parallel[0].measurement.base.stats
    );
    assert_eq!(
        serial[0].measurement.ccr.stats,
        parallel[0].measurement.ccr.stats
    );
}
