//! SoA CRB equivalence against the committed artifacts.
//!
//! The structure-of-arrays candidate banks (chunked fingerprint-lane
//! compare, contiguous-slice verify, batched ghost classification)
//! are host-speed optimizations under the PR-4 contract: simulated
//! statistics never move. Two checks pin that at full-suite scope:
//!
//! * a serial suite run must reproduce the committed
//!   `BENCH_ccr.json` numbers exactly — cycles, speedup, hit rate,
//!   region counts (only `wall_ms` and the host-throughput figures
//!   may differ);
//! * per workload, a CCR leg re-run with the buffer forced onto the
//!   scalar reference path (`set_batched_scan(false)`) must produce
//!   identical statistics, including the five-cause miss mix, and
//!   identical architectural results;
//! * the `ccr fingerprint` trajectory chains must be byte-identical
//!   to `tests/fixtures/fingerprint/chains.golden`.
//!
//! Slow in debug builds (full suite compiles plus three simulations
//! per benchmark); run with `cargo test --release`.

use std::process::Command;

use ccr::ir::CodeLayout;
use ccr::profile::Emulator;
use ccr::regions::RegionConfig;
use ccr::sim::{CrbConfig, MachineConfig, Pipeline, ReuseBuffer, SimStats};
use ccr::workloads::{InputSet, NAMES};

#[test]
#[cfg_attr(debug_assertions, ignore = "slow in debug builds; run with --release")]
fn suite_stats_match_committed_bench_and_scalar_reference_path() {
    let committed = ccr_analyze::BenchReport::from_json(
        &std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_ccr.json"))
            .expect("committed BENCH_ccr.json"),
    )
    .expect("committed BENCH parses");

    let machine = MachineConfig::paper();
    let crb = CrbConfig::paper();
    let config = ccr::CompileConfig {
        region: RegionConfig {
            trial_instances: crb.instances,
            ..RegionConfig::paper()
        },
        emu: ccr_bench::emu_config(),
        ..ccr::CompileConfig::paper()
    };
    let runs = ccr_bench::Engine::new(1)
        .run_selected(
            &NAMES,
            InputSet::Train,
            1,
            &config,
            &machine,
            crb,
            ccr_bench::emu_config(),
            &ccr::Harness::disabled(),
        )
        .expect("suite workloads compile");

    assert_eq!(runs.len(), committed.workloads.len());
    for (run, wl) in runs.iter().zip(&committed.workloads) {
        assert_eq!(run.name, wl.name, "suite order must match the snapshot");
        let m = &run.measurement;
        assert_eq!(
            m.base.stats.cycles, wl.base_cycles,
            "{}: baseline cycles drifted from the committed snapshot",
            run.name
        );
        assert_eq!(
            m.ccr.stats.cycles, wl.ccr_cycles,
            "{}: CCR cycles drifted from the committed snapshot",
            run.name
        );
        assert_eq!(m.speedup(), wl.speedup, "{}: speedup drifted", run.name);
        let lookups = m.ccr.stats.reuse_hits + m.ccr.stats.reuse_misses;
        let hit_rate = if lookups == 0 {
            0.0
        } else {
            m.ccr.stats.reuse_hits as f64 / lookups as f64
        };
        assert_eq!(hit_rate, wl.hit_rate, "{}: hit rate drifted", run.name);
        assert_eq!(
            run.compiled.regions.len() as u64,
            wl.regions,
            "{}: region count drifted",
            run.name
        );

        // Scalar reference path: identical statistics (including the
        // miss-cause mix, which BENCH does not carry) and identical
        // architectural results.
        let (scalar_stats, scalar_returned) = ccr_leg_scalar(run, &machine, crb);
        assert_eq!(
            scalar_stats, m.ccr.stats,
            "{}: batched scan changed simulated statistics",
            run.name
        );
        assert_eq!(
            scalar_returned, m.ccr.run.returned,
            "{}: batched scan changed architectural results",
            run.name
        );
    }
}

/// Re-runs one compiled workload's CCR leg with the reuse buffer
/// forced onto the scalar reference scan.
fn ccr_leg_scalar(
    run: &ccr_bench::SuiteRun,
    machine: &MachineConfig,
    crb: CrbConfig,
) -> (SimStats, Vec<ccr::ir::Value>) {
    let annotated = &run.compiled.annotated;
    let layout = CodeLayout::of(annotated);
    let mut pipeline = Pipeline::new(*machine, layout);
    let emulator = Emulator::with_config(annotated, ccr_bench::emu_config());
    let mut buffer = ReuseBuffer::new(crb);
    buffer.set_batched_scan(false);
    let out = emulator
        .run(&mut buffer, &mut pipeline)
        .expect("suite workload emulates");
    let mut stats = pipeline.into_stats();
    stats.crb = buffer.stats();
    (stats, out.returned)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow in debug builds; run with --release")]
fn fingerprint_chains_match_committed_golden() {
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/fingerprint/chains.golden"
    );
    let golden = std::fs::read_to_string(golden_path).expect("committed chains.golden");
    let names: Vec<&str> = golden
        .lines()
        .map(|l| l.split_whitespace().next().expect("golden line has a name"))
        .collect();
    assert!(!names.is_empty());

    let dir = std::env::temp_dir().join(format!("ccr-soa-fp-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_ccr"))
        .arg("fingerprint")
        .args(&names)
        .args(["--out", dir.to_str().unwrap()])
        .output()
        .expect("ccr fingerprint runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let fresh = std::fs::read_to_string(dir.join("chains.txt")).expect("chains.txt written");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        fresh, golden,
        "trajectory fingerprint chains drifted from the committed golden"
    );
}
