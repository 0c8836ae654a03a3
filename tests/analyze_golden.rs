//! Golden-file test for the analyzer.
//!
//! `tests/fixtures/run_telemetry/` holds a frozen telemetry capture of
//! the paper's Figure 2 bitcount program (the built-in `bitcount`
//! smoke workload, 300 loop iterations to keep the artifacts small):
//! `events.jsonl` and `report.json` exactly as `ccr profile` wrote
//! them, so the capture carries cycle attribution, miss-cause tags,
//! and `cycle_sample` stacks. The inputs are frozen rather than
//! regenerated because event lines carry wall-clock pass timings; the
//! *analyzer* by contrast must be fully deterministic, so its output
//! on the frozen inputs — `analysis.json`, `trace.json`,
//! `profile.folded`, and `flamegraph.svg` — is compared byte-for-byte
//! against the committed goldens in `golden/`.
//!
//! To refresh after an intentional schema or analyzer change:
//!
//! ```text
//! CCR_UPDATE_GOLDEN=1 cargo test --test analyze_golden
//! ```

use std::path::Path;

/// Matches the `ccr analyze` CLI default for the hottest-region tables.
const TOP_N: usize = 10;

fn check_golden(path: &Path, actual: &str) {
    if std::env::var_os("CCR_UPDATE_GOLDEN").is_some() {
        std::fs::write(path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "{}: {e} (run with CCR_UPDATE_GOLDEN=1 to create)",
            path.display()
        )
    });
    assert!(
        expected == actual,
        "{} drifted from the committed golden.\n\
         If the change is intentional, refresh with:\n\
         CCR_UPDATE_GOLDEN=1 cargo test --test analyze_golden\n\
         --- expected ---\n{expected}\n--- actual ---\n{actual}",
        path.display()
    );
}

#[test]
fn analyzer_output_is_byte_stable_on_the_frozen_fixture() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/run_telemetry");
    let data = ccr_analyze::load_run(&fixture).expect("fixture must ingest cleanly");
    assert_eq!(
        data.skipped_lines, 0,
        "the frozen capture has no torn lines"
    );

    let analysis = ccr_analyze::analyze(&data, TOP_N);
    let trace = ccr_analyze::chrome_trace(&data);
    let folded = ccr_analyze::fold_samples(&data);
    let svg = ccr_analyze::flamegraph_svg(&folded);

    // Determinism first: a second pass over the same input must give
    // identical bytes, independent of the goldens.
    assert_eq!(
        ccr_analyze::analyze(&data, TOP_N).to_json(),
        analysis.to_json()
    );
    assert_eq!(ccr_analyze::chrome_trace(&data), trace);
    assert_eq!(ccr_analyze::fold_samples(&data), folded);
    assert_eq!(ccr_analyze::flamegraph_svg(&folded), svg);

    check_golden(&fixture.join("golden/analysis.json"), &analysis.to_json());

    // The one reader of `analysis.json` reads the committed golden back
    // to a value that writes the same bytes.
    let golden = std::fs::read_to_string(fixture.join("golden/analysis.json")).unwrap();
    let back = ccr_analyze::Analysis::from_json(&golden).expect("the golden reads back");
    assert!(
        back.to_json() == golden,
        "analysis.json does not round-trip through Analysis::from_json"
    );
    check_golden(&fixture.join("golden/trace.json"), &trace);
    check_golden(&fixture.join("golden/profile.folded"), &folded);
    check_golden(&fixture.join("golden/flamegraph.svg"), &svg);
}

#[test]
fn fixture_is_a_profiled_v3_capture() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/run_telemetry");
    let data = ccr_analyze::load_run(&fixture).unwrap();
    assert!(
        !data.cycle_samples.is_empty(),
        "the fixture is a `ccr profile` capture"
    );
    let attr = data
        .report
        .ccr
        .attribution
        .as_ref()
        .expect("profiled capture carries attribution");
    assert_eq!(
        attr.total.total(),
        data.report.ccr.cycles,
        "every cycle is attributed to exactly one bucket"
    );
    // Per-region miss causes sum to the region's misses.
    let analysis = ccr_analyze::analyze(&data, TOP_N);
    for r in &analysis.regions {
        assert_eq!(
            r.miss_causes.iter().sum::<u64>(),
            r.misses,
            "region {} miss causes out of balance",
            r.region
        );
    }
}

#[test]
fn fixture_report_is_v3_with_provenance() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/run_telemetry");
    let data = ccr_analyze::load_run(&fixture).unwrap();
    assert_eq!(data.report.schema_version, 3);
    let hash = data
        .report
        .provenance
        .config_hash
        .as_deref()
        .expect("v2 carries a config hash");
    assert_eq!(hash.len(), 16);
    assert!(hash.bytes().all(|b| b.is_ascii_hexdigit()));
    // Self-diff of the fixture is clean and within every threshold.
    let analysis = ccr_analyze::analyze(&data, TOP_N);
    let report = ccr_analyze::diff_analyses(
        &analysis,
        &analysis,
        &ccr_analyze::Thresholds::default_gate(),
        false,
    )
    .unwrap();
    assert!(!report.breached());
}
