//! Harness observability contracts.
//!
//! Three things are pinned here:
//!
//! 1. **Bit-identity**: running an experiment with the harness live —
//!    task-boundary sampling, progress rendering, harness.jsonl
//!    sink — produces exactly the same simulated statistics and
//!    rendered tables as running with the harness disabled. The
//!    harness only reads clocks, bumps atomics, and writes to stderr
//!    and its own file; stdout and every committed artifact stay
//!    byte-stable. Checked both in-process (tiny spec, always on) and
//!    through the actual `ccr` binary against the committed fig4
//!    table (release-gated, like the other full-figure tests).
//! 2. **Schema**: every harness.jsonl line starts with the literal
//!    `{"harness_v":1,` version tag, parses as one JSON object, and
//!    each event type carries a fixed key set — pinned by the golden
//!    at `tests/fixtures/harness/schema.golden`. Values (wall times,
//!    counters) are host-dependent and deliberately not pinned; the
//!    key sets are the compatibility contract downstream readers
//!    depend on. Refresh after an intentional schema change with:
//!
//!    ```text
//!    CCR_UPDATE_GOLDEN=1 cargo test --release --test harness_observability
//!    ```
//! 3. **Summary accounting**: the `harness_summary` event and the
//!    returned [`ccr::HarnessSummary`] agree with the work actually
//!    done (compiles, sims, cache traffic, distinct workers,
//!    utilization in (0, 100]), and a finished run's final `monitor`
//!    sample shows every planned unit started and an empty queue.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::Command;

use ccr::regions::RegionConfig;
use ccr::sim::{CrbConfig, MachineConfig};
use ccr::workloads::InputSet;
use ccr_bench::{exp, Engine};

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

fn tiny_spec(name: &'static str) -> exp::ExperimentSpec {
    exp::ExperimentSpec {
        name,
        output: name,
        title: "harness observability test spec",
        workloads: &TINY_WORKLOADS,
        scenarios: vec![exp::Scenario::new(
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

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn live_harness(out: &Path) -> ccr::Harness {
    let opts = ccr::HarnessOptions {
        progress: ccr::ProgressMode::Off,
        out: Some(out.to_path_buf()),
    };
    ccr::Harness::start(&opts).unwrap()
}

#[test]
fn tiny_exp_is_bit_identical_with_the_harness_live() {
    let spec = tiny_spec("tiny_harness");
    let plan = exp::plan(&[&spec]);

    let plain = Engine::new(2)
        .execute_plan(&plan, &ccr::Harness::disabled(), None, None)
        .expect("tiny workloads run within limits");
    let dir = temp_dir("ccr-harness-identity-test");
    let harness = live_harness(&dir.join("harness.jsonl"));
    let observed = Engine::new(2)
        .execute_plan(&plan, &harness, None, None)
        .expect("observed run succeeds");
    let summary = harness.finish().expect("live harness yields a summary");

    // The rendered text embeds base/CCR cycle counts and the speedup:
    // identical strings mean identical simulated statistics.
    assert_eq!(
        plain.results(&spec).render().text,
        observed.results(&spec).render().text,
        "observation must not perturb a single simulated cycle"
    );
    // Point summaries carry the full per-point statistics; compare
    // every simulated field (wall_ms is host time and may wobble).
    let sim_view = |points: &[ccr_analyze::RunRecord]| -> Vec<String> {
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
    };
    assert_eq!(sim_view(&plain.records()), sim_view(&observed.records()),);

    // The summary reflects the plan: one compile and two sims per
    // workload, every cache access a cold miss on a fresh cache.
    assert_eq!(summary.compiles, TINY_WORKLOADS.len() as u64);
    assert_eq!(summary.sims, 2 * TINY_WORKLOADS.len() as u64);
    assert!(summary.sim_cycles > 0, "sims must report their cycles");
    assert_eq!(summary.cache_hits + summary.cache_misses, 2);
    assert!(
        summary.utilization_pct > 0.0 && summary.utilization_pct <= 100.0,
        "utilization {} out of range",
        summary.utilization_pct
    );
    assert!(!summary.stragglers.is_empty());
    // Two workers ran the prep map and the sim map: the summary counts
    // distinct workers, not the workers of each map summed.
    assert_eq!(summary.workers, 2);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_finished_run_samples_an_empty_queue() {
    // Two scenarios that differ only in machine width: each workload's
    // baseline and CCR sims form two-member functional groups (one
    // emulation feeding two pipelines), so the sim map runs fewer pool
    // items than there are sim units.
    let mut spec = tiny_spec("tiny_queue");
    let wide = MachineConfig {
        issue_width: 8,
        ..MachineConfig::paper()
    };
    spec.scenarios.push(exp::Scenario::new(
        "wide",
        InputSet::Train,
        &RegionConfig::paper(),
        &wide,
        CrbConfig::paper(),
    ));
    let plan = exp::plan(&[&spec]);
    let dir = temp_dir("ccr-harness-queue-test");
    let out = dir.join("harness.jsonl");
    let harness = live_harness(&out);
    let executed = Engine::new(2)
        .execute_plan(&plan, &harness, None, None)
        .expect("observed run succeeds");
    let summary = harness.finish().expect("live harness yields a summary");
    let (base_runs, ccr_runs) = executed.functional_runs();
    assert_eq!(summary.sims, 8);
    assert_eq!(base_runs + ccr_runs, 4, "sims share functional runs");

    let text = std::fs::read_to_string(&out).unwrap();
    let last = text
        .lines()
        .rfind(|l| l.contains("\"ev\":\"monitor\""))
        .expect("a final sample");
    let sample = ccr_analyze::value::parse(last).unwrap();
    assert_eq!(sample.get("last").and_then(|v| v.as_bool()), Some(true));
    let counters = sample.get("counters").expect("counters");
    assert_eq!(
        counters.u64_field("harness.tasks.started"),
        counters.u64_field("harness.compiles.total") + counters.u64_field("harness.sims.total"),
        "every planned unit started: {last}"
    );
    assert_eq!(counters.u64_field("harness.sims.total"), 8);
    let depth = sample
        .get("gauges")
        .expect("gauges")
        .f64_field("harness.queue.depth");
    assert_eq!(depth, 0.0, "{last}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn harness_jsonl_schema_matches_the_committed_golden() {
    let spec = tiny_spec("tiny_schema");
    let plan = exp::plan(&[&spec]);
    let dir = temp_dir("ccr-harness-schema-test");
    let out = dir.join("harness.jsonl");
    let harness = live_harness(&out);
    Engine::new(2)
        .execute_plan(&plan, &harness, None, None)
        .expect("observed run succeeds");
    // The snapshot / fingerprint events cross the host boundary from
    // `ccr run --save-snapshot` and `ccr fingerprint`, not from a
    // plain experiment; emit one of each here so the golden pins
    // their key sets alongside the organically-produced events.
    harness.snapshot("save", "bitcount", 65_536, "runs/bitcount.snap.jsonl");
    harness.fingerprint("bitcount", 2, 150_000, "0123456789abcdef");
    // Likewise the service-session events from `ccr serve`.
    harness.request_start(1, "submit", "fig4");
    harness.request_finish(1, "done", 42, 7);
    harness.result_cache(3, 4, 0);
    harness.finish().expect("live harness yields a summary");

    let text = std::fs::read_to_string(&out).unwrap();
    // Per event type, the union of keys seen across all lines of that
    // type. Counts and values are host-dependent; key sets are not.
    let mut schema: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut events = Vec::new();
    for line in text.lines() {
        assert!(
            line.starts_with("{\"harness_v\":1,"),
            "every line must lead with the version tag: {line}"
        );
        let value = ccr_analyze::value::parse(line)
            .unwrap_or_else(|e| panic!("unparsable harness line: {e:?}\n{line}"));
        let obj = value.as_obj().expect("every line is one JSON object");
        assert_eq!(value.u64_field("harness_v"), 1);
        let ev = value.str_field("ev").to_string();
        assert!(!ev.is_empty(), "{line}");
        schema
            .entry(ev.clone())
            .or_default()
            .extend(obj.keys().cloned());
        events.push(ev);
    }

    // Lifecycle ordering: plan first, summary last, exactly once each.
    assert_eq!(events.first().map(String::as_str), Some("plan"));
    assert_eq!(events.last().map(String::as_str), Some("harness_summary"));
    assert_eq!(events.iter().filter(|e| *e == "plan").count(), 1);
    assert!(
        events.iter().any(|e| e == "monitor"),
        "finish takes the final sample"
    );

    let mut rendered = String::new();
    for (ev, keys) in &schema {
        rendered.push_str(ev);
        rendered.push(':');
        rendered.push(' ');
        rendered.push_str(&keys.iter().cloned().collect::<Vec<_>>().join(","));
        rendered.push('\n');
    }

    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/harness/schema.golden");
    if std::env::var_os("CCR_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden.parent().unwrap()).unwrap();
        std::fs::write(&golden, &rendered).unwrap();
    } else {
        let expected = std::fs::read_to_string(&golden).unwrap_or_else(|e| {
            panic!(
                "{}: {e} (run with CCR_UPDATE_GOLDEN=1 to create)",
                golden.display()
            )
        });
        assert!(
            expected == rendered,
            "harness.jsonl schema drifted from the committed golden.\n\
             If the change is intentional (additive fields need no\n\
             version bump; removals and renames do), refresh with:\n\
             CCR_UPDATE_GOLDEN=1 cargo test --release --test harness_observability\n\
             --- expected ---\n{expected}\n--- actual ---\n{rendered}"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow in debug builds; run with --release")]
fn cli_fig4_with_progress_and_monitor_matches_the_committed_table() {
    let dir = temp_dir("ccr-harness-fig4-test");
    let jsonl = dir.join("harness.jsonl");
    let out_dir = dir.join("out");
    let output = Command::new(env!("CARGO_BIN_EXE_ccr"))
        .args([
            "exp",
            "fig4",
            "--progress=json",
            "--harness-out",
            jsonl.to_str().unwrap(),
            "--out",
            out_dir.to_str().unwrap(),
            "--no-store",
        ])
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );

    // The decorated run regenerates the committed artifact exactly.
    let table = std::fs::read_to_string(out_dir.join("fig4_potential.txt")).unwrap();
    assert_eq!(
        table,
        include_str!("../results/fig4_potential.txt"),
        "a live harness must not change a committed artifact by one byte"
    );
    // All decoration goes to stderr and the sink file; stdout carries
    // only what an undecorated run prints.
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(
        !stdout.contains("harness") && !stdout.contains("progress"),
        "stdout must stay clean: {stdout}"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("harness:"), "summary on stderr: {stderr}");
    assert!(stderr.contains("compile cache:"), "{stderr}");

    let text = std::fs::read_to_string(&jsonl).unwrap();
    assert!(text.lines().count() > 0);
    for line in text.lines() {
        assert!(line.starts_with("{\"harness_v\":1,"), "{line}");
    }
    assert!(text.contains("\"ev\":\"plan\""));
    assert!(text.contains("\"ev\":\"harness_summary\""));

    let _ = std::fs::remove_dir_all(&dir);
}
