//! End-to-end tests of the `ccr` command-line driver, run against the
//! actual binary Cargo builds for this package.

use std::process::Command;

fn ccr() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ccr"))
}

#[test]
fn list_names_all_benchmarks() {
    let out = ccr().arg("list").output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let names: Vec<&str> = stdout.lines().collect();
    assert_eq!(names.len(), 13);
    assert!(names.contains(&"124.m88ksim"));
}

#[test]
fn run_reports_a_speedup() {
    let out = ccr().args(["run", "130.li"]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("speedup"), "{stdout}");
    assert!(stdout.contains("regions"), "{stdout}");
}

#[test]
fn print_then_run_round_trips_through_a_file() {
    let dir = std::env::temp_dir().join("ccr-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("espresso.ccr");
    let printed = ccr().args(["print", "008.espresso"]).output().unwrap();
    assert!(printed.status.success());
    std::fs::write(&path, &printed.stdout).unwrap();
    let out = ccr()
        .args(["run", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("speedup"), "{stdout}");
}

#[test]
fn trace_respects_the_limit() {
    let out = ccr()
        .args(["trace", "lex", "--limit", "5"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout.lines().count(), 5, "{stdout}");
}

#[test]
fn run_analyze_diff_pipeline_round_trips() {
    let dir = std::env::temp_dir().join("ccr-cli-analyze-test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let tele = dir.join("run");
    let out = ccr()
        .args(["run", "lex", "--telemetry", tele.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = ccr()
        .args(["analyze", tele.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("speedup"), "{stdout}");
    assert!(stdout.contains("hottest by instructions saved"), "{stdout}");
    let analysis = std::fs::read_to_string(tele.join("analysis.json")).unwrap();
    assert!(
        analysis.starts_with("{\"analysis_schema_version\":2,"),
        "{analysis}"
    );
    let trace = std::fs::read_to_string(tele.join("trace.json")).unwrap();
    assert!(trace.contains("\"traceEvents\":["), "{trace}");

    // Self-diff: zero deltas, exit 0.
    let out = ccr()
        .args(["diff", tele.to_str().unwrap(), tele.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("OK: all deltas within thresholds"),
        "{stdout}"
    );

    // A saved analysis.json works as a diff baseline too.
    let out = ccr()
        .args([
            "diff",
            tele.join("analysis.json").to_str().unwrap(),
            tele.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn diff_flags_regressions_with_exit_code_2() {
    let dir = std::env::temp_dir().join("ccr-cli-diff-test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let good = dir.join("good");
    let bad = dir.join("bad");
    for (tele, instances) in [(&good, "8"), (&bad, "1")] {
        let out = ccr()
            .args([
                "run",
                "lex",
                "--instances",
                instances,
                "--telemetry",
                tele.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    // Different CRB geometry ⇒ different config hash ⇒ refused without
    // --force (plain failure, exit 1).
    let out = ccr()
        .args(["diff", good.to_str().unwrap(), bad.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("config hash mismatch"), "{stderr}");

    // Forced: the cycle/hit-rate regression breaches the default
    // thresholds, exit 2.
    let out = ccr()
        .args([
            "diff",
            good.to_str().unwrap(),
            bad.to_str().unwrap(),
            "--force",
        ])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(2),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("** BREACH"), "{stdout}");
    assert!(stdout.contains("FAIL:"), "{stdout}");

    // The same comparison with thresholds disabled reports but passes.
    let out = ccr()
        .args([
            "diff",
            good.to_str().unwrap(),
            bad.to_str().unwrap(),
            "--force",
            "--thresholds",
            "none",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn bench_host_reps_reproduce_the_single_rep_snapshot() {
    let dir = std::env::temp_dir().join("ccr-cli-bench-reps-test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let snap = |reps: &str| {
        let path = dir.join(format!("BENCH_reps{reps}.json"));
        let out = ccr()
            .args(["bench", "--only", "lex", "--no-store", "--host-reps", reps])
            .args(["--out", path.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        path
    };
    let (two, one) = (snap("2"), snap("1"));
    // Repetitions re-run every simulation and keep the median wall
    // time; every simulated statistic must match a single rep.
    let out = ccr()
        .args(["diff", two.to_str().unwrap(), one.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bench_snapshot_round_trips_through_diff() {
    let dir = std::env::temp_dir().join("ccr-cli-bench-test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("BENCH_test.json");
    let store = dir.join("runs/store.jsonl");
    let out = ccr()
        .args([
            "bench",
            "--only",
            "lex",
            "--out",
            snap.to_str().unwrap(),
            "--store",
            store.to_str().unwrap(),
            "--at",
            "1700000000",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&snap).unwrap();
    assert!(text.starts_with("{\"bench_schema_version\":2,"), "{text}");
    assert!(text.contains("\"name\":\"lex\""), "{text}");
    assert!(text.contains("\"sim_cycles_per_host_sec\":"), "{text}");
    assert!(text.contains("\"git_commit\":"), "{text}");

    // The run appended one store record — with the *live* miss-cause
    // mix, which the BENCH file itself doesn't carry.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("appended 1 record(s)"), "{stderr}");
    let line = std::fs::read_to_string(&store).unwrap();
    assert!(
        line.starts_with("{\"store_v\":1,\"ts\":1700000000,"),
        "{line}"
    );
    assert!(line.contains("\"source\":\"bench\""), "{line}");
    assert!(!line.contains("\"miss_capacity\":0,"), "{line}");

    let out = ccr()
        .args(["diff", snap.to_str().unwrap(), snap.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("OK: all deltas within thresholds"),
        "{stdout}"
    );

    let out = ccr()
        .args(["bench", "--only", "no-such-workload"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn profile_writes_attribution_and_flamegraph_artifacts() {
    let dir = std::env::temp_dir().join("ccr-cli-profile-test");
    let _ = std::fs::remove_dir_all(&dir);
    let tele = dir.join("prof");
    let store = dir.join("runs/store.jsonl");
    let out = ccr()
        .args([
            "profile",
            "bitcount",
            "--telemetry",
            tele.to_str().unwrap(),
            "--store",
            store.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("attr (base)"), "{stdout}");
    assert!(stdout.contains("cycle samples"), "{stdout}");
    assert!(stdout.contains("misses     :"), "{stdout}");

    // The profiled run appended a store record with its analysis totals.
    let line = std::fs::read_to_string(&store).unwrap();
    assert!(line.starts_with("{\"store_v\":1,"), "{line}");
    assert!(line.contains("\"source\":\"profile\""), "{line}");
    assert!(line.contains("\"workload\":\"bitcount\""), "{line}");

    // Profiling must not perturb timing: a plain run of the same
    // workload reports byte-identical cycle counts.
    let run = ccr().args(["run", "bitcount"]).output().unwrap();
    assert!(run.status.success());
    let run_stdout = String::from_utf8(run.stdout).unwrap();
    // First integer token after `tag` on the line containing it.
    let cycles_of = |text: &str, tag: &str| -> u64 {
        let line = text
            .lines()
            .find(|l| l.contains(tag))
            .unwrap_or_else(|| panic!("no `{tag}` line in:\n{text}"));
        line[line.find(tag).unwrap() + tag.len()..]
            .split_whitespace()
            .find_map(|tok| tok.parse().ok())
            .unwrap_or_else(|| panic!("no number after `{tag}` in `{line}`"))
    };
    assert_eq!(
        cycles_of(&stdout, "base"),
        cycles_of(&run_stdout, "baseline"),
        "profiled baseline cycles drifted:\n{stdout}\n{run_stdout}"
    );
    assert_eq!(
        cycles_of(&stdout, "ccr"),
        cycles_of(&run_stdout, "with CCR"),
        "profiled CCR cycles drifted:\n{stdout}\n{run_stdout}"
    );

    let analysis = std::fs::read_to_string(tele.join("analysis.json")).unwrap();
    assert!(
        analysis.contains("\"attribution\":{\"base\":{"),
        "{analysis}"
    );
    assert!(analysis.contains("\"miss_cold\":"), "{analysis}");

    let folded = std::fs::read_to_string(tele.join("profile.folded")).unwrap();
    assert!(!folded.is_empty(), "profiled run must produce samples");
    for line in folded.lines() {
        let (stack, count) = line.rsplit_once(' ').expect("stack<space>count");
        assert!(
            stack.starts_with("base;") || stack.starts_with("ccr;"),
            "{line}"
        );
        count.parse::<u64>().expect("count is an integer");
    }

    let svg = std::fs::read_to_string(tele.join("flamegraph.svg")).unwrap();
    assert!(svg.starts_with("<?xml"), "{svg}");
    assert!(svg.trim_end().ends_with("</svg>"), "{svg}");

    // The capture analyzes cleanly through the offline path too.
    let out = ccr()
        .args(["analyze", tele.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn analyze_and_diff_reject_incomplete_run_directories() {
    let dir = std::env::temp_dir().join("ccr-cli-missing-artifacts-test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // Empty directory: missing events.jsonl, one-line error, no usage.
    let out = ccr()
        .args(["analyze", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("missing events.jsonl"), "{stderr}");
    assert!(!stderr.contains("usage:"), "{stderr}");
    assert_eq!(stderr.trim_end().lines().count(), 1, "{stderr}");

    // events.jsonl present but report.json absent.
    std::fs::write(dir.join("events.jsonl"), "").unwrap();
    let out = ccr()
        .args(["analyze", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("missing report.json"), "{stderr}");
    assert!(!stderr.contains("usage:"), "{stderr}");

    // diff pre-flights both sides the same way.
    let out = ccr()
        .args(["diff", dir.to_str().unwrap(), dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("missing report.json"), "{stderr}");
    assert!(!stderr.contains("usage:"), "{stderr}");

    // A path that is not a directory at all.
    let out = ccr()
        .args(["analyze", "/no/such/ccr-dir"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("not a directory"), "{stderr}");
    assert!(!stderr.contains("usage:"), "{stderr}");
}

#[test]
fn report_imports_renders_and_preflights_the_store() {
    let dir = std::env::temp_dir().join("ccr-cli-report-test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("runs/store.jsonl");

    // Missing store: one-line pre-flight error, exit 1, no usage dump.
    let out = ccr()
        .args(["report", "--store", store.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("no run store here"), "{stderr}");
    assert!(!stderr.contains("usage:"), "{stderr}");
    assert_eq!(stderr.trim_end().lines().count(), 1, "{stderr}");

    // A bench run with --no-store must not create one.
    let snap = dir.join("BENCH_test.json");
    let out = ccr()
        .args([
            "bench",
            "--only",
            "lex",
            "--out",
            snap.to_str().unwrap(),
            "--no-store",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!store.exists(), "--no-store must not write a store");

    // Backfill the snapshot twice at pinned timestamps, then report:
    // a flat two-run history, exit 0, CSVs under --out.
    for ts in ["100", "200"] {
        let out = ccr()
            .args([
                "report",
                "import",
                snap.to_str().unwrap(),
                "--store",
                store.to_str().unwrap(),
                "--at",
                ts,
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let csv_dir = dir.join("csv");
    let out = ccr()
        .args([
            "report",
            "--store",
            store.to_str().unwrap(),
            "--out",
            csv_dir.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "flat history must pass: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("2 record(s), 1 series"), "{stdout}");
    assert!(
        stdout.contains("\"import\"") || stdout.contains("import"),
        "{stdout}"
    );
    assert!(stdout.contains("OK: no regressions"), "{stdout}");
    for table in ["trend", "miss_mix", "host", "regressions"] {
        let csv = csv_dir.join(format!("report.{table}.csv"));
        assert!(csv.is_file(), "missing {}", csv.display());
    }

    // A torn final line (killed mid-append) is recovered, noted, and
    // does not fail the report.
    let mut text = std::fs::read_to_string(&store).unwrap();
    text.push_str("{\"store_v\":1,\"ts\":300,\"commit\":\"tor");
    std::fs::write(&store, text).unwrap();
    let out = ccr()
        .args(["report", "--store", store.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("note: 1 unreadable line(s) skipped"),
        "{stdout}"
    );

    // A fully unreadable store is a one-line corrupt-store error.
    std::fs::write(&store, "not a store\n").unwrap();
    let out = ccr()
        .args(["report", "--store", store.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("corrupt run store"), "{stderr}");
    assert!(!stderr.contains("usage:"), "{stderr}");
}

#[test]
fn bad_arguments_fail_with_usage() {
    let out = ccr().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("usage:"), "{stderr}");

    let out = ccr().args(["run", "not-a-benchmark"]).output().unwrap();
    assert!(!out.status.success());

    // A flag the subcommand does not read is an error, not ignored.
    for (args, flag, cmd) in [
        (&["exp", "fig10", "--entries", "4"][..], "--entries", "exp"),
        (&["list", "--jobs", "2"][..], "--jobs", "list"),
    ] {
        let out = ccr().args(args).output().unwrap();
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8(out.stderr).unwrap();
        let first = stderr.lines().next().unwrap_or_default();
        assert_eq!(first, format!("error: `ccr {cmd}` does not take {flag}"));
        assert!(stderr.contains("usage:"), "{stderr}");
        assert!(out.stdout.is_empty(), "nothing runs: {args:?}");
    }

    // A zero buffer dimension is a usage error, not a panic.
    for (args, flag) in [
        (&["run", "bitcount", "--entries", "0"][..], "--entries"),
        (&["run", "bitcount", "--instances", "0"][..], "--instances"),
    ] {
        let out = ccr().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?} must fail cleanly");
        let stderr = String::from_utf8(out.stderr).unwrap();
        let first = stderr.lines().next().unwrap_or_default();
        assert_eq!(first, format!("error: {flag} must be at least 1"));
        assert!(stderr.contains("usage:"), "{stderr}");
        assert!(out.stdout.is_empty(), "nothing runs: {args:?}");
    }
}

#[test]
fn flags_a_command_would_ignore_are_usage_errors() {
    for (args, error) in [
        (
            &["run", "bitcount", "--window", "500"][..],
            "--window needs --save-snapshot FILE",
        ),
        (
            &[
                "run",
                "bitcount",
                "--restore-snapshot",
                "b.snap",
                "--window",
                "500",
            ][..],
            "--window needs --save-snapshot FILE",
        ),
        (
            &["exp", "fig4", "--window", "500"][..],
            "--window needs --fingerprint",
        ),
        (
            &["run", "bitcount", "--jobs", "2"][..],
            "`ccr run` does not take --jobs",
        ),
        (
            &["snapshot", "restore", "b.snap", "--at-cycle", "9"][..],
            "`ccr snapshot restore` does not take --at-cycle",
        ),
        (
            &["snapshot", "restore", "b.snap", "--out", "x"][..],
            "`ccr snapshot restore` does not take --out",
        ),
        (
            &["snapshot", "restore", "b.snap", "--window", "500"][..],
            "`ccr snapshot restore` does not take --window",
        ),
        (
            &["snapshot", "--input", "ref", "restore", "b.snap"][..],
            "`ccr snapshot restore` does not take --input",
        ),
        (
            &["snapshot", "restore", "b.snap", "--scale", "2"][..],
            "`ccr snapshot restore` does not take --scale",
        ),
    ] {
        let out = ccr().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?} must fail cleanly");
        let stderr = String::from_utf8(out.stderr).unwrap();
        let first = stderr.lines().next().unwrap_or_default();
        assert_eq!(first, format!("error: {error}"), "{args:?}");
        assert!(stderr.contains("usage:"), "{stderr}");
        assert!(out.stdout.is_empty(), "nothing runs: {args:?}");
    }
}

#[test]
fn run_records_its_compile_and_simulation_in_the_harness() {
    let dir = std::env::temp_dir().join("ccr-cli-run-harness");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let plain = ccr().args(["run", "bitcount"]).output().unwrap();
    assert!(plain.status.success());
    for (case, extra) in [
        ("plain", &[][..]),
        (
            "telemetry",
            &["--telemetry", dir.join("tel").to_str().unwrap()][..],
        ),
    ] {
        let log = dir.join(format!("{case}.jsonl"));
        let out = ccr()
            .args(["run", "bitcount", "--harness-out"])
            .arg(&log)
            .args(extra)
            .output()
            .unwrap();
        assert!(out.status.success(), "{case}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        let lines = |s: &str| -> Vec<String> {
            s.lines()
                .filter(|l| !l.starts_with("telemetry :"))
                .map(String::from)
                .collect()
        };
        assert_eq!(
            lines(&stdout),
            lines(&String::from_utf8_lossy(&plain.stdout)),
            "{case}: the harness never changes stdout"
        );
        let text = std::fs::read_to_string(&log).unwrap_or_else(|e| panic!("{case}: {e}"));
        let events: Vec<&str> = text
            .lines()
            .filter_map(|l| l.split("\"ev\":\"").nth(1)?.split('"').next())
            .collect();
        assert_eq!(events.first(), Some(&"plan"), "{case}: {text}");
        assert_eq!(events.last(), Some(&"harness_summary"), "{case}: {text}");
        for ev in ["compile_start", "compile_finish", "sim_start", "sim_finish"] {
            assert_eq!(
                events.iter().filter(|e| **e == ev).count(),
                1,
                "{case}: one {ev} in {text}"
            );
        }
        assert!(
            text.contains("\"label\":\"sim:run:bitcount:"),
            "{case}: {text}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_save_and_restore_record_their_simulation_in_the_harness() {
    let dir = std::env::temp_dir().join("ccr-cli-snapshot-harness");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("bitcount.snap.jsonl");
    let snap = snap.to_str().unwrap();
    for (cmd, args) in [
        (
            "save",
            &["bitcount", "--at-cycle", "1000", "--out", snap][..],
        ),
        ("restore", &[snap][..]),
    ] {
        let log = dir.join(format!("{cmd}.jsonl"));
        let out = ccr()
            .args(["snapshot", cmd])
            .args(args)
            .arg("--harness-out")
            .arg(&log)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{cmd}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = std::fs::read_to_string(&log).unwrap();
        let events: Vec<&str> = text
            .lines()
            .filter_map(|l| l.split("\"ev\":\"").nth(1)?.split('"').next())
            .collect();
        assert_eq!(events.first(), Some(&"plan"), "{cmd}: {text}");
        for ev in ["compile_finish", "sim_start", "sim_finish"] {
            assert_eq!(
                events.iter().filter(|e| **e == ev).count(),
                1,
                "{cmd}: one {ev} in {text}"
            );
        }
        assert!(
            text.contains("\"label\":\"sim:snapshot:bitcount:"),
            "{cmd}: {text}"
        );
        assert!(
            text.contains("\"sims\":1,"),
            "{cmd}: the plan counts one sim"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpointed_exp_resumes_byte_identically() {
    let dir = std::env::temp_dir().join("ccr-cli-checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("fig10.ckpt.jsonl");
    let run = |out: &str| {
        let out = ccr()
            .args(["exp", "fig10", "--checkpoint"])
            .arg(&ckpt)
            .arg("--no-store")
            .arg("--out")
            .arg(dir.join(out))
            .output()
            .unwrap();
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(out.status.success(), "{stderr}");
        stderr
    };
    let first = run("a");
    assert!(!first.contains("restored"), "{first}");
    let journal = std::fs::read_to_string(&ckpt).unwrap();
    let second = run("b");
    assert!(
        second.contains("checkpoint: restored 26 of 26 sim unit(s)"),
        "{second}"
    );
    assert_eq!(std::fs::read_to_string(&ckpt).unwrap(), journal);
    for name in [
        "fig10_distribution.txt",
        "fig10_distribution.distribution.csv",
    ] {
        assert_eq!(
            std::fs::read(dir.join("a").join(name)).unwrap(),
            std::fs::read(dir.join("b").join(name)).unwrap(),
            "{name}"
        );
    }

    // A journal from before the current key format (v2 baseline keys
    // hashed every machine field) is refused in one line, not loaded
    // as dead cache entries.
    std::fs::write(&ckpt, "{\"ckpt_v\":2,\"key\":\"base|x\"}\n").unwrap();
    let out = ccr()
        .args(["exp", "fig10", "--checkpoint"])
        .arg(&ckpt)
        .arg("--no-store")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
    assert_eq!(errors.len(), 1, "{stderr}");
    assert!(
        errors[0].ends_with("unknown ckpt_v 2 (known: [4])"),
        "{stderr}"
    );
    assert!(!stderr.contains("usage:"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_fingerprinted_exp_resumes_the_baselines_of_a_plain_checkpoint() {
    let dir = std::env::temp_dir().join("ccr-cli-checkpoint-fp");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("width.ckpt.jsonl");
    let run = |extra: &[&str]| {
        let out = ccr()
            .args(["exp", "width", "--checkpoint"])
            .arg(&ckpt)
            .arg("--no-store")
            .args(extra)
            .output()
            .unwrap();
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(out.status.success(), "{stderr}");
        stderr
    };
    run(&[]);
    let plain = std::fs::read_to_string(&ckpt).unwrap();
    // Baselines carry no fingerprint, so a fingerprinted run reads the
    // plain run's baseline lines and simulates only its CCR points.
    let second = run(&["--fingerprint"]);
    assert!(
        second.contains("checkpoint: restored 52 of 104 sim unit(s)"),
        "{second}"
    );
    assert!(second.contains("(0 baseline + "), "{second}");
    let journal = std::fs::read_to_string(&ckpt).unwrap();
    let added: Vec<&str> = journal[plain.len()..].lines().collect();
    assert_eq!(added.len(), 52, "one line per fingerprinted CCR point");
    assert!(added.iter().all(|l| !l.contains("\"key\":\"base|")));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every live producer of run-store records (`ccr exp`, `ccr bench`,
/// `ccr profile`, a served point) measures the paper-configuration
/// `lex` point the same way: whatever the record's `source`, its
/// simulated numbers must agree field for field.
#[cfg(unix)]
#[test]
#[cfg_attr(debug_assertions, ignore = "slow in debug builds; run with --release")]
fn every_store_source_records_the_same_point_identically() {
    let dir = std::env::temp_dir().join("ccr-cli-cross-source");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("store.jsonl");
    let store_args = ["--store", store.to_str().unwrap(), "--at", "1"];
    let ok = |out: std::process::Output| {
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    ok(ccr()
        .args(["exp", "fig8b", "--out"])
        .arg(dir.join("exp"))
        .args(store_args)
        .output()
        .unwrap());
    ok(ccr()
        .args(["bench", "--only", "lex", "--host-reps", "1", "--out"])
        .arg(dir.join("BENCH.json"))
        .args(store_args)
        .output()
        .unwrap());
    ok(ccr()
        .args(["profile", "lex", "--telemetry"])
        .arg(dir.join("profile"))
        .args(store_args)
        .output()
        .unwrap());

    let socket = dir.join("ccr.sock");
    let mut server = ccr()
        .args([
            "serve",
            "--socket",
            socket.to_str().unwrap(),
            "--harness-out",
        ])
        .arg(dir.join("serve.jsonl"))
        .args(store_args)
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    for _ in 0..500 {
        if socket.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let submit = |extra: &[&str]| {
        ccr()
            .args(["submit", "--socket", socket.to_str().unwrap()])
            .args(extra)
            .output()
            .unwrap()
    };
    ok(submit(&["--workload", "lex"]));
    ok(submit(&["--shutdown"]));
    assert!(server.wait().unwrap().success());

    let paper = ccr::config_hash(
        &ccr::sim::MachineConfig::paper(),
        &ccr::sim::CrbConfig::paper(),
    );
    let records: Vec<_> = ccr_analyze::RunStore::load(&store)
        .unwrap()
        .records
        .into_iter()
        .filter(|r| {
            r.workload == "lex" && r.input == "train" && r.scale == 1 && r.config_hash == paper
        })
        .collect();
    let mut sources: Vec<&str> = records.iter().map(|r| r.source.as_str()).collect();
    sources.sort_unstable();
    assert_eq!(sources, ["bench", "exp", "profile", "serve"]);
    let view = |r: &ccr_analyze::RunRecord| {
        (
            r.base_cycles,
            r.ccr_cycles,
            r.speedup.to_bits(),
            r.hit_rate.to_bits(),
            r.miss_causes,
            r.regions,
        )
    };
    for r in &records {
        assert_eq!(
            view(r),
            view(&records[0]),
            "{} vs {}",
            r.source,
            records[0].source
        );
        assert_eq!(r.timestamp, 1);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
