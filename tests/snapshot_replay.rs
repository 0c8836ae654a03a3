//! State-trajectory observability contracts: snapshot/replay
//! bit-identity and fingerprint divergence bisection.
//!
//! Three things are pinned here:
//!
//! 1. **Replay bit-identity**: for every built-in workload, saving a
//!    [`SimSession`] at mid-run as `{"snap_v":1}` JSONL text and
//!    resuming it produces exactly the simulated outcome — returned
//!    values, every statistic, the final fingerprint chain hash — of
//!    an uninterrupted run. Checked serially and under a 4-worker
//!    pool: parallelism is a host concern and must not move a bit.
//! 2. **Bisection precision**: a deterministically perturbed twin run
//!    (the `CCR_FP_PERTURB` hook in the `ccr fingerprint` command)
//!    diverges at an exactly known window, and `ccr fingerprint
//!    --compare` names that window and cycle and exits 2.
//! 3. **Preflight errors**: pointing the snapshot/fingerprint
//!    commands at missing, corrupt, or future-versioned files, at a
//!    snapshot whose stored CRB fingerprints disagree with their
//!    inputs, or at a well-formed snapshot of a state the simulator
//!    never reaches, fails with exit 1 and one `error:` line — no
//!    usage dump, no panic, no hang. The bytes `ccr snapshot save`
//!    writes are pinned by digest.

use std::path::{Path, PathBuf};
use std::process::Command;

use ccr::profile::EmuConfig;
use ccr::sim::{parse_snapshot, write_snapshot, CrbConfig, MachineConfig, SimSession};
use ccr::workloads::{build, InputSet, NAMES};
use ccr::{compile_ccr, CompileConfig};

const WINDOW: u64 = 20_000;

fn emu() -> EmuConfig {
    EmuConfig {
        max_instrs: 200_000_000,
        max_depth: 512,
    }
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs one workload cold, then again with a save/restore round trip
/// through serialized snapshot text at roughly the midpoint. Returns
/// `(cold, resumed)` pairs of the full simulated outcome and the
/// final fingerprint chain hash.
type Trajectory = (ccr::sim::SimOutcome, u64);

fn round_trip(name: &str) -> (Trajectory, Trajectory) {
    let program = build(name, InputSet::Train, 1).expect("built-in workload");
    let config = CompileConfig {
        emu: emu(),
        ..CompileConfig::paper()
    };
    let compiled = compile_ccr(&program, &program, &config).expect("compiles");
    let machine = MachineConfig::paper();
    let crb = CrbConfig::paper();

    let mut cold = SimSession::new(
        &compiled.annotated,
        &machine,
        Some(crb),
        emu(),
        Some(WINDOW),
    );
    cold.run_to_end().expect("cold run completes");
    let cold_hash = cold.final_hash().expect("finished run has a final hash");
    let midpoint = cold.cycles_so_far() / 2;
    let cold_view = (cold.into_outcome(), cold_hash);

    let mut first = SimSession::new(
        &compiled.annotated,
        &machine,
        Some(crb),
        emu(),
        Some(WINDOW),
    );
    first.run_until_cycle(midpoint).expect("first half runs");
    assert!(!first.finished(), "{name}: midpoint must be mid-run");
    // Round-trip through the serialized text, not the in-memory
    // struct: the JSONL encoder/decoder is part of the contract.
    let text = write_snapshot(
        &first
            .snapshot(name, "test-config")
            .expect("snapshot mid-run"),
    );
    let snap = parse_snapshot(name, &text).expect("snapshot text parses back");

    let mut resumed = SimSession::restore(&compiled.annotated, &machine, Some(crb), emu(), &snap)
        .expect("snapshot restores");
    resumed.run_to_end().expect("resumed run completes");
    let resumed_hash = resumed.final_hash().expect("finished run has a final hash");
    let resumed_view = (resumed.into_outcome(), resumed_hash);
    (cold_view, resumed_view)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow in debug builds; run with --release")]
fn save_restore_is_bit_identical_for_every_workload_serial_and_parallel() {
    for jobs in [1, 4] {
        let results = ccr::parallel_map(&NAMES, jobs, |_, name| round_trip(name));
        for (name, (cold, resumed)) in NAMES.iter().zip(&results) {
            assert_eq!(
                cold.0.run, resumed.0.run,
                "{name}: architectural results must match (jobs={jobs})"
            );
            assert_eq!(
                cold.0.stats, resumed.0.stats,
                "{name}: every statistic must match (jobs={jobs})"
            );
            assert_eq!(
                cold.1, resumed.1,
                "{name}: final trajectory hash must match (jobs={jobs})"
            );
        }
    }
}

fn ccr_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ccr"))
}

/// One `error:` line on stderr, exit 1, and no usage dump — the
/// preflight contract for operational mistakes.
fn assert_one_line_failure(output: &std::process::Output, what: &str) {
    assert_eq!(output.status.code(), Some(1), "{what}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.starts_with("error: "), "{what}: {stderr}");
    assert_eq!(stderr.trim_end().lines().count(), 1, "{what}: {stderr}");
    assert!(!stderr.contains("usage:"), "{what}: {stderr}");
}

#[test]
fn cli_snapshot_save_restore_reproduces_the_cold_fingerprint() {
    let dir = temp_dir("ccr-snapshot-cli-test");
    let snap = dir.join("bitcount.snap.jsonl");

    // Cold fingerprint of the smoke workload at a window small enough
    // to seal several digests within its ~2.7k cycles.
    let cold = ccr_bin()
        .args(["fingerprint", "bitcount", "--window", "500", "--out"])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(cold.status.success());
    // The digest file's bytes are pinned.
    let digest = std::fs::read_to_string(dir.join("bitcount.fp.jsonl")).unwrap();
    assert_eq!(ccr::fnv1a_hex(digest.as_bytes()), "b6f09d32452b6bba");
    let cold_stdout = String::from_utf8(cold.stdout).unwrap();
    let final_hash = cold_stdout
        .split("final ")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .expect("fingerprint output names the final hash")
        .to_string();
    assert_eq!(final_hash.len(), 16, "{cold_stdout}");

    let save = ccr_bin()
        .args([
            "snapshot",
            "save",
            "bitcount",
            "--at-cycle",
            "1000",
            "--window",
            "500",
            "--out",
            snap.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        save.status.success(),
        "{}",
        String::from_utf8_lossy(&save.stderr)
    );
    assert!(snap.is_file());
    let save_stdout = String::from_utf8(save.stdout).unwrap();
    assert!(
        save_stdout.contains("workload   : bitcount:train@1"),
        "{save_stdout}"
    );

    let restore = ccr_bin()
        .args(["snapshot", "restore", snap.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        restore.status.success(),
        "{}",
        String::from_utf8_lossy(&restore.stderr)
    );
    let restore_stdout = String::from_utf8(restore.stdout).unwrap();
    assert!(
        restore_stdout.contains(&final_hash),
        "resumed run must land on the cold trajectory hash {final_hash}:\n{restore_stdout}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_snapshot_bytes_are_pinned_and_unreachable_states_are_refused() {
    let dir = temp_dir("ccr-snapshot-pin-test");
    let path = dir.join("m88ksim.snap.jsonl");
    let save = ccr_bin()
        .args(["snapshot", "save", "124.m88ksim", "--at-cycle", "20000"])
        .arg("--out")
        .arg(&path)
        .output()
        .unwrap();
    assert!(
        save.status.success(),
        "{}",
        String::from_utf8_lossy(&save.stderr)
    );
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(ccr::fnv1a_hex(text.as_bytes()), "e19b5fd4e576b67b");

    // Three well-formed copies of states the simulator never reaches:
    // a recording whose output register lies outside its function, an
    // issue group that could never close, and pipeline clocks at the
    // end of time. Each is refused on restore with one line, not a
    // panic or a hang mid-run.
    let memo = text.find(r#""memo":{"#).expect("a recording is in flight");
    let outputs = memo + text[memo..].find(r#""outputs":["#).unwrap() + r#""outputs":["#.len();
    let near = u64::MAX - 1;
    let crafted = [
        format!("{}900000,{}", &text[..outputs], &text[outputs..]),
        set_number(&set_number(&text, "slot_cycle", u64::MAX), "slots_used", 6),
        set_number(&set_number(&text, "last_issue", near), "slot_cycle", near),
    ];
    for (k, bad) in crafted.iter().enumerate() {
        let bad_path = dir.join(format!("crafted{k}.snap.jsonl"));
        std::fs::write(&bad_path, bad).unwrap();
        let restore = ccr_bin()
            .args(["snapshot", "restore"])
            .arg(&bad_path)
            .output()
            .unwrap();
        assert_one_line_failure(&restore, &format!("crafted snapshot {k}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `text` with the first `"key":<digits>` set to `value`.
fn set_number(text: &str, key: &str, value: u64) -> String {
    let field = format!("\"{key}\":");
    let at = text.find(&field).expect("the key is present") + field.len();
    let len = text[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
    format!("{}{value}{}", &text[..at], &text[at + len..])
}

#[test]
fn cli_compare_pins_the_exact_first_divergent_window() {
    let dir = temp_dir("ccr-bisect-cli-test");
    let run = |out: &Path, perturb: Option<&str>| {
        let mut cmd = ccr_bin();
        cmd.args([
            "fingerprint",
            "bitcount",
            "--window",
            "500",
            "--out",
            out.to_str().unwrap(),
        ]);
        match perturb {
            Some(n) => cmd.env("CCR_FP_PERTURB", n),
            None => cmd.env_remove("CCR_FP_PERTURB"),
        };
        let output = cmd.output().unwrap();
        assert!(
            output.status.success(),
            "{}",
            String::from_utf8_lossy(&output.stderr)
        );
    };
    run(&dir.join("a"), None);
    // The hook flips one CRB bit right after window 2 seals, so the
    // twin's chain first diverges at window 2 — boundary cycle
    // (2 + 1) * 500 = 1500.
    run(&dir.join("b"), Some("2"));

    let compare = ccr_bin()
        .args([
            "fingerprint",
            "--compare",
            dir.join("a/bitcount.fp.jsonl").to_str().unwrap(),
            dir.join("b/bitcount.fp.jsonl").to_str().unwrap(),
            "--out",
            dir.join("dump").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(compare.status.code(), Some(2), "divergence exits 2");
    let stdout = String::from_utf8(compare.stdout).unwrap();
    assert!(
        stdout.contains("divergence at window 2 (cycle 1500):"),
        "{stdout}"
    );
    // The un-perturbed side is what a clean local replay reproduces.
    assert!(stdout.contains("matches side A"), "{stdout}");
    assert!(
        dir.join("dump/bitcount.diverge.w2.snap.jsonl").is_file(),
        "pre-divergence snapshot dumped for inspection"
    );

    // Identical digests exit 0.
    let same = ccr_bin()
        .args([
            "fingerprint",
            "--compare",
            dir.join("a/bitcount.fp.jsonl").to_str().unwrap(),
            dir.join("a/bitcount.fp.jsonl").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(same.status.success());
    assert!(
        String::from_utf8_lossy(&same.stdout).starts_with("identical:"),
        "identical digests report as identical"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_preflight_failures_are_one_line_each() {
    let dir = temp_dir("ccr-snapshot-preflight-test");

    let missing = ccr_bin()
        .args([
            "snapshot",
            "restore",
            dir.join("missing.snap.jsonl").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_one_line_failure(&missing, "missing snapshot");

    let corrupt_path = dir.join("corrupt.snap.jsonl");
    std::fs::write(&corrupt_path, "not json\n").unwrap();
    let corrupt = ccr_bin()
        .args(["snapshot", "restore", corrupt_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_one_line_failure(&corrupt, "corrupt snapshot");

    let future_path = dir.join("future.snap.jsonl");
    std::fs::write(
        &future_path,
        "{\"snap_v\":99,\"workload\":\"bitcount:train@1\",\"config_hash\":\"x\",\"cycle\":1}\n",
    )
    .unwrap();
    let future = ccr_bin()
        .args(["snapshot", "restore", future_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_one_line_failure(&future, "future snap_v");
    assert!(
        String::from_utf8_lossy(&future.stderr).contains("unknown snap_v 99"),
        "names the unknown version"
    );

    // A stored CRB fingerprint that disagrees with its instance's
    // inputs is refused rather than trusted by the lookup scan.
    let saved_path = dir.join("bitcount.snap.jsonl");
    let save = ccr_bin()
        .args([
            "snapshot",
            "save",
            "bitcount",
            "--at-cycle",
            "1000",
            "--out",
        ])
        .arg(&saved_path)
        .output()
        .unwrap();
    assert!(
        save.status.success(),
        "{}",
        String::from_utf8_lossy(&save.stderr)
    );
    let text = std::fs::read_to_string(&saved_path).unwrap();
    let valid = text.find(r#""valid":true"#).expect("a valid CRB instance");
    let digits = valid + text[valid..].find(r#""fp":"#).unwrap() + r#""fp":"#.len();
    let len = text[digits..].find(|c: char| !c.is_ascii_digit()).unwrap();
    let fp: u64 = text[digits..digits + len].parse().unwrap();
    let tampered_path = dir.join("tampered.snap.jsonl");
    std::fs::write(
        &tampered_path,
        format!("{}{}{}", &text[..digits], fp ^ 1, &text[digits + len..]),
    )
    .unwrap();
    let tampered = ccr_bin()
        .args(["snapshot", "restore", tampered_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_one_line_failure(&tampered, "tampered fingerprint");
    assert!(
        String::from_utf8_lossy(&tampered.stderr).contains("instance 0: fingerprint "),
        "names the entry and slot"
    );

    let missing_digest = ccr_bin()
        .args([
            "fingerprint",
            "--compare",
            dir.join("missing.fp.jsonl").to_str().unwrap(),
            dir.join("missing.fp.jsonl").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_one_line_failure(&missing_digest, "missing digest");

    let _ = std::fs::remove_dir_all(&dir);
}

/// The five measurement lines `ccr run` prints, in order.
fn measurement_lines(stdout: &str) -> Vec<&str> {
    let lines: Vec<&str> = stdout
        .lines()
        .filter(|l| {
            ["program", "regions", "baseline", "with CCR", "speedup"]
                .iter()
                .any(|key| l.starts_with(key))
        })
        .collect();
    assert_eq!(lines.len(), 5, "{stdout}");
    lines
}

fn run_ok(args: &[&str]) -> String {
    let out = ccr_bin().args(args).output().unwrap();
    assert!(
        out.status.success(),
        "ccr {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn cli_run_snapshot_flags_reproduce_the_cold_measurement() {
    let dir = temp_dir("ccr-run-snapshot-cli-test");
    let snap = dir.join("bitcount.snap.jsonl");
    let snap = snap.to_str().unwrap();

    let cold = run_ok(&["run", "bitcount"]);
    let fingerprint = run_ok(&["fingerprint", "bitcount"]);
    let final_hash = fingerprint
        .split("final ")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .expect("fingerprint output names the final hash");

    let saved = run_ok(&[
        "run",
        "bitcount",
        "--save-snapshot",
        snap,
        "--snapshot-cycle",
        "1000",
    ]);
    let resumed = run_ok(&["run", "bitcount", "--restore-snapshot", snap]);
    for (what, stdout) in [("save", &saved), ("restore", &resumed)] {
        assert_eq!(
            measurement_lines(stdout),
            measurement_lines(&cold),
            "{what}: the measurement must equal the cold run's"
        );
        assert!(
            stdout.contains(&format!("fingerprint: {final_hash} ")),
            "{what}: must land on the cold trajectory hash {final_hash}:\n{stdout}"
        );
    }

    let other_config = ccr_bin()
        .args(["run", "bitcount", "--restore-snapshot", snap])
        .args(["--entries", "64"])
        .output()
        .unwrap();
    assert_one_line_failure(&other_config, "resume under another CRB configuration");
    let other_workload = ccr_bin()
        .args(["run", "lex", "--restore-snapshot", snap])
        .output()
        .unwrap();
    assert_one_line_failure(&other_workload, "resume as another workload");

    for args in [
        &["--save-snapshot", snap, "--restore-snapshot", snap][..],
        &["--save-snapshot", snap][..],
    ] {
        let out = ccr_bin()
            .args(["run", "bitcount"])
            .args(args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage:"),
            "{args:?} is a usage error: {stderr}"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}
