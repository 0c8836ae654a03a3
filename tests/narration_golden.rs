//! Golden-file test for the simulation narration.
//!
//! `ccr run --telemetry` and `ccr profile` write an `events.jsonl`
//! whose simulation part — every line from the first `sim_begin` on —
//! is fully deterministic: the reuse timeline, interval IPC windows,
//! the CRB event log, per-region summaries and run summaries, plus
//! `cycle_sample` stacks and miss `cause` fields in a profiled
//! capture. (The compile events before it carry wall-clock pass
//! timings and are left out.) This test regenerates four captures of
//! the `bitcount` smoke workload through the real binary and compares
//! their simulation lines byte for byte against the goldens in
//! `tests/fixtures/narration/`, pinning both the content and the order
//! of every narrated event:
//!
//! - `run.golden`: `ccr run bitcount --telemetry DIR`;
//! - `profile.golden`: `ccr profile bitcount --telemetry DIR`;
//! - `evict.golden`: `ccr run` with a 2-entry, 4-instance CRB, which
//!   adds `crb_evict` events;
//! - `conflict.golden`: `ccr run` with a 1-entry, 4-instance CRB,
//!   which adds `crb_conflict` events.
//!
//! To refresh after an intentional narration change:
//!
//! ```text
//! CCR_UPDATE_GOLDEN=1 cargo test --test narration_golden
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/narration")
        .join(name)
}

fn check_golden(path: &Path, actual: &str) {
    if std::env::var_os("CCR_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
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
         CCR_UPDATE_GOLDEN=1 cargo test --test narration_golden\n\
         --- expected ---\n{expected}\n--- actual ---\n{actual}",
        path.display()
    );
}

/// Runs `ccr <args> --telemetry DIR` and returns the simulation part
/// of `DIR/events.jsonl`.
fn sim_lines(case: &str, args: &[&str]) -> String {
    let dir = std::env::temp_dir().join(format!("ccr-narration-{case}"));
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_ccr"))
        .args(args)
        .arg("--telemetry")
        .arg(&dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "ccr {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let events = std::fs::read_to_string(dir.join("events.jsonl")).unwrap();
    let start = events
        .find("{\"v\":1,\"ev\":\"sim_begin\"")
        .expect("the capture narrates its simulations");
    let _ = std::fs::remove_dir_all(&dir);
    events[start..].to_string()
}

#[test]
fn run_narration_is_byte_stable() {
    let lines = sim_lines("run", &["run", "bitcount"]);
    check_golden(&fixture("run.golden"), &lines);
}

#[test]
fn profiled_narration_is_byte_stable() {
    let lines = sim_lines("profile", &["profile", "bitcount", "--no-store"]);
    assert!(lines.contains("\"ev\":\"cycle_sample\""));
    assert!(lines.contains("\"cause\":"));
    check_golden(&fixture("profile.golden"), &lines);
}

#[test]
fn crb_event_log_narration_is_byte_stable() {
    let args = ["run", "bitcount", "--entries", "2", "--instances", "4"];
    let lines = sim_lines("evict", &args);
    assert!(lines.contains("\"ev\":\"crb_evict\""));
    check_golden(&fixture("evict.golden"), &lines);
    let args = ["run", "bitcount", "--entries", "1", "--instances", "4"];
    let lines = sim_lines("conflict", &args);
    assert!(lines.contains("\"ev\":\"crb_conflict\""));
    check_golden(&fixture("conflict.golden"), &lines);
}
