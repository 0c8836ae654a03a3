//! The `BENCH_ccr.json` schema — the repo's committed perf trajectory.
//!
//! `ccr bench` runs the standard workload suite and snapshots one
//! [`BenchReport`]: per-workload baseline/CCR cycle counts, speedup,
//! and hit rate, plus the provenance needed to tell whether two
//! snapshots are comparable. The simulator's cycle counts are
//! deterministic, so CI can gate on *zero* cycle drift against the
//! committed baseline; `wall_ms` is recorded for orientation but never
//! gated (it varies run to run and machine to machine). Schema v2 adds
//! a derived `sim_cycles_per_host_sec` host-throughput figure per
//! workload — gated only with a generous, explicitly requested
//! tolerance — and a `git_commit` provenance field. v1 snapshots stay
//! readable: the new fields read as `0.0` / `"unknown"`.
//!
//! The file is the `bench_schema_version` tag followed by the one
//! lenient `record!` declaration of [`BenchReport`] and of its
//! [`BenchWorkload`] rows (`ccr_telemetry::record`), which derives both
//! the writer and the reader: a missing or mistyped field reads as 0 or
//! `""`, except the legacy defaults (`git_commit` reads `"unknown"`,
//! `host_reps` reads 1) and the `workloads` array, which must be there.

use ccr_telemetry::record::{Codec, Record, Strict};
use ccr_telemetry::{record, JsonWriter};

use crate::store::RunRecord;
use crate::value::{self, Value};

/// Version of the `BENCH_ccr.json` schema this crate writes.
pub const BENCH_SCHEMA_VERSION: u32 = 2;

/// Schema versions [`BenchReport::from_json`] understands.
pub const KNOWN_BENCH_VERSIONS: &[u64] = &[1, 2];

/// One workload's measured numbers.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BenchWorkload {
    /// Workload name (from the suite registry).
    pub name: String,
    /// Baseline simulation cycles (deterministic).
    pub base_cycles: u64,
    /// CCR simulation cycles (deterministic).
    pub ccr_cycles: u64,
    /// base_cycles / ccr_cycles.
    pub speedup: f64,
    /// Aggregate CRB hit rate.
    pub hit_rate: f64,
    /// Reuse regions formed by the compiler.
    pub regions: u64,
    /// Host wall time for the workload, ms. Informational only —
    /// never compared by `ccr diff`.
    pub wall_ms: u64,
    /// Simulated cycles (base + CCR) retired per host second —
    /// the simulator's own throughput on this machine. `0.0` when
    /// wall time was too small to measure, or on v1 snapshots.
    /// Gated only when a host-throughput threshold is explicitly
    /// set (it is host-dependent, so the default gate ignores it).
    pub sim_cycles_per_host_sec: f64,
}

impl BenchWorkload {
    /// Derives the host-throughput figure from the cycle counts and
    /// measured wall time: `(base + ccr) / wall_seconds`, or `0.0`
    /// when the wall time is below the clock's resolution.
    pub fn host_throughput(base_cycles: u64, ccr_cycles: u64, wall_ms: u64) -> f64 {
        if wall_ms == 0 {
            return 0.0;
        }
        (base_cycles + ccr_cycles) as f64 / (wall_ms as f64 / 1000.0)
    }
}

impl From<&RunRecord> for BenchWorkload {
    /// The snapshot row of a measured point's store record (the
    /// inverse of [`crate::store::records_from_bench`]).
    fn from(r: &RunRecord) -> BenchWorkload {
        BenchWorkload {
            name: r.workload.clone(),
            base_cycles: r.base_cycles,
            ccr_cycles: r.ccr_cycles,
            speedup: r.speedup,
            hit_rate: r.hit_rate,
            regions: r.regions,
            wall_ms: r.wall_ms,
            sim_cycles_per_host_sec: r.sim_cycles_per_host_sec,
        }
    }
}

/// Geometric mean of the nonzero per-workload host-throughput figures
/// — the suite-level `sim_cycles_per_host_sec` aggregate the CI bench
/// gate compares across runs. The geomean (rather than a sum or
/// arithmetic mean) weights every workload's *ratio* equally, so one
/// long workload cannot mask a collapse on the short ones; workloads
/// whose wall time was unmeasurable (`0.0`) are excluded rather than
/// zeroing the product. Returns `0.0` when no workload has a figure.
pub fn geomean_host_throughput(workloads: &[BenchWorkload]) -> f64 {
    let figures: Vec<f64> = workloads
        .iter()
        .map(|w| w.sim_cycles_per_host_sec)
        .filter(|&t| t > 0.0)
        .collect();
    if figures.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = figures.iter().map(|t| t.ln()).sum();
    (log_sum / figures.len() as f64).exp()
}

/// A full suite snapshot.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BenchReport {
    /// Suite name (`ccr` for the standard suite).
    pub suite: String,
    /// Input set the suite ran with.
    pub input: String,
    /// Scale factor.
    pub scale: u64,
    /// Machine/CRB configuration hash (comparability gate).
    pub config_hash: String,
    /// Version of the crate that produced the snapshot.
    pub crate_version: String,
    /// Git commit of the producing checkout (v2; `"unknown"` on v1
    /// snapshots or outside a checkout).
    pub git_commit: String,
    /// Host-timing repetitions behind each workload's `wall_ms`
    /// (`ccr bench --host-reps N` records the median of N). Additive
    /// v2 field: absent reads as `1` (single-shot timing).
    pub host_reps: u64,
    /// Suite-level host throughput: the geometric mean of the
    /// per-workload `sim_cycles_per_host_sec` figures (see
    /// [`geomean_host_throughput`]). The aggregate the CI gate
    /// compares. Additive v2 field: absent reads as `0.0`
    /// (untracked).
    pub agg_sim_cycles_per_host_sec: f64,
    /// Synthetic concurrent clients behind the service-throughput
    /// baseline (0 when the bench run measured none). Additive field
    /// under v2: absent reads as `0`, so v1/v2 snapshots still parse.
    pub serve_clients: u64,
    /// Service throughput baseline: completed request points per host
    /// second with [`BenchReport::serve_clients`] synthetic clients
    /// sweeping overlapping points through one engine (0.0 when
    /// unmeasured). Additive field under v2: absent reads as `0.0`.
    pub serve_points_per_sec: f64,
    /// Per-workload results, in suite order.
    pub workloads: Vec<BenchWorkload>,
}

record!(Lenient BenchReport {
    suite, input, scale, config_hash, crate_version, git_commit: Legacy, host_reps: Legacy,
    agg_sim_cycles_per_host_sec, serve_clients, serve_points_per_sec, workloads: Workloads,
});
record!(Lenient BenchWorkload {
    name, base_cycles, ccr_cycles, speedup, hit_rate, regions, wall_ms, sim_cycles_per_host_sec,
});

/// Fields older snapshots lack, read with their legacy meaning: a
/// missing or mistyped `git_commit` is `"unknown"` (v1), and a missing
/// or mistyped `host_reps` is 1 (single-shot timing).
struct Legacy;

impl Codec<String> for Legacy {
    fn put(commit: &String, key: &str, w: &mut JsonWriter) {
        Strict::put(commit, key, w);
    }
    fn get(v: &Value, key: &str, ctx: &str) -> Result<String, String> {
        Ok(Strict::get(v, key, ctx).unwrap_or_else(|_| "unknown".to_string()))
    }
}

impl Codec<u64> for Legacy {
    fn put(reps: &u64, key: &str, w: &mut JsonWriter) {
        Strict::put(reps, key, w);
    }
    fn get(v: &Value, key: &str, ctx: &str) -> Result<u64, String> {
        Ok(Strict::get(v, key, ctx).unwrap_or(1))
    }
}

/// The per-workload rows, which every snapshot has.
struct Workloads;

impl Codec<Vec<BenchWorkload>> for Workloads {
    fn put(rows: &Vec<BenchWorkload>, key: &str, w: &mut JsonWriter) {
        Strict::put(rows, key, w);
    }
    fn get(v: &Value, key: &str, ctx: &str) -> Result<Vec<BenchWorkload>, String> {
        Strict::get(v, key, ctx).map_err(|_| "BENCH json missing `workloads` array".to_string())
    }
}

impl BenchReport {
    /// Serializes the snapshot as `BENCH_ccr.json`. Deterministic for
    /// fixed measurements (only `wall_ms` and the derived host
    /// throughput vary between otherwise identical runs).
    pub fn to_json(&self) -> String {
        let mut out = record::object(
            |w| {
                w.key("bench_schema_version")
                    .u64_val(u64::from(BENCH_SCHEMA_VERSION));
            },
            self,
        );
        out.push('\n');
        out
    }

    /// Reads a snapshot back from its JSON form (v1 or v2).
    ///
    /// # Errors
    ///
    /// Malformed JSON, an unknown `bench_schema_version`, or a missing
    /// `workloads` array.
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let v = value::parse(text.trim()).map_err(|e| e.to_string())?;
        value::check_version(&v, "bench_schema_version", KNOWN_BENCH_VERSIONS)?;
        BenchReport::get_fields(&v, "BENCH json")
    }

    /// Renders the table `ccr bench` prints.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<16} {:>12} {:>12} {:>8} {:>8} {:>8} {:>8} {:>10}",
            "workload",
            "base_cycles",
            "ccr_cycles",
            "speedup",
            "hit%",
            "regions",
            "wall_ms",
            "Mcyc/s"
        );
        for wl in &self.workloads {
            let _ = writeln!(
                out,
                "{:<16} {:>12} {:>12} {:>7.3}x {:>7.1}% {:>8} {:>8} {:>10.1}",
                wl.name,
                wl.base_cycles,
                wl.ccr_cycles,
                wl.speedup,
                wl.hit_rate * 100.0,
                wl.regions,
                wl.wall_ms,
                wl.sim_cycles_per_host_sec / 1.0e6
            );
        }
        if self.agg_sim_cycles_per_host_sec > 0.0 {
            let _ = writeln!(
                out,
                "host throughput (geomean) {:>10.1} Mcyc/s over {} rep{}",
                self.agg_sim_cycles_per_host_sec / 1.0e6,
                self.host_reps,
                if self.host_reps == 1 { "" } else { "s" }
            );
        }
        if self.serve_points_per_sec > 0.0 {
            let _ = writeln!(
                out,
                "serve throughput {:>19.2} points/s at {} client{}",
                self.serve_points_per_sec,
                self.serve_clients,
                if self.serve_clients == 1 { "" } else { "s" }
            );
        }
        let _ = writeln!(
            out,
            "suite {} ({}, scale {}), config {}, v{}, commit {}",
            self.suite,
            self.input,
            self.scale,
            self.config_hash,
            self.crate_version,
            short_commit(&self.git_commit)
        );
        out
    }
}

/// Abbreviates a 40-hex commit id to 12 characters for display;
/// passes `"unknown"` (or anything shorter) through untouched.
pub fn short_commit(commit: &str) -> &str {
    if commit.len() >= 12 && commit.bytes().all(|b| b.is_ascii_hexdigit()) {
        &commit[..12]
    } else {
        commit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        BenchReport {
            suite: "ccr".into(),
            input: "train".into(),
            scale: 1,
            config_hash: "00ff00ff00ff00ff".into(),
            crate_version: "0.1.0".into(),
            git_commit: "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa".into(),
            host_reps: 3,
            agg_sim_cycles_per_host_sec: BenchWorkload::host_throughput(123_456, 100_000, 42),
            serve_clients: 2,
            serve_points_per_sec: 3.5,
            workloads: vec![
                BenchWorkload {
                    name: "008.espresso".into(),
                    base_cycles: 123_456,
                    ccr_cycles: 100_000,
                    speedup: 1.23456,
                    hit_rate: 0.8125,
                    regions: 7,
                    wall_ms: 42,
                    sim_cycles_per_host_sec: BenchWorkload::host_throughput(123_456, 100_000, 42),
                },
                BenchWorkload {
                    name: "130.li".into(),
                    base_cycles: 99,
                    ccr_cycles: 99,
                    speedup: 1.0,
                    hit_rate: 0.0,
                    regions: 0,
                    wall_ms: 0,
                    sim_cycles_per_host_sec: 0.0,
                },
            ],
        }
    }

    #[test]
    fn json_round_trips_exactly() {
        let report = sample();
        let text = report.to_json();
        assert!(text.starts_with("{\"bench_schema_version\":2,"));
        assert!(text.ends_with("}\n"));
        let back = BenchReport::from_json(&text).unwrap();
        assert_eq!(back, report);
        // And re-serialization is byte-identical, here and on the
        // committed snapshot.
        assert_eq!(back.to_json(), text);
        let committed = include_str!("../../../BENCH_ccr.json");
        assert_eq!(
            BenchReport::from_json(committed).unwrap().to_json(),
            committed
        );
    }

    #[test]
    fn v1_snapshots_stay_readable() {
        let v1 = r#"{"bench_schema_version":1,"suite":"ccr","input":"train","scale":1,
            "config_hash":"00ff00ff00ff00ff","crate_version":"0.1.0",
            "workloads":[{"name":"008.espresso","base_cycles":100,"ccr_cycles":80,
            "speedup":1.25,"hit_rate":0.5,"regions":2,"wall_ms":10}]}"#;
        let report = BenchReport::from_json(v1).unwrap();
        assert_eq!(report.git_commit, "unknown");
        assert_eq!(report.host_reps, 1);
        assert_eq!(report.agg_sim_cycles_per_host_sec, 0.0);
        assert_eq!(report.serve_clients, 0);
        assert_eq!(report.serve_points_per_sec, 0.0);
        assert_eq!(report.workloads[0].sim_cycles_per_host_sec, 0.0);
        assert_eq!(report.workloads[0].base_cycles, 100);
        // Mistyped fields read as their defaults, the legacy ones too.
        let odd = v1
            .replace(
                r#""scale":1"#,
                r#""scale":"one","git_commit":7,"host_reps":-2"#,
            )
            .replace(r#""speedup":1.25"#, r#""speedup":"fast""#);
        let report = BenchReport::from_json(&odd).unwrap();
        assert_eq!((report.scale, report.git_commit.as_str()), (0, "unknown"));
        assert_eq!(report.host_reps, 1);
        assert_eq!(report.workloads[0].speedup, 0.0);
    }

    #[test]
    fn geomean_skips_unmeasured_workloads() {
        // 130.li in the sample has no host figure; the geomean must
        // cover only the measured workload, not zero out.
        let report = sample();
        let g = geomean_host_throughput(&report.workloads);
        let only = report.workloads[0].sim_cycles_per_host_sec;
        assert!((g - only).abs() < 1e-9, "{g} vs {only}");
        // Two measured workloads: geomean of 1e6 and 4e6 is 2e6.
        let two = vec![
            BenchWorkload {
                sim_cycles_per_host_sec: 1.0e6,
                ..BenchWorkload::default()
            },
            BenchWorkload {
                sim_cycles_per_host_sec: 4.0e6,
                ..BenchWorkload::default()
            },
        ];
        assert!((geomean_host_throughput(&two) - 2.0e6).abs() < 1e-3);
        // No figures at all: untracked, not NaN.
        assert_eq!(geomean_host_throughput(&[]), 0.0);
    }

    #[test]
    fn host_throughput_derivation() {
        // 180 kilocycles over 42 ms hosts at ~5.32 Mc/s.
        let t = BenchWorkload::host_throughput(123_456, 100_000, 42);
        assert!((t - 223_456.0 / 0.042).abs() < 1e-6, "{t}");
        assert_eq!(BenchWorkload::host_throughput(1, 1, 0), 0.0);
    }

    #[test]
    fn unknown_schema_version_is_rejected() {
        let text = sample()
            .to_json()
            .replace("\"bench_schema_version\":2", "\"bench_schema_version\":99");
        let err = BenchReport::from_json(&text).unwrap_err();
        assert!(err.contains("bench_schema_version 99"), "{err}");
        assert!(BenchReport::from_json("not json").is_err());
        // The one field a snapshot cannot do without.
        for rows in ["", r#","workloads":{}"#] {
            let text = format!(r#"{{"bench_schema_version":2,"suite":"ccr"{rows}}}"#);
            let err = BenchReport::from_json(&text).unwrap_err();
            assert_eq!(err, "BENCH json missing `workloads` array");
        }
    }

    #[test]
    fn render_lists_every_workload() {
        let s = sample().render();
        assert!(s.contains("008.espresso"), "{s}");
        assert!(s.contains("130.li"), "{s}");
        assert!(s.contains("1.235x"), "{s}");
        assert!(s.contains("Mcyc/s"), "{s}");
        assert!(s.contains("config 00ff00ff00ff00ff"), "{s}");
        assert!(s.contains("commit aaaaaaaaaaaa"), "{s}");
        assert!(s.contains("host throughput (geomean)"), "{s}");
        assert!(s.contains("over 3 reps"), "{s}");
        assert!(s.contains("serve throughput"), "{s}");
        assert!(s.contains("at 2 clients"), "{s}");
    }

    #[test]
    fn short_commit_abbreviates_only_hex_ids() {
        assert_eq!(
            short_commit("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"),
            "aaaaaaaaaaaa"
        );
        assert_eq!(short_commit("unknown"), "unknown");
        assert_eq!(short_commit("abc"), "abc");
    }
}
