//! The append-only cross-run store.
//!
//! Every per-run artifact in the repo is a *point sample*: one
//! `BENCH_ccr.json`, one `analysis.json`, one pass/fail bit from the
//! CI gate. The store turns those samples into a *history* — a
//! versioned JSONL database (`runs/store.jsonl` by default) with one
//! [`RunRecord`] per (workload, configuration) measurement, keyed by
//! git commit, FNV-1a config hash, and timestamp. `ccr bench`,
//! `ccr exp`, and `ccr profile` append records as they run (opt out
//! with `--no-store`); `ccr report import` backfills from existing
//! BENCH / analysis artifacts; `ccr report` reads the whole file back
//! and renders trends (see [`crate::report`]).
//!
//! Append-only JSONL is the point: appends are atomic enough for a
//! single writer, the file diffs cleanly in git, and a run killed
//! mid-append tears at most the final line. Loading is therefore
//! line-tolerant in exactly the [`crate::ingest`] sense — an
//! unparseable line (the classic torn final line) is counted in
//! [`RunStore::skipped_lines`] and skipped, while a line that *parses*
//! but carries an unknown `store_v` is a hard error, because silently
//! misreading a future schema is worse than failing.
//!
//! A line is the `store_v` tag followed by the one lenient `record!`
//! declaration of [`RunRecord`] (`ccr_telemetry::record`), which
//! derives both the writer and the reader: a missing or mistyped field
//! reads as 0 or `""`, so additive fields need no `store_v` bump.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;

use ccr_telemetry::record::{Codec, Lenient, Record};
use ccr_telemetry::{record, JsonWriter};

use crate::value::{self, Value};

/// Version of the run-store line schema (`store_v` on every line).
pub const STORE_SCHEMA_VERSION: u32 = 1;

/// Line schema versions [`RunStore::load`] understands.
pub const KNOWN_STORE_VERSIONS: &[u64] = &[1];

/// Default store location, relative to the repo root.
pub const DEFAULT_STORE_PATH: &str = "runs/store.jsonl";

/// One measured (workload, configuration) point at one moment in the
/// repo's history.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunRecord {
    /// Unix timestamp (seconds) of the run.
    pub timestamp: u64,
    /// Git commit of the producing checkout (`"unknown"` outside one).
    pub commit: String,
    /// Machine/CRB configuration hash (comparability key).
    pub config_hash: String,
    /// What appended the record: `bench`, `exp`, `profile`, or
    /// `import`.
    pub source: String,
    /// Workload name.
    pub workload: String,
    /// Input set (`train` / `ref`).
    pub input: String,
    /// Scale factor.
    pub scale: u64,
    /// Baseline simulation cycles.
    pub base_cycles: u64,
    /// CCR simulation cycles.
    pub ccr_cycles: u64,
    /// base_cycles / ccr_cycles.
    pub speedup: f64,
    /// Aggregate CRB hit rate.
    pub hit_rate: f64,
    /// Miss-cause mix, indexed like [`crate::MISS_CAUSES`]. All zero
    /// when the producer had no cause breakdown (bench snapshots,
    /// BENCH imports).
    pub miss_causes: [u64; 5],
    /// Reuse regions formed.
    pub regions: u64,
    /// Host wall time, ms (0 when unmeasured).
    pub wall_ms: u64,
    /// Simulated cycles per host second (0.0 when unmeasured).
    pub sim_cycles_per_host_sec: f64,
    /// Job-pool worker utilization of the producing harness run, in
    /// percent (0.0 when unmeasured — harness off, imports, and every
    /// record written before the field existed; readers default
    /// missing numeric fields to zero, so no `store_v` bump).
    pub host_util_pct: f64,
    /// Final determinism-fingerprint chain hash of the CCR run
    /// (16-digit lowercase hex; `""` when unmeasured — fingerprinting
    /// off, imports, and every record written before the field
    /// existed; readers default missing string fields to empty, so no
    /// `store_v` bump). Equal config hash + different fingerprint
    /// across commits means the simulated trajectory changed.
    pub fingerprint: String,
    /// Completed request points per host second of the producing
    /// `ccr serve` session (0.0 when unmeasured — one-shot producers,
    /// imports, and every record written before the field existed;
    /// readers default missing numeric fields to zero, so no
    /// `store_v` bump).
    pub points_per_sec: f64,
}

record!(Lenient RunRecord {
    timestamp = "ts", commit, config_hash, source, workload, input, scale, base_cycles,
    ccr_cycles, speedup, hit_rate, miss_causes: MissCauses, regions, wall_ms,
    sim_cycles_per_host_sec, host_util_pct, fingerprint, points_per_sec,
});

/// The miss-cause mix, flattened into one `miss_<cause>` counter per
/// [`crate::MISS_CAUSES`] entry: the run-store line's, the report's
/// CRB counters' and `analysis.json`'s totals and regions.
pub(crate) struct MissCauses;

impl Codec<[u64; 5]> for MissCauses {
    fn put(causes: &[u64; 5], _key: &str, w: &mut JsonWriter) {
        for (name, count) in crate::MISS_CAUSES.iter().zip(causes) {
            Lenient::put(count, &format!("miss_{name}"), w);
        }
    }
    fn get(v: &Value, _key: &str, ctx: &str) -> Result<[u64; 5], String> {
        let mut causes = [0u64; 5];
        for (slot, name) in causes.iter_mut().zip(crate::MISS_CAUSES) {
            *slot = Lenient::get(v, &format!("miss_{name}"), ctx)?;
        }
        Ok(causes)
    }
}

impl RunRecord {
    /// Serializes the record as one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        record::object(
            |w| {
                w.key("store_v").u64_val(u64::from(STORE_SCHEMA_VERSION));
            },
            self,
        )
    }

    /// The series this record belongs to: records with equal keys
    /// measured the same thing over time and are trend-comparable.
    pub fn series_key(&self) -> SeriesKey {
        (
            self.workload.clone(),
            self.input.clone(),
            self.scale,
            self.config_hash.clone(),
        )
    }
}

/// A trend series identity: `(workload, input, scale, config_hash)`.
pub type SeriesKey = (String, String, u64, String);

/// A loaded run store.
#[derive(Clone, Debug, Default)]
pub struct RunStore {
    /// All parsed records, in file (≈ append) order.
    pub records: Vec<RunRecord>,
    /// Lines skipped as unparseable (torn final lines, corruption).
    pub skipped_lines: u64,
}

impl RunStore {
    /// Loads a store file.
    ///
    /// # Errors
    ///
    /// One-line messages, CLI-ready: a missing file, an unreadable
    /// file, a line with an unknown `store_v`, or a file where *no*
    /// line parsed (indistinguishable from a non-store file).
    /// Individually unparseable lines among parseable ones are
    /// tolerated and counted in [`RunStore::skipped_lines`].
    pub fn load(path: &Path) -> Result<RunStore, String> {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(format!(
                    "{}: no run store here (runs append one via `ccr bench`; \
                     backfill with `ccr report import`; or pass --store)",
                    path.display()
                ));
            }
            Err(e) => return Err(format!("{}: {e}", path.display())),
        };
        let mut store = RunStore::default();
        for (idx, line) in text.lines().enumerate() {
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            let Ok(v) = value::parse(trimmed) else {
                store.skipped_lines += 1;
                continue;
            };
            let ctx = format!("{}:{}", path.display(), idx + 1);
            value::check_version(&v, "store_v", KNOWN_STORE_VERSIONS)
                .map_err(|e| format!("{ctx}: {e}"))?;
            store.records.push(RunRecord::get_fields(&v, &ctx)?);
        }
        if store.records.is_empty() && store.skipped_lines > 0 {
            return Err(format!(
                "{}: corrupt run store (0 records parsed, {} line(s) unreadable)",
                path.display(),
                store.skipped_lines
            ));
        }
        Ok(store)
    }

    /// Appends records to a store file, creating it (and its parent
    /// directory) on first use. One JSONL line per record.
    ///
    /// Appends are single-writer: a process-wide mutex serializes
    /// threads (a `ccr serve` session and its store hooks share one
    /// process), and a sidecar `<path>.lock` file — created with
    /// `O_CREAT|O_EXCL`, which is atomic on every platform we build
    /// for — serializes processes (a CLI run racing a serve session).
    /// The whole batch lands as one `write_all` on a descriptor in
    /// append mode, so concurrent writers never interleave mid-line
    /// and a loaded store sees `skipped_lines == 0`.
    ///
    /// # Errors
    ///
    /// Filesystem failures, as one-line messages — including a lock
    /// file another writer held for over 10 seconds (crashed holder;
    /// the message names the stale path to remove).
    pub fn append(path: &Path, records: &[RunRecord]) -> Result<(), String> {
        if records.is_empty() {
            return Ok(());
        }
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| format!("{}: {e}", parent.display()))?;
            }
        }
        let mut text = String::new();
        for rec in records {
            text.push_str(&rec.to_json_line());
            text.push('\n');
        }
        static IN_PROCESS: Mutex<()> = Mutex::new(());
        let _thread_guard = IN_PROCESS.lock().expect("store append lock");
        let _file_guard = AppendLock::acquire(path)?;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        file.write_all(text.as_bytes())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(())
    }

    /// Groups the records into trend series, each sorted by timestamp
    /// (stable, so file order breaks ties — later appends stay later).
    pub fn series(&self) -> BTreeMap<SeriesKey, Vec<&RunRecord>> {
        let mut out: BTreeMap<SeriesKey, Vec<&RunRecord>> = BTreeMap::new();
        for rec in &self.records {
            out.entry(rec.series_key()).or_default().push(rec);
        }
        for series in out.values_mut() {
            series.sort_by_key(|r| r.timestamp);
        }
        out
    }
}

/// A held cross-process append lock: the sidecar `<store>.lock` file,
/// removed on drop. `create_new` (`O_CREAT|O_EXCL`) is the only
/// advisory locking std offers portably; acquisition polls with a
/// bounded backoff and gives up after ~10 s so a crashed holder
/// surfaces as one actionable error instead of a hang.
struct AppendLock {
    path: std::path::PathBuf,
}

impl AppendLock {
    fn acquire(store: &Path) -> Result<AppendLock, String> {
        let mut lock_path = store.as_os_str().to_os_string();
        lock_path.push(".lock");
        let path = std::path::PathBuf::from(lock_path);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(_) => return Ok(AppendLock { path }),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    if std::time::Instant::now() >= deadline {
                        return Err(format!(
                            "{}: held by another writer for over 10s \
                             (remove it if that writer crashed)",
                            path.display()
                        ));
                    }
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                Err(e) => return Err(format!("{}: {e}", path.display())),
            }
        }
    }
}

impl Drop for AppendLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Builds one record per workload from a bench snapshot. BENCH files
/// carry no miss-cause breakdown, so the mix is all-zero (lossy by
/// design; records appended live by `ccr bench` itself get the real
/// mix from the simulator).
pub fn records_from_bench(
    report: &crate::BenchReport,
    timestamp: u64,
    source: &str,
) -> Vec<RunRecord> {
    report
        .workloads
        .iter()
        .map(|wl| RunRecord {
            timestamp,
            commit: report.git_commit.clone(),
            config_hash: report.config_hash.clone(),
            source: source.to_string(),
            workload: wl.name.clone(),
            input: report.input.clone(),
            scale: report.scale,
            base_cycles: wl.base_cycles,
            ccr_cycles: wl.ccr_cycles,
            speedup: wl.speedup,
            hit_rate: wl.hit_rate,
            miss_causes: [0; 5],
            regions: wl.regions,
            wall_ms: wl.wall_ms,
            sim_cycles_per_host_sec: wl.sim_cycles_per_host_sec,
            host_util_pct: 0.0,
            fingerprint: String::new(),
            points_per_sec: report.serve_points_per_sec,
        })
        .collect()
}

/// Builds one record from a saved `analysis.json`.
///
/// # Errors
///
/// What [`crate::Analysis::from_json`] refuses.
pub fn record_from_analysis_json(
    text: &str,
    timestamp: u64,
    commit_override: Option<&str>,
) -> Result<RunRecord, String> {
    Ok(RunRecord {
        timestamp,
        commit: commit_override.unwrap_or("unknown").to_string(),
        source: "import".to_string(),
        ..crate::Analysis::from_json(text)?.record(0)
    })
}

/// Renders a Unix timestamp as `YYYY-MM-DDTHH:MM:SSZ` — hand-rolled
/// (no chrono offline) with the standard civil-from-days conversion,
/// so store timestamps render identically on every host.
pub fn format_utc(timestamp: u64) -> String {
    let days = (timestamp / 86_400) as i64;
    let secs = timestamp % 86_400;
    // Howard Hinnant's civil_from_days, shifted to the 0000-03-01
    // era so leap days land at era boundaries.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!(
        "{:04}-{:02}-{:02}T{:02}:{:02}:{:02}Z",
        y,
        m,
        d,
        secs / 3600,
        (secs / 60) % 60,
        secs % 60
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ts: u64, workload: &str, ccr_cycles: u64) -> RunRecord {
        RunRecord {
            timestamp: ts,
            commit: "a".repeat(40),
            config_hash: "00ff00ff00ff00ff".into(),
            source: "bench".into(),
            workload: workload.into(),
            input: "train".into(),
            scale: 1,
            base_cycles: 1000,
            ccr_cycles,
            speedup: 1000.0 / ccr_cycles as f64,
            hit_rate: 0.75,
            miss_causes: [3, 2, 1, 0, 0],
            regions: 4,
            wall_ms: 20,
            sim_cycles_per_host_sec: 1.5e6,
            host_util_pct: 62.5,
            fingerprint: "00c0ffee00c0ffee".into(),
            points_per_sec: 2.25,
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ccr-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn record_round_trips_through_a_store_file() {
        let path = tmp("round_trip.jsonl");
        let _ = std::fs::remove_file(&path);
        let records = vec![rec(100, "w", 800), rec(200, "w", 810)];
        RunStore::append(&path, &records).unwrap();
        RunStore::append(&path, &[rec(300, "x", 500)]).unwrap();
        let store = RunStore::load(&path).unwrap();
        assert_eq!(store.skipped_lines, 0);
        assert_eq!(store.records.len(), 3);
        assert_eq!(store.records[0], records[0]);
        assert_eq!(store.records[1], records[1]);
        assert_eq!(store.records[2].workload, "x");
        // Every line carries the version tag.
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.lines().all(|l| l.starts_with("{\"store_v\":1,")),
            "{text}"
        );

        // The committed fixture, loaded and re-written line by line,
        // gives the same bytes as before the writer was a declaration.
        let fixture = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/fixtures/run_store/store.jsonl"
        );
        let lines: Vec<String> = RunStore::load(Path::new(fixture))
            .unwrap()
            .records
            .iter()
            .map(RunRecord::to_json_line)
            .collect();
        let hash = lines
            .join("\n")
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
        assert_eq!(format!("{hash:016x}"), "c8d5d391852cb551");
    }

    #[test]
    fn concurrent_appends_never_tear_lines() {
        let path = tmp("concurrent_appends.jsonl");
        let _ = std::fs::remove_file(&path);
        // Many writers hammering one store file: the append guard
        // must serialize them so every line lands whole — no torn,
        // interleaved, or lost records.
        const WRITERS: u64 = 8;
        const BATCH: u64 = 25;
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let path = &path;
                scope.spawn(move || {
                    for i in 0..BATCH {
                        RunStore::append(path, &[rec(w * BATCH + i, "w", 800 + i)]).unwrap();
                    }
                });
            }
        });
        let store = RunStore::load(&path).unwrap();
        assert_eq!(store.skipped_lines, 0, "a torn line would be skipped");
        assert_eq!(store.records.len(), (WRITERS * BATCH) as usize);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.lines().all(|l| l.starts_with("{\"store_v\":1,")),
            "every line starts a fresh record"
        );
        // Every writer's every record arrived exactly once.
        let mut stamps: Vec<u64> = store.records.iter().map(|r| r.timestamp).collect();
        stamps.sort_unstable();
        assert_eq!(stamps, (0..WRITERS * BATCH).collect::<Vec<_>>());
        // The sidecar lock was released.
        assert!(!path.with_extension("jsonl.lock").exists());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn append_creates_the_parent_directory() {
        let path = tmp("nested").join("deeper/store.jsonl");
        let _ = std::fs::remove_dir_all(tmp("nested"));
        RunStore::append(&path, &[rec(1, "w", 900)]).unwrap();
        assert_eq!(RunStore::load(&path).unwrap().records.len(), 1);
        // Appending nothing is a no-op that creates nothing.
        let ghost = tmp("nested").join("ghost/store.jsonl");
        RunStore::append(&ghost, &[]).unwrap();
        assert!(!ghost.exists());
    }

    #[test]
    fn missing_store_is_a_one_line_error() {
        let path = tmp("definitely-missing.jsonl");
        let _ = std::fs::remove_file(&path);
        let err = RunStore::load(&path).unwrap_err();
        assert!(err.contains("no run store here"), "{err}");
        assert!(!err.contains('\n'), "one line, CLI-ready: {err}");
    }

    #[test]
    fn torn_final_line_is_recovered_and_counted() {
        let path = tmp("torn.jsonl");
        let mut text = rec(100, "w", 800).to_json_line();
        text.push('\n');
        text.push_str("{\"store_v\":1,\"ts\":200,\"commit\":\"tor"); // killed mid-append
        std::fs::write(&path, text).unwrap();
        let store = RunStore::load(&path).unwrap();
        assert_eq!(store.records.len(), 1);
        assert_eq!(store.skipped_lines, 1);
    }

    #[test]
    fn fully_unparseable_store_is_an_error() {
        let path = tmp("garbage.jsonl");
        std::fs::write(&path, "not json at all\nstill not\n").unwrap();
        let err = RunStore::load(&path).unwrap_err();
        assert!(err.contains("corrupt run store"), "{err}");
        // An empty file, by contrast, is a valid empty store.
        let path = tmp("empty.jsonl");
        std::fs::write(&path, "").unwrap();
        let store = RunStore::load(&path).unwrap();
        assert!(store.records.is_empty());
        assert_eq!(store.skipped_lines, 0);
    }

    #[test]
    fn unknown_store_version_is_a_hard_error() {
        let path = tmp("future.jsonl");
        let mut text = rec(100, "w", 800).to_json_line();
        text.push('\n');
        text.push_str("{\"store_v\":99,\"ts\":200}\n");
        std::fs::write(&path, text).unwrap();
        let err = RunStore::load(&path).unwrap_err();
        assert!(err.contains("unknown store_v 99"), "{err}");
        assert!(err.contains(":2:"), "names the line: {err}");
    }

    #[test]
    fn series_group_and_sort_by_timestamp() {
        let path = tmp("series.jsonl");
        let _ = std::fs::remove_file(&path);
        // Appended out of time order, two workloads interleaved.
        let mut other = rec(150, "w", 790);
        other.config_hash = "1111111111111111".into();
        RunStore::append(
            &path,
            &[
                rec(300, "w", 820),
                rec(100, "w", 800),
                other,
                rec(200, "w", 810),
            ],
        )
        .unwrap();
        let store = RunStore::load(&path).unwrap();
        let series = store.series();
        assert_eq!(
            series.len(),
            2,
            "same workload, different config ⇒ two series"
        );
        let key = (
            "w".to_string(),
            "train".to_string(),
            1,
            "00ff00ff00ff00ff".to_string(),
        );
        let ts: Vec<u64> = series[&key].iter().map(|r| r.timestamp).collect();
        assert_eq!(ts, vec![100, 200, 300]);
    }

    #[test]
    fn bench_records_inherit_snapshot_provenance() {
        let report = crate::BenchReport {
            suite: "ccr".into(),
            input: "train".into(),
            scale: 1,
            config_hash: "00ff00ff00ff00ff".into(),
            crate_version: "0.1.0".into(),
            git_commit: "b".repeat(40),
            host_reps: 1,
            agg_sim_cycles_per_host_sec: 9.0e4,
            serve_clients: 0,
            serve_points_per_sec: 0.0,
            workloads: vec![crate::BenchWorkload {
                name: "008.espresso".into(),
                base_cycles: 1000,
                ccr_cycles: 800,
                speedup: 1.25,
                hit_rate: 0.8,
                regions: 4,
                wall_ms: 20,
                sim_cycles_per_host_sec: 9.0e4,
            }],
        };
        let recs = records_from_bench(&report, 12_345, "import");
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].commit, "b".repeat(40));
        assert_eq!(recs[0].source, "import");
        assert_eq!(recs[0].timestamp, 12_345);
        assert_eq!(recs[0].miss_causes, [0; 5], "BENCH imports are cause-lossy");
        assert_eq!(recs[0].sim_cycles_per_host_sec, 9.0e4);
    }

    #[test]
    fn analysis_import_carries_the_miss_mix() {
        let mut a = crate::Analysis::default();
        a.source.workload = "w".into();
        a.source.input = "train".into();
        a.source.scale = 1;
        a.source.config_hash = Some("00ff00ff00ff00ff".into());
        a.totals = crate::analysis::Totals {
            base_cycles: 1000,
            ccr_cycles: 800,
            speedup: 1.25,
            hit_rate: 0.7,
            regions_formed: 3,
            ..Default::default()
        };
        a.totals.miss_causes = [5, 4, 3, 2, 1];
        let rec = record_from_analysis_json(&a.to_json(), 777, Some("deadbeef")).unwrap();
        assert_eq!(rec.workload, "w");
        assert_eq!(rec.miss_causes, [5, 4, 3, 2, 1]);
        assert_eq!(rec.commit, "deadbeef");
        assert_eq!(rec.regions, 3);
        assert_eq!(rec.source, "import");
        assert!(record_from_analysis_json("{}", 0, None)
            .unwrap_err()
            .contains("analysis_schema_version"));
        let err = record_from_analysis_json(r#"{"analysis_schema_version":3}"#, 0, None);
        assert!(err
            .unwrap_err()
            .contains("unknown analysis_schema_version 3"));
        // Without its `source` or `totals` object the file is refused,
        // in one line.
        for (text, key) in [
            (r#"{"analysis_schema_version":2,"totals":{}}"#, "source"),
            (r#"{"analysis_schema_version":2,"source":{}}"#, "totals"),
        ] {
            let err = record_from_analysis_json(text, 0, None).unwrap_err();
            assert!(err.contains(&format!("missing `{key}`")), "{err}");
            assert!(!err.contains('\n'), "{err}");
        }
    }

    #[test]
    fn utc_formatting_is_correct_on_known_dates() {
        assert_eq!(format_utc(0), "1970-01-01T00:00:00Z");
        assert_eq!(format_utc(86_399), "1970-01-01T23:59:59Z");
        // 2000-02-29 (leap day) 12:00:00 UTC.
        assert_eq!(format_utc(951_825_600), "2000-02-29T12:00:00Z");
        // 2026-08-09 00:00:00 UTC.
        assert_eq!(format_utc(1_786_233_600), "2026-08-09T00:00:00Z");
    }
}
