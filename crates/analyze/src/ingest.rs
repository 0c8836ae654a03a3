//! Reading run artifacts back: a streaming, line-tolerant
//! `events.jsonl` reader and the versioned `report.json` reader.
//!
//! The event reader is *streaming* (one line parsed at a time, typed
//! records extracted immediately, the `Value` tree dropped before the
//! next line) and *line-tolerant*: a line that fails to parse — the
//! classic artifact of a run killed mid-write — is counted and
//! skipped rather than aborting the whole analysis. Schema versions
//! are a different matter: a line that parses but carries an unknown
//! `"v"`, or a report with an unknown `schema_version`, is a hard
//! error, because silently misreading a future schema is worse than
//! failing.

use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};

use crate::value::{self, Value};

/// Event-stream schema versions this reader understands.
pub const KNOWN_EVENT_VERSIONS: &[u64] = &[1];
/// Run-report schema versions this reader understands. Version 1
/// (PR 1) has no provenance block; version 2 adds it; version 3 adds
/// CRB miss-cause counters and per-phase cycle attribution; version 4
/// adds `git_commit` to the provenance block.
pub const KNOWN_REPORT_VERSIONS: &[u64] = &[1, 2, 3, 4];

/// What went wrong while loading run artifacts.
#[derive(Debug)]
pub enum IngestError {
    /// Filesystem-level failure.
    Io(PathBuf, io::Error),
    /// `report.json` is not valid JSON.
    Report(PathBuf, value::ParseError),
    /// A schema version this reader does not know.
    Schema(String),
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Io(p, e) => write!(f, "{}: {e}", p.display()),
            IngestError::Report(p, e) => write!(f, "{}: {e}", p.display()),
            IngestError::Schema(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for IngestError {}

/// Which simulation a mid-run event belongs to. `ccr run` simulates
/// the unannotated baseline first, then the annotated program; the
/// `sim_begin` markers in the stream separate the two.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Before the first `sim_begin` (compile-time events).
    Compile,
    /// The baseline simulation.
    Base,
    /// The CCR simulation.
    Ccr,
}

/// One optimizer-pass record (`pass` event).
#[derive(Clone, Debug)]
pub struct PassRec {
    /// Pass name.
    pub pass: String,
    /// Wall time in microseconds.
    pub wall_us: u64,
    /// Number of IR changes the pass made.
    pub changes: u64,
    /// Instruction count before the pass.
    pub instrs_before: u64,
    /// Instruction count after the pass.
    pub instrs_after: u64,
}

/// One reuse-lookup outcome (`reuse` event).
#[derive(Clone, Debug)]
pub struct ReuseRec {
    /// Phase the lookup happened in.
    pub phase: Phase,
    /// Region id.
    pub region: u64,
    /// Whether the lookup hit.
    pub hit: bool,
    /// Instructions skipped by the hit (0 on a miss).
    pub skipped: u64,
    /// Pipeline cycle after the lookup.
    pub cycle: u64,
    /// Miss-cause tag (`cold` / `mismatch` / `capacity` / `conflict`
    /// / `invalidated`). Present only on misses from profiled runs.
    pub cause: Option<String>,
}

/// One periodic call-stack sample (`cycle_sample` event, profiled
/// runs only).
#[derive(Clone, Debug)]
pub struct CycleSampleRec {
    /// Phase the sample belongs to.
    pub phase: Phase,
    /// `;`-joined call stack, outermost frame first.
    pub stack: String,
    /// Cycles the sample accounts for.
    pub cycles: u64,
}

/// One cycle-attribution bucket set (report v3, profiled runs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BucketSet {
    /// Cycles issuing, or structurally stalled at issue.
    pub issue: u64,
    /// Cycles waiting on fetch (redirects, icache misses).
    pub fetch: u64,
    /// Cycles waiting on memory results.
    pub memory: u64,
    /// Cycles attributed to reuse-hit handling.
    pub reuse_hit: u64,
    /// End-of-run drain cycles.
    pub drain: u64,
}

impl BucketSet {
    /// Sum across the buckets.
    pub fn total(&self) -> u64 {
        self.issue + self.fetch + self.memory + self.reuse_hit + self.drain
    }
}

/// One function's cycle attribution (report v3).
#[derive(Clone, Debug)]
pub struct FuncAttrRec {
    /// Function name.
    pub name: String,
    /// Total cycles charged to the function.
    pub cycles: u64,
    /// Breakdown of those cycles.
    pub buckets: BucketSet,
}

/// One phase's full cycle attribution (report v3, profiled runs).
#[derive(Clone, Debug, Default)]
pub struct AttrRec {
    /// Run-wide bucket totals (sums to the phase's cycle count).
    pub total: BucketSet,
    /// Per-function breakdowns, descending by cycles.
    pub functions: Vec<FuncAttrRec>,
    /// Per-region `(region, cycles)` charges, ascending region id.
    pub regions: Vec<(u64, u64)>,
}

/// One interval-IPC sample (`ipc_window` event).
#[derive(Clone, Copy, Debug)]
pub struct IpcWindowRec {
    /// Phase the window belongs to.
    pub phase: Phase,
    /// Window ordinal within its phase.
    pub index: u64,
    /// Cycle the window started at.
    pub start_cycle: u64,
    /// Cycles the window spanned.
    pub cycles: u64,
    /// Dynamic instructions issued in the window.
    pub instrs: u64,
    /// Instructions eliminated by reuse in the window.
    pub skipped: u64,
    /// Effective IPC of the window.
    pub ipc: f64,
}

/// Kind of a CRB structural event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrbKind {
    /// Capacity replacement inside an entry (`crb_evict`).
    Evict,
    /// Direct-mapped tag conflict (`crb_conflict`).
    Conflict,
    /// Memory invalidation (`crb_invalidate`).
    Invalidate,
}

/// One CRB structural event.
#[derive(Clone, Copy, Debug)]
pub struct CrbRec {
    /// What happened.
    pub kind: CrbKind,
    /// Buffer clock at the event.
    pub clock: u64,
    /// Region involved.
    pub region: u64,
    /// Direct-mapped entry index.
    pub entry: u64,
    /// Valid instances in the entry after the event.
    pub occupancy: u64,
    /// Instances lost to the event.
    pub lost: u64,
}

/// One `sim_summary` event (end-of-phase totals).
#[derive(Clone, Copy, Debug, Default)]
pub struct SimSummaryRec {
    /// Total cycles of the phase.
    pub cycles: u64,
    /// Dynamic instructions issued.
    pub dyn_instrs: u64,
    /// Instructions eliminated by reuse.
    pub skipped: u64,
    /// Reuse hits.
    pub reuse_hits: u64,
    /// Reuse misses.
    pub reuse_misses: u64,
    /// Effective IPC.
    pub effective_ipc: f64,
}

/// The report fields the analyzer consumes, extracted from
/// `report.json` (either schema version).
#[derive(Clone, Debug, Default)]
pub struct ReportInfo {
    /// `schema_version` of the report file.
    pub schema_version: u64,
    /// Workload name.
    pub workload: String,
    /// Input set name.
    pub input: String,
    /// Scale factor.
    pub scale: u64,
    /// Machine/CRB configuration hash (v2 reports only).
    pub config_hash: Option<String>,
    /// CLI argument vector (v2 reports only).
    pub argv: Vec<String>,
    /// Producing crate version (v2 reports only).
    pub crate_version: Option<String>,
    /// Git commit id of the producing checkout (v4 reports only;
    /// `"unknown"` when the producer ran outside a checkout).
    pub git_commit: Option<String>,
    /// Baseline cycles.
    pub base_cycles: u64,
    /// CCR cycles.
    pub ccr_cycles: u64,
    /// Reported speedup.
    pub speedup: f64,
    /// Fraction of baseline instructions eliminated.
    pub eliminated_fraction: f64,
    /// Penalty charged per reuse miss (for miss-cost rankings).
    pub reuse_miss_penalty: u64,
    /// CRB entry count.
    pub crb_entries: u64,
    /// CRB instances per entry.
    pub crb_instances: u64,
    /// Number of formed regions.
    pub regions: u64,
    /// CRB lookup/hit/miss/eviction counters from the CCR phase.
    pub crb_lookups: u64,
    /// CRB hits.
    pub crb_hits: u64,
    /// CRB misses.
    pub crb_misses: u64,
    /// Cold misses — region never recorded (v3 reports only).
    pub crb_miss_cold: u64,
    /// Input-vector mismatch misses (v3 reports only).
    pub crb_miss_mismatch: u64,
    /// Misses on instances lost to capacity eviction (v3 only).
    pub crb_miss_capacity: u64,
    /// Misses on instances lost to entry conflicts (v3 only).
    pub crb_miss_conflict: u64,
    /// Misses on instances lost to invalidation (v3 only).
    pub crb_miss_invalidated: u64,
    /// CRB invalidations.
    pub crb_invalidations: u64,
    /// CRB entry conflicts.
    pub crb_entry_conflicts: u64,
    /// Baseline-phase cycle attribution (v3, profiled runs only).
    pub base_attribution: Option<AttrRec>,
    /// CCR-phase cycle attribution (v3, profiled runs only).
    pub ccr_attribution: Option<AttrRec>,
}

/// Everything `load_run` extracted from one telemetry directory.
#[derive(Clone, Debug, Default)]
pub struct RunData {
    /// Extracted report fields.
    pub report: ReportInfo,
    /// Optimizer-pass records, in stream order.
    pub passes: Vec<PassRec>,
    /// Per-reason formation rejections.
    pub formation_rejects: Vec<(String, u64)>,
    /// Reuse lookups, in stream order.
    pub reuse: Vec<ReuseRec>,
    /// Interval-IPC windows, in stream order.
    pub ipc_windows: Vec<IpcWindowRec>,
    /// CRB structural events, in stream order.
    pub crb_events: Vec<CrbRec>,
    /// Call-stack samples, in stream order (profiled runs only).
    pub cycle_samples: Vec<CycleSampleRec>,
    /// End-of-phase totals for the baseline simulation.
    pub base_summary: SimSummaryRec,
    /// End-of-phase totals for the CCR simulation.
    pub ccr_summary: SimSummaryRec,
    /// Total event lines successfully parsed.
    pub events: u64,
    /// Lines skipped as unparseable (truncated writes, corruption).
    pub skipped_lines: u64,
}

/// A raw parsed event line: its kind tag plus the full record. Used
/// by tooling that wants the stream without the typed extraction.
#[derive(Clone, Debug)]
pub struct EventRecord {
    /// The `"ev"` kind tag.
    pub kind: String,
    /// The whole parsed line.
    pub value: Value,
}

/// Loads `DIR/events.jsonl` + `DIR/report.json`.
///
/// # Errors
///
/// I/O failures, an unparseable `report.json`, or an unknown schema
/// version in either artifact. Unparseable *event lines* are not
/// errors; they are counted in [`RunData::skipped_lines`].
pub fn load_run(dir: &Path) -> Result<RunData, IngestError> {
    let report_path = dir.join("report.json");
    let report_text = std::fs::read_to_string(&report_path)
        .map_err(|e| IngestError::Io(report_path.clone(), e))?;
    let report_val =
        value::parse(&report_text).map_err(|e| IngestError::Report(report_path.clone(), e))?;
    let report = extract_report(&report_val)?;

    let events_path = dir.join("events.jsonl");
    let file = File::open(&events_path).map_err(|e| IngestError::Io(events_path.clone(), e))?;
    let mut data = RunData {
        report,
        ..RunData::default()
    };
    let mut phase = Phase::Compile;
    for (idx, line) in BufReader::new(file).lines().enumerate() {
        let line = line.map_err(|e| IngestError::Io(events_path.clone(), e))?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let Ok(ev) = value::parse(trimmed) else {
            data.skipped_lines += 1;
            continue;
        };
        value::check_version(&ev, "v", KNOWN_EVENT_VERSIONS).map_err(|e| {
            IngestError::Schema(format!("{}:{}: {e}", events_path.display(), idx + 1))
        })?;
        data.events += 1;
        ingest_event(&mut data, &mut phase, &ev);
    }
    Ok(data)
}

fn ingest_event(data: &mut RunData, phase: &mut Phase, ev: &Value) {
    match ev.str_field("ev") {
        "sim_begin" => {
            *phase = match ev.str_field("phase") {
                "base" => Phase::Base,
                _ => Phase::Ccr,
            };
        }
        "pass" => data.passes.push(PassRec {
            pass: ev.str_field("pass").to_string(),
            wall_us: ev.u64_field("wall_us"),
            changes: ev.u64_field("changes"),
            instrs_before: ev.u64_field("instrs_before"),
            instrs_after: ev.u64_field("instrs_after"),
        }),
        "formation_reject" => data
            .formation_rejects
            .push((ev.str_field("reason").to_string(), ev.u64_field("count"))),
        "reuse" => data.reuse.push(ReuseRec {
            phase: *phase,
            region: ev.u64_field("region"),
            hit: ev.get("hit").and_then(Value::as_bool).unwrap_or(false),
            skipped: ev.u64_field("skipped"),
            cycle: ev.u64_field("cycle"),
            cause: ev.get("cause").and_then(Value::as_str).map(String::from),
        }),
        "cycle_sample" => data.cycle_samples.push(CycleSampleRec {
            phase: *phase,
            stack: ev.str_field("stack").to_string(),
            cycles: ev.u64_field("cycles"),
        }),
        "ipc_window" => data.ipc_windows.push(IpcWindowRec {
            phase: *phase,
            index: ev.u64_field("index"),
            start_cycle: ev.u64_field("start_cycle"),
            cycles: ev.u64_field("cycles"),
            instrs: ev.u64_field("instrs"),
            skipped: ev.u64_field("skipped"),
            ipc: ev.f64_field("ipc"),
        }),
        kind @ ("crb_evict" | "crb_conflict" | "crb_invalidate") => {
            data.crb_events.push(CrbRec {
                kind: match kind {
                    "crb_evict" => CrbKind::Evict,
                    "crb_conflict" => CrbKind::Conflict,
                    _ => CrbKind::Invalidate,
                },
                clock: ev.u64_field("clock"),
                region: ev.u64_field("region"),
                entry: ev.u64_field("entry"),
                occupancy: ev.u64_field("occupancy"),
                lost: ev.u64_field("lost"),
            });
        }
        "sim_summary" => {
            let rec = SimSummaryRec {
                cycles: ev.u64_field("cycles"),
                dyn_instrs: ev.u64_field("dyn_instrs"),
                skipped: ev.u64_field("skipped"),
                reuse_hits: ev.u64_field("reuse_hits"),
                reuse_misses: ev.u64_field("reuse_misses"),
                effective_ipc: ev.f64_field("effective_ipc"),
            };
            match *phase {
                Phase::Ccr => data.ccr_summary = rec,
                _ => data.base_summary = rec,
            }
        }
        // run_begin, formation, region_summary (redundant with the
        // report), and any future kinds: ignored, by design — new
        // event kinds must not break old analyzers.
        _ => {}
    }
}

fn extract_report(v: &Value) -> Result<ReportInfo, IngestError> {
    let version = value::check_version(v, "schema_version", KNOWN_REPORT_VERSIONS)
        .map_err(|e| IngestError::Schema(format!("report.json: {e}")))?;
    let mut info = ReportInfo {
        schema_version: version,
        workload: v.str_field("workload").to_string(),
        input: v.str_field("input").to_string(),
        scale: v.u64_field("scale"),
        speedup: v.f64_field("speedup"),
        eliminated_fraction: v.f64_field("eliminated_fraction"),
        ..ReportInfo::default()
    };
    // v2: the provenance block. v1 read path: absent, fields default.
    if let Some(p) = v.get("provenance") {
        info.config_hash = p
            .get("config_hash")
            .and_then(Value::as_str)
            .map(String::from);
        info.crate_version = p
            .get("crate_version")
            .and_then(Value::as_str)
            .map(String::from);
        // v4; absent on older reports.
        info.git_commit = p
            .get("git_commit")
            .and_then(Value::as_str)
            .map(String::from);
        if let Some(argv) = p.get("argv").and_then(Value::as_arr) {
            info.argv = argv
                .iter()
                .filter_map(|a| a.as_str().map(String::from))
                .collect();
        }
    }
    if let Some(machine) = v.get("machine") {
        info.reuse_miss_penalty = machine.u64_field("reuse_miss_penalty");
    }
    if let Some(crb) = v.get("crb") {
        info.crb_entries = crb.u64_field("entries");
        info.crb_instances = crb.u64_field("instances");
    }
    info.regions = v.u64_field("regions");
    if let Some(base) = v.get("base") {
        info.base_cycles = base.u64_field("cycles");
        info.base_attribution = base.get("attribution").and_then(extract_attribution);
    }
    if let Some(ccr) = v.get("ccr") {
        info.ccr_cycles = ccr.u64_field("cycles");
        info.ccr_attribution = ccr.get("attribution").and_then(extract_attribution);
        if let Some(crb) = ccr.get("crb") {
            info.crb_lookups = crb.u64_field("lookups");
            info.crb_hits = crb.u64_field("hits");
            info.crb_misses = crb.u64_field("misses");
            // v3; zero on older reports.
            info.crb_miss_cold = crb.u64_field("miss_cold");
            info.crb_miss_mismatch = crb.u64_field("miss_mismatch");
            info.crb_miss_capacity = crb.u64_field("miss_capacity");
            info.crb_miss_conflict = crb.u64_field("miss_conflict");
            info.crb_miss_invalidated = crb.u64_field("miss_invalidated");
            info.crb_invalidations = crb.u64_field("invalidations");
            info.crb_entry_conflicts = crb.u64_field("entry_conflicts");
        }
    }
    Ok(info)
}

fn extract_buckets(v: &Value) -> BucketSet {
    BucketSet {
        issue: v.u64_field("issue"),
        fetch: v.u64_field("fetch"),
        memory: v.u64_field("memory"),
        reuse_hit: v.u64_field("reuse_hit"),
        drain: v.u64_field("drain"),
    }
}

fn extract_attribution(v: &Value) -> Option<AttrRec> {
    // Unprofiled v3 reports carry `"attribution":null`.
    let total = v.get("total")?;
    let mut attr = AttrRec {
        total: extract_buckets(total),
        ..AttrRec::default()
    };
    if let Some(funcs) = v.get("functions").and_then(Value::as_arr) {
        attr.functions = funcs
            .iter()
            .map(|f| FuncAttrRec {
                name: f.str_field("name").to_string(),
                cycles: f.u64_field("cycles"),
                buckets: f.get("buckets").map(extract_buckets).unwrap_or_default(),
            })
            .collect();
    }
    if let Some(regions) = v.get("regions").and_then(Value::as_arr) {
        attr.regions = regions
            .iter()
            .map(|r| (r.u64_field("region"), r.u64_field("cycles")))
            .collect();
    }
    Some(attr)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_dir(events: &str, report: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ccr-analyze-ingest-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("events.jsonl"), events).unwrap();
        std::fs::write(dir.join("report.json"), report).unwrap();
        dir
    }

    const REPORT_V2: &str = r#"{"schema_version":2,"workload":"w","input":"train","scale":1,
        "provenance":{"argv":["run","w"],"config_hash":"00ff00ff00ff00ff","crate_version":"0.1.0"},
        "machine":{"reuse_miss_penalty":2},"crb":{"entries":128,"instances":8},
        "regions":3,"base":{"cycles":1000},
        "ccr":{"cycles":800,"crb":{"lookups":10,"hits":7,"misses":3,"invalidations":1,"entry_conflicts":0}},
        "speedup":1.25,"eliminated_fraction":0.2}"#;

    #[test]
    fn loads_a_run_and_tracks_phases() {
        let events = concat!(
            r#"{"v":1,"ev":"run_begin","schema":1,"workload":"w"}"#,
            "\n",
            r#"{"v":1,"ev":"pass","pass":"dce","wall_us":5,"changes":2,"instrs_before":10,"instrs_after":8}"#,
            "\n",
            r#"{"v":1,"ev":"formation_reject","reason":"small","count":4}"#,
            "\n",
            r#"{"v":1,"ev":"sim_begin","phase":"base"}"#,
            "\n",
            r#"{"v":1,"ev":"reuse","region":0,"hit":false,"skipped":0,"cycle":50}"#,
            "\n",
            r#"{"v":1,"ev":"ipc_window","index":0,"start_cycle":0,"cycles":100,"instrs":300,"skipped":0,"ipc":3}"#,
            "\n",
            r#"{"v":1,"ev":"sim_summary","cycles":1000,"dyn_instrs":3000,"skipped":0,"reuse_hits":0,"reuse_misses":1,"effective_ipc":3}"#,
            "\n",
            r#"{"v":1,"ev":"sim_begin","phase":"ccr"}"#,
            "\n",
            r#"{"v":1,"ev":"reuse","region":0,"hit":true,"skipped":13,"cycle":60}"#,
            "\n",
            r#"{"v":1,"ev":"crb_evict","clock":9,"region":0,"entry":0,"occupancy":8,"lost":1}"#,
            "\n",
            r#"{"v":1,"ev":"sim_summary","cycles":800,"dyn_instrs":2000,"skipped":13,"reuse_hits":1,"reuse_misses":0,"effective_ipc":2.5}"#,
            "\n",
        );
        let dir = write_dir(events, REPORT_V2);
        let data = load_run(&dir).unwrap();
        assert_eq!(data.events, 11);
        assert_eq!(data.skipped_lines, 0);
        assert_eq!(data.passes.len(), 1);
        assert_eq!(data.formation_rejects, vec![("small".to_string(), 4)]);
        assert_eq!(data.reuse.len(), 2);
        assert_eq!(data.reuse[0].phase, Phase::Base);
        assert_eq!(data.reuse[1].phase, Phase::Ccr);
        assert!(data.reuse[1].hit);
        assert_eq!(data.crb_events.len(), 1);
        assert_eq!(data.crb_events[0].kind, CrbKind::Evict);
        assert_eq!(data.base_summary.cycles, 1000);
        assert_eq!(data.ccr_summary.cycles, 800);
        assert_eq!(data.report.workload, "w");
        assert_eq!(data.report.config_hash.as_deref(), Some("00ff00ff00ff00ff"));
        assert_eq!(data.report.argv, vec!["run", "w"]);
        assert_eq!(data.report.crb_hits, 7);
        assert_eq!(data.report.reuse_miss_penalty, 2);
    }

    #[test]
    fn tolerates_truncated_lines_but_counts_them() {
        let events = concat!(
            r#"{"v":1,"ev":"pass","pass":"dce","wall_us":5,"changes":0,"instrs_before":1,"instrs_after":1}"#,
            "\n",
            "\n",
            r#"{"v":1,"ev":"sim_summ"#, // torn mid-write
        );
        let dir = write_dir(events, REPORT_V2);
        let data = load_run(&dir).unwrap();
        assert_eq!(data.events, 1);
        assert_eq!(data.skipped_lines, 1, "torn line counted, blank ignored");
    }

    #[test]
    fn rejects_unknown_event_schema_version() {
        let dir = write_dir("{\"v\":99,\"ev\":\"pass\"}\n", REPORT_V2);
        let err = load_run(&dir).unwrap_err();
        assert!(matches!(err, IngestError::Schema(_)), "{err}");
        assert!(err.to_string().contains("99"));
    }

    #[test]
    fn reads_v1_reports_without_provenance() {
        let report_v1 = r#"{"schema_version":1,"workload":"w","input":"train","scale":1,
            "machine":{"reuse_miss_penalty":2},"crb":{"entries":64,"instances":4},
            "regions":1,"base":{"cycles":10},"ccr":{"cycles":9,"crb":{"lookups":1,"hits":1,"misses":0,"invalidations":0,"entry_conflicts":0}},
            "speedup":1.1,"eliminated_fraction":0.1}"#;
        let dir = write_dir("", report_v1);
        let data = load_run(&dir).unwrap();
        assert_eq!(data.report.schema_version, 1);
        assert_eq!(data.report.config_hash, None);
        assert!(data.report.argv.is_empty());
        assert_eq!(data.report.crb_entries, 64);
    }

    const REPORT_V3: &str = r#"{"schema_version":3,"workload":"w","input":"train","scale":1,
        "provenance":{"argv":["profile","w"],"config_hash":"00ff00ff00ff00ff","crate_version":"0.1.0"},
        "machine":{"reuse_miss_penalty":2},"crb":{"entries":128,"instances":8},
        "regions":3,"base":{"cycles":1000,"attribution":null},
        "ccr":{"cycles":800,
          "crb":{"lookups":10,"hits":7,"misses":3,"miss_cold":1,"miss_mismatch":1,"miss_capacity":0,"miss_conflict":1,"miss_invalidated":0,"invalidations":1,"entry_conflicts":0},
          "attribution":{"total":{"issue":500,"fetch":100,"memory":150,"reuse_hit":30,"drain":20},
            "functions":[{"name":"main","cycles":800,"buckets":{"issue":500,"fetch":100,"memory":150,"reuse_hit":30,"drain":20}}],
            "regions":[{"region":0,"cycles":90}]}},
        "speedup":1.25,"eliminated_fraction":0.2}"#;

    #[test]
    fn reads_v3_reports_with_causes_and_attribution() {
        let events = concat!(
            r#"{"v":1,"ev":"sim_begin","phase":"ccr"}"#,
            "\n",
            r#"{"v":1,"ev":"reuse","region":0,"hit":false,"skipped":0,"cycle":50,"cause":"cold"}"#,
            "\n",
            r#"{"v":1,"ev":"reuse","region":0,"hit":true,"skipped":13,"cycle":60}"#,
            "\n",
            r#"{"v":1,"ev":"cycle_sample","stack":"main;count_ones","cycles":256}"#,
            "\n",
        );
        let dir = write_dir(events, REPORT_V3);
        let data = load_run(&dir).unwrap();
        assert_eq!(data.report.schema_version, 3);
        assert_eq!(data.report.crb_miss_cold, 1);
        assert_eq!(data.report.crb_miss_conflict, 1);
        assert!(data.report.base_attribution.is_none());
        let attr = data.report.ccr_attribution.as_ref().unwrap();
        assert_eq!(attr.total.total(), 800);
        assert_eq!(attr.functions[0].name, "main");
        assert_eq!(attr.functions[0].buckets.memory, 150);
        assert_eq!(attr.regions, vec![(0, 90)]);
        assert_eq!(data.reuse[0].cause.as_deref(), Some("cold"));
        assert_eq!(data.reuse[1].cause, None);
        assert_eq!(data.cycle_samples.len(), 1);
        assert_eq!(data.cycle_samples[0].phase, Phase::Ccr);
        assert_eq!(data.cycle_samples[0].stack, "main;count_ones");
        assert_eq!(data.cycle_samples[0].cycles, 256);
    }

    #[test]
    fn reads_v4_reports_with_git_commit() {
        let report_v4 = r#"{"schema_version":4,"workload":"w","input":"train","scale":1,
            "provenance":{"argv":["run","w"],"config_hash":"00ff00ff00ff00ff","crate_version":"0.1.0","git_commit":"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"},
            "machine":{"reuse_miss_penalty":2},"crb":{"entries":128,"instances":8},
            "regions":3,"base":{"cycles":1000},
            "ccr":{"cycles":800,"crb":{"lookups":10,"hits":7,"misses":3,"invalidations":1,"entry_conflicts":0}},
            "speedup":1.25,"eliminated_fraction":0.2}"#;
        let dir = write_dir("", report_v4);
        let data = load_run(&dir).unwrap();
        assert_eq!(data.report.schema_version, 4);
        assert_eq!(
            data.report.git_commit.as_deref(),
            Some("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa")
        );
        // v3 and older: the field reads as absent.
        let dir = write_dir("", REPORT_V3);
        assert_eq!(load_run(&dir).unwrap().report.git_commit, None);
    }

    #[test]
    fn rejects_unknown_report_schema_version() {
        let dir = write_dir("", r#"{"schema_version":9,"workload":"w"}"#);
        let err = load_run(&dir).unwrap_err();
        assert!(matches!(err, IngestError::Schema(_)), "{err}");
    }

    #[test]
    fn missing_artifacts_are_io_errors() {
        let dir = std::env::temp_dir().join("ccr-analyze-ingest-missing");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let err = load_run(&dir).unwrap_err();
        assert!(matches!(err, IngestError::Io(_, _)), "{err}");
        assert!(err.to_string().contains("report.json"));
    }
}
