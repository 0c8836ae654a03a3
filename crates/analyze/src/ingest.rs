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
//! failing. Within a known version, every object is read through a
//! lenient `record!` declaration of the fields the analyzer uses: a
//! missing or mistyped field reads as its default.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};

use ccr_telemetry::record::{Codec, Flat, Record, Strict};
use ccr_telemetry::{record, JsonWriter};

use crate::store::MissCauses;
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
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Phase {
    /// Before the first `sim_begin` (compile-time events).
    #[default]
    Compile,
    /// The baseline simulation.
    Base,
    /// The CCR simulation.
    Ccr,
}

/// One optimizer-pass record (`pass` event): the row `analysis.json`
/// keeps, and the instruction counts around the pass.
#[derive(Clone, Debug, Default)]
pub struct PassRec {
    /// Name, wall time and change count.
    pub row: PassRow,
    /// Instruction count before the pass.
    pub instrs_before: u64,
    /// Instruction count after the pass.
    pub instrs_after: u64,
}

/// A pass's name, wall time and change count: one compile `passes`
/// row of `analysis.json`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PassRow {
    /// Pass name.
    pub pass: String,
    /// Wall time in microseconds.
    pub wall_us: u64,
    /// Number of IR changes the pass made.
    pub changes: u64,
}

/// One reuse-lookup outcome (`reuse` event).
#[derive(Clone, Debug, Default)]
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
#[derive(Clone, Debug, Default)]
pub struct CycleSampleRec {
    /// Phase the sample belongs to.
    pub phase: Phase,
    /// `;`-joined call stack, outermost frame first.
    pub stack: String,
    /// Cycles the sample accounts for.
    pub cycles: u64,
}

/// One interval-IPC sample (`ipc_window` event).
#[derive(Clone, Copy, Debug, Default)]
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
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CrbKind {
    /// Capacity replacement inside an entry (`crb_evict`).
    #[default]
    Evict,
    /// Direct-mapped tag conflict (`crb_conflict`).
    Conflict,
    /// Memory invalidation (`crb_invalidate`).
    Invalidate,
}

/// One CRB structural event.
#[derive(Clone, Copy, Debug, Default)]
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

/// One `formation_reject` event: a rejection reason and its count.
#[derive(Default)]
struct RejectRec {
    reason: String,
    count: u64,
}

// The event lines, past their `v` and `ev` tags. `phase` and the CRB
// `kind` stay off the wire: `ingest_event` sets them from the stream
// position and the `ev` tag.
record!(Lenient PassRec { row: Flat, instrs_before, instrs_after });
record!(Lenient PassRow { pass, wall_us, changes });
record!(Lenient ReuseRec { region, hit, skipped, cycle, cause });
record!(Lenient CycleSampleRec { stack, cycles });
record!(Lenient IpcWindowRec { index, start_cycle, cycles, instrs, skipped, ipc });
record!(Lenient CrbRec { clock, region, entry, occupancy, lost });
record!(Lenient SimSummaryRec {
    cycles, dyn_instrs, skipped, reuse_hits, reuse_misses, effective_ipc,
});
record!(Lenient RejectRec { reason, count });

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
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FuncAttrRec {
    /// Function name.
    pub name: String,
    /// Total cycles charged to the function.
    pub cycles: u64,
    /// Breakdown of those cycles.
    pub buckets: BucketSet,
}

/// Cycles charged to one region (report v3).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegionCycles {
    /// Region id.
    pub region: u64,
    /// Cycles charged to the region.
    pub cycles: u64,
}

/// One phase's full cycle attribution (report v3, profiled runs).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AttrRec {
    /// Run-wide bucket totals (sums to the phase's cycle count).
    pub total: BucketSet,
    /// Per-function breakdowns, descending by cycles.
    pub functions: Vec<FuncAttrRec>,
    /// Per-region charges, ascending region id.
    pub regions: Vec<RegionCycles>,
}

// One declaration reads the attribution from `report.json` and writes
// it into `analysis.json`.
record!(Lenient BucketSet { issue, fetch, memory, reuse_hit, drain });
record!(Lenient FuncAttrRec { name, cycles, buckets });
record!(Lenient RegionCycles { region, cycles });
record!(Lenient AttrRec { total: TotalCycles, functions, regions });

/// An attribution's `total` buckets, followed on the wire by the
/// `cycles` they sum to: `analysis.json` carries that key and
/// `report.json` does not, so it is written and never read. The
/// buckets are read strictly: an attribution without them (an
/// unprofiled phase) reads as none.
struct TotalCycles;

impl Codec<BucketSet> for TotalCycles {
    fn put(total: &BucketSet, key: &str, w: &mut JsonWriter) {
        Strict::put(total, key, w);
        Strict::put(&total.total(), "cycles", w);
    }
    fn get(v: &Value, key: &str, ctx: &str) -> Result<BucketSet, String> {
        Strict::get(v, key, ctx)
    }
}

/// The report fields the analyzer consumes, one lenient record per
/// `report.json` object, so a key an older schema version lacks (the
/// v1 provenance block, the v3 miss causes and attribution, the v4
/// `git_commit`) reads as its default.
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
    /// The producing run (v2 reports on).
    pub provenance: Provenance,
    /// The machine fields the analyzer reads.
    pub machine: MachineInfo,
    /// The buffer geometry.
    pub crb: CrbGeometry,
    /// Number of formed regions.
    pub regions: u64,
    /// The baseline simulation.
    pub base: PhaseInfo,
    /// The CCR simulation.
    pub ccr: PhaseInfo,
    /// Reported speedup.
    pub speedup: f64,
    /// Fraction of baseline instructions eliminated.
    pub eliminated_fraction: f64,
}

/// The report's `provenance` block (v2 reports on).
#[derive(Clone, Debug, Default)]
pub struct Provenance {
    /// CLI argument vector.
    pub argv: Vec<String>,
    /// Machine/CRB configuration hash.
    pub config_hash: Option<String>,
    /// Producing crate version.
    pub crate_version: Option<String>,
    /// Git commit id of the producing checkout (v4 reports only;
    /// `"unknown"` when the producer ran outside a checkout).
    pub git_commit: Option<String>,
}

/// The report's `machine` fields the analyzer reads.
#[derive(Clone, Copy, Debug, Default)]
pub struct MachineInfo {
    /// Penalty charged per reuse miss (for miss-cost rankings).
    pub reuse_miss_penalty: u64,
}

/// The report's `crb` geometry fields the analyzer reads.
#[derive(Clone, Copy, Debug, Default)]
pub struct CrbGeometry {
    /// CRB entry count.
    pub entries: u64,
    /// CRB instances per entry.
    pub instances: u64,
}

/// One simulation phase of the report (`base` or `ccr`).
#[derive(Clone, Debug, Default)]
pub struct PhaseInfo {
    /// Total cycles of the phase.
    pub cycles: u64,
    /// CRB counters of the phase.
    pub crb: CrbCounters,
    /// Cycle attribution (v3, profiled runs only).
    pub attribution: Option<AttrRec>,
}

/// A phase's CRB counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct CrbCounters {
    /// Lookups.
    pub lookups: u64,
    /// Hits.
    pub hits: u64,
    /// Misses.
    pub misses: u64,
    /// Miss-cause mix, indexed like [`crate::MISS_CAUSES`] (v3
    /// reports on; zero on older ones).
    pub miss_causes: [u64; 5],
    /// Invalidations.
    pub invalidations: u64,
    /// Entry conflicts.
    pub entry_conflicts: u64,
}

record!(Lenient ReportInfo {
    schema_version, workload, input, scale, provenance, machine, crb, regions, base, ccr,
    speedup, eliminated_fraction,
});
record!(Lenient Provenance { argv, config_hash, crate_version, git_commit });
record!(Lenient MachineInfo { reuse_miss_penalty });
record!(Lenient CrbGeometry { entries, instances });
record!(Lenient PhaseInfo { cycles, crb, attribution });
record!(Lenient CrbCounters {
    lookups, hits, misses, miss_causes: MissCauses, invalidations, entry_conflicts,
});

/// Everything `load_run` extracted from one telemetry directory.
#[derive(Clone, Debug, Default)]
pub struct RunData {
    /// Extracted report fields.
    pub report: ReportInfo,
    /// Optimizer-pass records, in stream order.
    pub passes: Vec<PassRec>,
    /// Formation rejections per reason.
    pub formation_rejects: BTreeMap<String, u64>,
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
    value::check_version(&report_val, "schema_version", KNOWN_REPORT_VERSIONS)
        .map_err(|e| IngestError::Schema(format!("report.json: {e}")))?;

    let events_path = dir.join("events.jsonl");
    let file = File::open(&events_path).map_err(|e| IngestError::Io(events_path.clone(), e))?;
    let mut data = RunData {
        report: read(&report_val),
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

/// Reads a lenient record, which no value fails: a missing or
/// mistyped field reads as its default.
fn read<R: Record + Default>(v: &Value) -> R {
    R::get_fields(v, "").unwrap_or_default()
}

fn ingest_event(data: &mut RunData, phase: &mut Phase, ev: &Value) {
    let tag = |key| ev.get(key).and_then(Value::as_str);
    match tag("ev").unwrap_or_default() {
        "sim_begin" => {
            *phase = match tag("phase") {
                Some("base") => Phase::Base,
                _ => Phase::Ccr,
            };
        }
        "pass" => data.passes.push(read(ev)),
        "formation_reject" => {
            let r: RejectRec = read(ev);
            *data.formation_rejects.entry(r.reason).or_default() += r.count;
        }
        "reuse" => data.reuse.push(ReuseRec {
            phase: *phase,
            ..read(ev)
        }),
        "cycle_sample" => data.cycle_samples.push(CycleSampleRec {
            phase: *phase,
            ..read(ev)
        }),
        "ipc_window" => data.ipc_windows.push(IpcWindowRec {
            phase: *phase,
            ..read(ev)
        }),
        "crb_evict" => data.crb_events.push(CrbRec {
            kind: CrbKind::Evict,
            ..read(ev)
        }),
        "crb_conflict" => data.crb_events.push(CrbRec {
            kind: CrbKind::Conflict,
            ..read(ev)
        }),
        "crb_invalidate" => data.crb_events.push(CrbRec {
            kind: CrbKind::Invalidate,
            ..read(ev)
        }),
        "sim_summary" => match *phase {
            Phase::Ccr => data.ccr_summary = read(ev),
            _ => data.base_summary = read(ev),
        },
        // run_begin, formation, region_summary (redundant with the
        // report), and any future kinds: ignored, by design — new
        // event kinds must not break old analyzers.
        _ => {}
    }
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
            // A kind this reader does not know: counted, then ignored.
            r#"{"v":1,"ev":"future_kind","region":5,"hit":true}"#,
            "\n",
        );
        let dir = write_dir(events, REPORT_V2);
        let data = load_run(&dir).unwrap();
        assert_eq!(data.events, 12);
        assert_eq!(data.skipped_lines, 0);
        assert_eq!(data.passes.len(), 1);
        assert_eq!(data.formation_rejects, [("small".to_string(), 4)].into());
        assert_eq!(data.reuse.len(), 2);
        assert_eq!(data.reuse[0].phase, Phase::Base);
        assert_eq!(data.reuse[1].phase, Phase::Ccr);
        assert!(data.reuse[1].hit);
        assert_eq!(data.crb_events.len(), 1);
        assert_eq!(data.crb_events[0].kind, CrbKind::Evict);
        assert_eq!(data.base_summary.cycles, 1000);
        assert_eq!(data.ccr_summary.cycles, 800);
        assert_eq!(data.report.workload, "w");
        assert_eq!(
            data.report.provenance.config_hash.as_deref(),
            Some("00ff00ff00ff00ff")
        );
        assert_eq!(data.report.provenance.argv, vec!["run", "w"]);
        assert_eq!(data.report.ccr.crb.hits, 7);
        assert_eq!(data.report.machine.reuse_miss_penalty, 2);
    }

    #[test]
    fn tolerates_truncated_lines_but_counts_them() {
        let events = concat!(
            r#"{"v":1,"ev":"pass","pass":"dce","wall_us":5,"changes":0,"instrs_before":1,"instrs_after":1}"#,
            "\n",
            "\n",
            // Mistyped fields read as 0 (or "") and the line counts.
            r#"{"v":1,"ev":"pass","pass":7,"wall_us":"slow","changes":-1,"instrs_before":2}"#,
            "\n",
            r#"{"v":1,"ev":"sim_summ"#, // torn mid-write
        );
        let dir = write_dir(events, REPORT_V2);
        let data = load_run(&dir).unwrap();
        assert_eq!(data.events, 2);
        assert_eq!(data.skipped_lines, 1, "torn line counted, blank ignored");
        let p = &data.passes[1];
        assert_eq!(
            (p.row.pass.as_str(), p.row.wall_us, p.row.changes),
            ("", 0, 0)
        );
        assert_eq!(p.instrs_before, 2);
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
        assert_eq!(data.report.provenance.config_hash, None);
        assert!(data.report.provenance.argv.is_empty());
        assert_eq!(data.report.crb.entries, 64);
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
        assert_eq!(data.report.ccr.crb.miss_causes[0], 1);
        assert_eq!(data.report.ccr.crb.miss_causes[3], 1);
        assert!(data.report.base.attribution.is_none());
        let attr = data.report.ccr.attribution.as_ref().unwrap();
        assert_eq!(attr.total.total(), 800);
        assert_eq!(attr.functions[0].name, "main");
        assert_eq!(attr.functions[0].buckets.memory, 150);
        assert_eq!(
            attr.regions,
            vec![RegionCycles {
                region: 0,
                cycles: 90
            }]
        );
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
            data.report.provenance.git_commit.as_deref(),
            Some("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa")
        );
        // v3 and older: the field reads as absent.
        let dir = write_dir("", REPORT_V3);
        assert_eq!(load_run(&dir).unwrap().report.provenance.git_commit, None);
    }

    #[test]
    fn rejects_unknown_report_schema_version() {
        let dir = write_dir("", r#"{"schema_version":9,"workload":"w"}"#);
        let err = load_run(&dir).unwrap_err();
        assert!(matches!(err, IngestError::Schema(_)), "{err}");
        assert!(
            err.to_string().contains("unknown schema_version 9"),
            "{err}"
        );
        // A report without a version reads as version 0, also unknown.
        let dir = write_dir("", r#"{"workload":"w"}"#);
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
