//! Versioned simulation snapshots.
//!
//! A [`SimSnapshot`] is the complete state of a mid-run simulation as
//! plain data: emulator architectural state ([`ccr_profile::EmuSnapshot`]),
//! pipeline timing state ([`PipelineSnapshot`]), reuse-buffer contents
//! ([`CrbSnapshot`], when the CCR hardware is present), and the
//! fingerprint chain ([`FingerprintSnapshot`]). Restoring one into a
//! [`crate::session::SimSession`] and running to completion produces
//! **bit-identical** [`crate::SimStats`] and an identical fingerprint
//! chain to the uninterrupted run.
//!
//! # On-disk format
//!
//! Line-tolerant JSONL, following the run-store conventions: the first
//! line is a `{"snap_v":1,...}` header, each following line is one
//! `{"kind":...}` record, and the final `{"kind":"end","lines":N}`
//! trailer detects truncation. Lines with an unknown `kind` are
//! skipped, so additive extensions never break old readers; an unknown
//! `snap_v` is a hard, one-line error naming the known versions.
//!
//! # One declaration per record
//!
//! Each record's fields are listed once, in wire order, by a
//! [`ccr_telemetry::record!`] declaration, which derives both its
//! writer and its reader. The simulator's records are declared here:
//! the snapshot header, sections and `end` trailer, the finished
//! [`SimOutcome`] an experiment checkpoint line carries, and the
//! [`SimStats`] counters and profiled [`CycleBuckets`] the run report
//! also writes. The emulator's
//! records ([`ccr_profile::EmuSnapshot`], [`ccr_profile::RunOutcome`])
//! are declared beside their types in `ccr-profile`. A record is read
//! in one of two modes:
//!
//! - *strict* (the snapshot records and the outcome): a missing key is
//!   a one-line ``missing `k` `` error, and a missing or `null`
//!   optional field reads as `None`; the header's `workload` and
//!   `config_hash` alone read as `""` when absent;
//! - *lenient* (the [`SimStats`], [`CrbStats`] and [`RegionDynStats`]
//!   counters): a missing or mistyped counter reads as 0, while a
//!   region row without a valid `region` is still an error.
//!
//! Parsing checks only shape; whether a state is one the simulator can
//! reach is checked on restore (`Emulator::resume`, `Pipeline::restore`
//! and the buffer's own checks).

use std::collections::HashMap;
use std::path::Path;

use ccr_ir::RegionId;
use ccr_profile::emulator::Pairs;
use ccr_profile::{EmuSnapshot, MissCause};
use ccr_telemetry::record::{kind_line, Codec, Flat, Lenient, Record, Strict, Wire};
use ccr_telemetry::value::{self, Value};
use ccr_telemetry::{record, JsonWriter};

use crate::fingerprint::WindowDigest;
use crate::session::SimOutcome;
use crate::stats::{CrbStats, CycleBuckets, RegionDynStats, SimStats};

/// Snapshot format version. Bumped only on incompatible changes;
/// additive fields ride under the same version.
pub const SNAP_VERSION: u64 = 1;

/// One cache's snapshot state: the tag array (`None` = invalid line)
/// plus hit/miss counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Tag per line, `None` for invalid lines.
    pub tags: Vec<Option<u64>>,
    /// Hits so far.
    pub hits: u64,
    /// Misses so far.
    pub misses: u64,
}

/// BTB snapshot state: 2-bit counters plus outcome counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BtbSnapshot {
    /// Saturating counters, one per entry, each in `0..=3`.
    pub counters: Vec<u8>,
    /// Correct predictions so far.
    pub correct: u64,
    /// Mispredictions so far.
    pub mispredicts: u64,
}

/// One pipeline call frame: the register-ready scoreboard and the
/// caller's return registers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PipelineFrameSnapshot {
    /// Ready-at cycle per register index.
    pub ready: Vec<u64>,
    /// Return registers to make ready when the frame pops.
    pub ret_regs: Vec<u32>,
}

/// Complete timing-pipeline state (unprofiled runs only).
#[derive(Clone, Debug, PartialEq)]
pub struct PipelineSnapshot {
    /// Cycle of the most recent issue.
    pub last_issue: u64,
    /// Cycle the current issue group belongs to.
    pub slot_cycle: u64,
    /// Issue slots consumed in `slot_cycle`.
    pub slots_used: u32,
    /// Functional units consumed in `slot_cycle`:
    /// `[int, mem, fp, branch]`.
    pub fu_used: [u32; 4],
    /// Earliest cycle the fetch stream can deliver.
    pub fetch_ready: u64,
    /// I-cache line of the last fetch, if the stream is sequential.
    pub last_fetch_line: Option<u64>,
    /// Call-frame scoreboards, outermost first.
    pub frames: Vec<PipelineFrameSnapshot>,
    /// A call issued but not yet entered: `(params_ready_at,
    /// return_registers)`.
    pub pending_call: Option<(u64, Vec<u32>)>,
    /// High-water mark of scheduled completion cycles.
    pub horizon: u64,
    /// Mid-run statistics accumulated so far.
    pub stats: SimStats,
    /// Instruction cache state.
    pub icache: CacheSnapshot,
    /// Data cache state.
    pub dcache: CacheSnapshot,
    /// Branch predictor state.
    pub btb: BtbSnapshot,
}

/// One recorded computation instance of a [`CrbEntrySnapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrbInstanceSnapshot {
    /// Valid bit.
    pub valid: bool,
    /// Input bank: `(register, value bit pattern)` pairs.
    pub inputs: Vec<(u32, u64)>,
    /// Input-bank fingerprint (the buffer's internal match filter).
    pub fp: u64,
    /// Output bank: `(register, value bit pattern)` pairs.
    pub outputs: Vec<(u32, u64)>,
    /// Memory-valid flag: the body loaded from memory.
    pub accesses_memory: bool,
    /// Dynamic instructions a hit on this instance skips.
    pub body_instrs: u64,
    /// LRU timestamp of the last hit or record.
    pub last_use: u64,
    /// FIFO timestamp of insertion.
    pub inserted: u64,
}

/// One ghost (recently evicted instance) of a [`CrbEntrySnapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrbGhostSnapshot {
    /// The evicted instance's input bank.
    pub inputs: Vec<(u32, u64)>,
    /// The evicted instance's input fingerprint.
    pub fp: u64,
    /// Eviction cause, as an index into [`MissCause::ALL`].
    pub cause: u64,
}

/// One direct-mapped CRB entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrbEntrySnapshot {
    /// Owning region, if any.
    pub tag: Option<u32>,
    /// Instance slots (geometry fixed by the buffer config).
    pub instances: Vec<CrbInstanceSnapshot>,
    /// Ghost list, oldest first.
    pub ghosts: Vec<CrbGhostSnapshot>,
}

/// Complete reuse-buffer state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrbSnapshot {
    /// LRU/FIFO clock.
    pub clock: u64,
    /// Replacement RNG state (xorshift64*).
    pub rng: u64,
    /// Buffer-level counters.
    pub stats: CrbStats,
    /// Cause of the most recent miss, as an index into
    /// [`MissCause::ALL`].
    pub last_miss_cause: Option<u64>,
    /// Regions that ever recorded an instance, sorted.
    pub ever_recorded: Vec<u32>,
    /// Entries in index order.
    pub entries: Vec<CrbEntrySnapshot>,
}

/// Mid-run fingerprint-chain state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FingerprintSnapshot {
    /// Window size in cycles.
    pub window: u64,
    /// Running chain hash.
    pub hash: u64,
    /// Sealed windows so far.
    pub windows: Vec<WindowDigest>,
}

/// The complete state of a mid-run simulation.
#[derive(Clone, Debug, PartialEq)]
pub struct SimSnapshot {
    /// Workload name the snapshot was taken from (preflight check on
    /// restore; empty = unknown).
    pub workload: String,
    /// Config hash of the producing run (preflight check on restore;
    /// empty = unknown).
    pub config_hash: String,
    /// Simulated cycle at capture.
    pub cycle: u64,
    /// Emulator architectural state.
    pub emu: EmuSnapshot,
    /// Pipeline timing state.
    pub pipeline: PipelineSnapshot,
    /// Reuse-buffer state (`None` = baseline machine without CCR
    /// hardware).
    pub crb: Option<CrbSnapshot>,
    /// Fingerprint chain state.
    pub fingerprint: FingerprintSnapshot,
}

/// Maps a miss cause to its stable index in [`MissCause::ALL`].
pub(crate) fn cause_index(c: MissCause) -> u64 {
    MissCause::ALL
        .iter()
        .position(|x| *x == c)
        .expect("every cause is in ALL") as u64
}

/// Inverse of [`cause_index`].
pub(crate) fn cause_from_index(i: u64) -> Result<MissCause, String> {
    usize::try_from(i)
        .ok()
        .and_then(|i| MissCause::ALL.get(i).copied())
        .ok_or_else(|| {
            format!(
                "miss-cause index {i} out of range (0..={})",
                MissCause::ALL.len() - 1
            )
        })
}

/// The pending call of a [`PipelineSnapshot`]: `null`, or
/// `{ready_at, ret_regs}` (a missing key reads as no pending call).
struct PendingCall;

impl Codec<Option<(u64, Vec<u32>)>> for PendingCall {
    fn put(call: &Option<(u64, Vec<u32>)>, key: &str, w: &mut JsonWriter) {
        w.key(key);
        match call {
            None => {
                w.null_val();
            }
            Some((ready_at, ret_regs)) => {
                w.obj_begin();
                Strict::put(ready_at, "ready_at", w);
                Strict::put(ret_regs, "ret_regs", w);
                w.obj_end();
            }
        }
    }
    fn get(v: &Value, key: &str, ctx: &str) -> Result<Option<(u64, Vec<u32>)>, String> {
        match v.get(key) {
            None | Some(Value::Null) => Ok(None),
            Some(call) => Ok(Some((
                Strict::get(call, "ready_at", ctx)?,
                Strict::get(call, "ret_regs", ctx)?,
            ))),
        }
    }
}

/// The per-region rows of a [`SimStats`], sorted by region, each a
/// `region` id followed by its [`RegionDynStats`]. Lenient like the
/// counters (a missing or mistyped list reads empty), except that a
/// row needs a valid `region`.
struct RegionRows;

impl Codec<HashMap<RegionId, RegionDynStats>> for RegionRows {
    fn put(rows: &HashMap<RegionId, RegionDynStats>, key: &str, w: &mut JsonWriter) {
        let mut rows: Vec<_> = rows.iter().collect();
        rows.sort_by_key(|(r, _)| r.index());
        w.key(key).arr_begin();
        for (r, rs) in rows {
            w.obj_begin();
            Strict::put(&r.0, "region", w);
            rs.put_fields(w);
            w.obj_end();
        }
        w.arr_end();
    }
    fn get(v: &Value, key: &str, ctx: &str) -> Result<HashMap<RegionId, RegionDynStats>, String> {
        let rows = v.get(key).and_then(Value::as_arr).unwrap_or_default();
        rows.iter()
            .map(|r| {
                let id = Strict::get(r, "region", ctx)?;
                Ok((RegionId(id), RegionDynStats::get_fields(r, ctx)?))
            })
            .collect()
    }
}

/// A snapshot's header line, after its `snap_v` tag.
struct Header {
    workload: String,
    config_hash: String,
    cycle: u64,
}

/// A snapshot's `end` trailer: the number of lines before it.
struct End {
    lines: u64,
}

record!(Strict Header { workload: Lenient, config_hash: Lenient, cycle });
record!(Strict End { lines });
record!(Strict PipelineSnapshot {
    last_issue, slot_cycle, slots_used, fu_used, fetch_ready, last_fetch_line, horizon,
    frames, pending_call: PendingCall, icache, dcache, btb, stats,
});
record!(Strict PipelineFrameSnapshot { ready, ret_regs });
record!(Strict CacheSnapshot { tags, hits, misses });
record!(Strict BtbSnapshot { counters, correct, mispredicts });
record!(Strict CrbSnapshot { clock, rng, last_miss_cause, ever_recorded, stats, entries });
record!(Strict CrbEntrySnapshot { tag, instances, ghosts });
record!(Strict CrbInstanceSnapshot {
    valid, inputs: Pairs, fp, outputs: Pairs, accesses_memory, body_instrs, last_use, inserted,
});
record!(Strict CrbGhostSnapshot { inputs: Pairs, fp, cause });
record!(Strict FingerprintSnapshot { window, hash, windows });
record!(Strict WindowDigest { index, cycle, hash });
record!(Strict SimOutcome { run: Flat, stats });
record!(Lenient SimStats {
    cycles, dyn_instrs, skipped_instrs, icache_hits, icache_misses, dcache_hits,
    dcache_misses, branch_correct, branch_mispredicts, reuse_hits, reuse_misses, crb,
    regions: RegionRows,
});
record!(Lenient CrbStats {
    lookups, hits, misses, miss_cold, miss_mismatch, miss_capacity, miss_conflict,
    miss_invalidated, records, invalidations, entry_conflicts,
});
record!(Lenient CycleBuckets { issue, fetch, memory, reuse_hit, drain });
record!(Lenient RegionDynStats {
    hits, misses, miss_cold, miss_mismatch, miss_capacity, miss_conflict, miss_invalidated,
    skipped_instrs,
});

/// Serializes mid-run [`SimStats`] as a JSON object (the per-region
/// rows sorted by region; `attribution` is excluded per the snapshot
/// contract).
pub fn write_sim_stats(w: &mut JsonWriter, s: &SimStats) {
    s.put(w);
}

/// Serializes a snapshot as versioned JSONL (header, one record per
/// section, `end` trailer).
pub fn write_snapshot(snap: &SimSnapshot) -> String {
    let header = Header {
        workload: snap.workload.clone(),
        config_hash: snap.config_hash.clone(),
        cycle: snap.cycle,
    };
    let mut lines = vec![
        record::object(
            |w| {
                w.key("snap_v").u64_val(SNAP_VERSION);
            },
            &header,
        ),
        kind_line("emu", &snap.emu),
        kind_line("pipeline", &snap.pipeline),
    ];
    if let Some(crb) = &snap.crb {
        lines.push(kind_line("crb", crb));
    }
    lines.push(kind_line("fingerprint", &snap.fingerprint));
    let end = End {
        lines: lines.len() as u64,
    };
    lines.push(kind_line("end", &end));
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

/// Parses a snapshot serialized by [`write_snapshot`]. `path` labels
/// error messages only.
///
/// # Errors
///
/// Returns a one-line `{path}[:{line}]: ...` description for an
/// unknown `snap_v`, a malformed line, a missing section, or a
/// missing/mismatched `end` trailer (truncation).
pub fn parse_snapshot(path: &str, text: &str) -> Result<SimSnapshot, String> {
    let mut header: Option<Header> = None;
    let mut emu = None;
    let mut pipeline = None;
    let mut crb = None;
    let mut fingerprint = None;
    let mut seen = 0u64;
    let mut ended = false;
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let lineno = idx + 1;
        let ctx = format!("{path}:{lineno}");
        if ended {
            return Err(format!("{ctx}: data after the end record"));
        }
        let v = value::parse(line).map_err(|e| format!("{ctx}: {}", e.message))?;
        if header.is_none() {
            if v.get("snap_v").and_then(Value::as_u64).is_none() {
                return Err(format!("{ctx}: missing snap_v header"));
            }
            value::check_version(&v, "snap_v", &[SNAP_VERSION])
                .map_err(|e| format!("{ctx}: {e}"))?;
            header = Some(Header::get_fields(&v, &ctx)?);
            seen += 1;
            continue;
        }
        match v.str_field("kind") {
            "emu" => emu = Some(EmuSnapshot::get_fields(&v, &ctx)?),
            "pipeline" => pipeline = Some(PipelineSnapshot::get_fields(&v, &ctx)?),
            "crb" => crb = Some(CrbSnapshot::get_fields(&v, &ctx)?),
            "fingerprint" => fingerprint = Some(FingerprintSnapshot::get_fields(&v, &ctx)?),
            "end" => {
                let End { lines } = End::get_fields(&v, &ctx)?;
                if lines != seen {
                    return Err(format!(
                        "{ctx}: end record says {lines} lines, found {seen}"
                    ));
                }
                ended = true;
                continue;
            }
            // Unknown kinds are additive extensions: skip.
            _ => {}
        }
        seen += 1;
    }
    if !ended {
        return Err(format!("{path}: truncated snapshot (missing end record)"));
    }
    let Header {
        workload,
        config_hash,
        cycle,
    } = header.ok_or_else(|| format!("{path}: empty snapshot"))?;
    Ok(SimSnapshot {
        workload,
        config_hash,
        cycle,
        emu: emu.ok_or_else(|| format!("{path}: snapshot missing emu record"))?,
        pipeline: pipeline.ok_or_else(|| format!("{path}: snapshot missing pipeline record"))?,
        crb,
        fingerprint: fingerprint
            .ok_or_else(|| format!("{path}: snapshot missing fingerprint record"))?,
    })
}

/// Writes `snap` to `path`.
///
/// # Errors
///
/// Returns a one-line `{path}: {io error}` description.
pub fn save_snapshot(path: &Path, snap: &SimSnapshot) -> Result<(), String> {
    std::fs::write(path, write_snapshot(snap)).map_err(|e| format!("{}: {e}", path.display()))
}

/// Reads and parses the snapshot at `path`.
///
/// # Errors
///
/// Returns a one-line description for a missing/unreadable file or any
/// [`parse_snapshot`] failure.
pub fn load_snapshot(path: &Path) -> Result<SimSnapshot, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_snapshot(&path.display().to_string(), &text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crb::{CrbConfig, ReuseBuffer};
    use ccr_profile::{EmuFrameSnapshot, EmuMemoSnapshot};
    use proptest::prelude::*;

    fn sample() -> SimSnapshot {
        let mut stats = SimStats {
            cycles: 1000,
            dyn_instrs: 900,
            skipped_instrs: 50,
            icache_hits: 800,
            icache_misses: 100,
            dcache_hits: 70,
            dcache_misses: 30,
            branch_correct: 60,
            branch_mispredicts: 4,
            reuse_hits: 5,
            reuse_misses: 2,
            crb: CrbStats {
                lookups: 7,
                hits: 5,
                misses: 2,
                miss_cold: 2,
                records: 2,
                ..CrbStats::default()
            },
            ..SimStats::default()
        };
        stats.regions.insert(
            RegionId(3),
            RegionDynStats {
                hits: 5,
                misses: 2,
                miss_cold: 2,
                skipped_instrs: 50,
                ..RegionDynStats::default()
            },
        );
        SimSnapshot {
            workload: "lex".to_string(),
            config_hash: "abc123".to_string(),
            cycle: 1000,
            emu: EmuSnapshot {
                memory: vec![vec![1, 2, u64::MAX], vec![]],
                frames: vec![EmuFrameSnapshot {
                    func: 0,
                    block: 2,
                    pos: 4,
                    regs: vec![17, (-3i64) as u64],
                }],
                dyn_instrs: 900,
                skipped_instrs: 50,
                reuse_hits: 5,
                reuse_misses: 2,
                memo: Some(EmuMemoSnapshot {
                    depth: 0,
                    region: 3,
                    inputs: vec![(1, 17)],
                    outputs: vec![2],
                    written: vec![2, 5],
                    accesses_memory: true,
                    body_instrs: 9,
                }),
            },
            pipeline: PipelineSnapshot {
                last_issue: 999,
                slot_cycle: 999,
                slots_used: 2,
                fu_used: [1, 0, 0, 1],
                fetch_ready: 1001,
                last_fetch_line: Some(42),
                frames: vec![PipelineFrameSnapshot {
                    ready: vec![0, 1000],
                    ret_regs: vec![7],
                }],
                pending_call: Some((1002, vec![1, 2])),
                horizon: 1005,
                stats,
                icache: CacheSnapshot {
                    tags: vec![None, Some(9)],
                    hits: 800,
                    misses: 100,
                },
                dcache: CacheSnapshot {
                    tags: vec![Some(1), None],
                    hits: 70,
                    misses: 30,
                },
                btb: BtbSnapshot {
                    counters: vec![0, 3, 2, 1],
                    correct: 60,
                    mispredicts: 4,
                },
            },
            crb: Some(CrbSnapshot {
                clock: 7,
                rng: 0x9e37_79b9_7f4a_7c15,
                stats: CrbStats {
                    lookups: 7,
                    hits: 5,
                    misses: 2,
                    miss_cold: 2,
                    records: 2,
                    ..CrbStats::default()
                },
                last_miss_cause: Some(0),
                ever_recorded: vec![3],
                entries: vec![CrbEntrySnapshot {
                    tag: Some(3),
                    instances: vec![CrbInstanceSnapshot {
                        valid: true,
                        inputs: vec![(1, 17)],
                        fp: 0xdead,
                        outputs: vec![(2, 34)],
                        accesses_memory: false,
                        body_instrs: 9,
                        last_use: 6,
                        inserted: 2,
                    }],
                    ghosts: vec![CrbGhostSnapshot {
                        inputs: vec![(1, 99)],
                        fp: 0xbeef,
                        cause: 2,
                    }],
                }],
            }),
            fingerprint: FingerprintSnapshot {
                window: 512,
                hash: 0x1234_5678_9abc_def0,
                windows: vec![WindowDigest {
                    index: 0,
                    cycle: 512,
                    hash: 0x1234_5678_9abc_def0,
                }],
            },
        }
    }

    #[test]
    fn snapshot_round_trips() {
        let snap = sample();
        let text = write_snapshot(&snap);
        assert!(text.starts_with(r#"{"snap_v":1"#));
        let back = parse_snapshot("mem", &text).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn baseline_snapshot_without_crb_round_trips() {
        let mut snap = sample();
        snap.crb = None;
        let back = parse_snapshot("mem", &write_snapshot(&snap)).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn truncated_snapshot_is_an_error() {
        let text = write_snapshot(&sample());
        let cut: String = text.lines().take(3).collect::<Vec<_>>().join("\n");
        let err = parse_snapshot("snap.jsonl", &cut).unwrap_err();
        assert_eq!(err, "snap.jsonl: truncated snapshot (missing end record)");
    }

    #[test]
    fn unknown_version_is_an_error() {
        let err = parse_snapshot("s", "{\"snap_v\":9}\n").unwrap_err();
        assert_eq!(err, "s:1: unknown snap_v 9 (known: [1])");
    }

    #[test]
    fn corrupt_line_reports_path_and_line() {
        let mut text = write_snapshot(&sample());
        text = text.replacen("\"kind\":\"pipeline\"", "\"kind\":\"pipeline", 1);
        let err = parse_snapshot("s", &text).unwrap_err();
        assert!(err.starts_with("s:3: "), "{err}");
    }

    #[test]
    fn header_and_trailer_fields_keep_their_reading() {
        let text = write_snapshot(&sample());
        let edit = |from: &str, to: &str| parse_snapshot("s", &text.replacen(from, to, 1));
        // The labels are optional; the cycle and the line count are not.
        let snap = edit(r#""workload":"lex","config_hash":"abc123","#, "").unwrap();
        assert_eq!(
            (snap.workload.as_str(), snap.config_hash.as_str()),
            ("", "")
        );
        assert_eq!(
            edit(r#""cycle":1000}"#, r#""cycle":"1000"}"#).unwrap_err(),
            "s:1: `cycle` is not an unsigned integer"
        );
        assert_eq!(
            edit(r#""cycle":1000}"#, r#""x":0}"#).unwrap_err(),
            "s:1: missing `cycle`"
        );
        assert_eq!(
            edit(r#""lines":5"#, r#""lines":-5"#).unwrap_err(),
            "s:6: `lines` is not an unsigned integer"
        );
    }

    #[test]
    fn unknown_kind_lines_are_skipped() {
        let text = write_snapshot(&sample());
        let mut lines: Vec<&str> = text.lines().collect();
        lines.insert(2, r#"{"kind":"future-extension","x":1}"#);
        // The end trailer counts one more line now.
        let patched = lines
            .join("\n")
            .replace(r#"{"kind":"end","lines":5}"#, r#"{"kind":"end","lines":6}"#);
        let back = parse_snapshot("mem", &patched).unwrap();
        assert_eq!(back, sample());
    }

    #[test]
    fn end_count_mismatch_is_an_error() {
        let text = write_snapshot(&sample())
            .replace(r#"{"kind":"end","lines":5}"#, r#"{"kind":"end","lines":9}"#);
        let err = parse_snapshot("s", &text).unwrap_err();
        assert!(err.contains("end record says 9 lines, found 5"), "{err}");
    }

    #[test]
    fn cause_index_round_trips() {
        for c in MissCause::ALL {
            assert_eq!(cause_from_index(cause_index(c)).unwrap(), c);
        }
        let err = cause_from_index(99).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn save_and_load_round_trip_files() {
        let dir = std::env::temp_dir().join(format!("ccr-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.snap.jsonl");
        let snap = sample();
        save_snapshot(&path, &snap).unwrap();
        assert_eq!(load_snapshot(&path).unwrap(), snap);
        let missing = dir.join("missing.snap.jsonl");
        let err = load_snapshot(&missing).unwrap_err();
        assert!(err.starts_with(&missing.display().to_string()), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The geometry of [`real_snapshot_text`]'s buffer.
    fn small_crb() -> CrbConfig {
        CrbConfig {
            entries: 2,
            ..CrbConfig::with_instances(2)
        }
    }

    /// A snapshot whose CRB section a real buffer wrote: records,
    /// lookups and an invalidation leave valid and stale slots and
    /// ghosts of both causes.
    fn real_snapshot_text() -> String {
        use ccr_ir::{Reg, Value as RegValue};
        use ccr_profile::{CrbModel, RecordedInstance};

        let mut buf = ReuseBuffer::new(small_crb());
        for v in 0..4 {
            buf.record(
                RegionId(v % 3),
                RecordedInstance {
                    inputs: vec![(Reg(1), RegValue::from_int(v.into()))],
                    outputs: vec![(Reg(2), RegValue::from_int((v * 7).into()))],
                    accesses_memory: v % 2 == 0,
                    body_instrs: 9,
                },
            );
            buf.lookup(RegionId(v % 3), &mut |_| RegValue::from_int(1));
        }
        buf.invalidate(RegionId(0));
        let mut snap = sample();
        snap.crb = Some(buf.snapshot().unwrap());
        write_snapshot(&snap)
    }

    /// One edit of a snapshot's text: (byte offset, kind, ASCII byte).
    fn mutations() -> impl Strategy<Value = Vec<(u32, u8, u8)>> {
        proptest::collection::vec((any::<u32>(), 0u8..4, 32u8..127), 1..6)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary text and mutated copies of a real snapshot parse
        /// to a snapshot or a one-line error, never a panic; a parsed
        /// CRB section restores or fails with one line too.
        #[test]
        fn malformed_snapshots_are_one_line_errors(
            line in ".{0,200}",
            edits in mutations(),
        ) {
            let mut text = real_snapshot_text().into_bytes();
            for &(pos, kind, byte) in &edits {
                let pos = pos as usize % (text.len() + 1);
                match kind {
                    0 if pos < text.len() => text[pos] = byte,
                    1 if pos < text.len() => {
                        text.remove(pos);
                    }
                    2 => text.insert(pos, byte),
                    _ => text.truncate(pos),
                }
            }
            let mutated = String::from_utf8(text).expect("edits keep the text ASCII");
            for text in [line.as_str(), mutated.as_str()] {
                match parse_snapshot("s", text) {
                    Err(e) => prop_assert!(!e.contains('\n'), "multi-line error {e:?}"),
                    Ok(snap) => {
                        if let Some(crb) = &snap.crb {
                            if let Err(e) = ReuseBuffer::restore(small_crb(), crb) {
                                prop_assert!(!e.contains('\n'), "multi-line error {e:?}");
                            }
                        }
                    }
                }
            }
        }
    }
}
