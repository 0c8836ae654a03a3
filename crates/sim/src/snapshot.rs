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
//! Each record's fields are listed once, in wire order, by a `record!`
//! declaration, which derives both its writer and its reader; the
//! experiment checkpoint line ([`write_outcome_fields`]) and the run
//! report ([`write_sim_stats_fields`]) reuse the same declarations. A
//! record is read in one of two modes:
//!
//! - *strict* (the snapshot records and [`ccr_profile::RunOutcome`]):
//!   a missing key is a one-line `missing `k`` error, and a missing or
//!   `null` optional field reads as `None`;
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
use ccr_profile::{EmuFrameSnapshot, EmuMemoSnapshot, EmuSnapshot, MissCause, RunOutcome};
use ccr_telemetry::value::{self, req_u64, Value};
use ccr_telemetry::JsonWriter;

use crate::fingerprint::WindowDigest;
use crate::session::SimOutcome;
use crate::stats::{CrbStats, RegionDynStats, SimStats};

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

/// One JSON value shape, both directions. `get` reads a present value
/// (`key` names it in errors, `ctx` locates it); `absent` is what a
/// strict record reads for a missing key, where the type has such a
/// value.
trait Wire: Sized {
    fn put(&self, w: &mut JsonWriter);
    fn get(v: &Value, key: &str, ctx: &str) -> Result<Self, String>;
    fn absent() -> Option<Self> {
        None
    }
}

/// How one field of a record goes on the wire: the record's read mode
/// ([`Strict`], [`Lenient`]) or a field codec of its own.
trait Codec<T> {
    fn put(x: &T, w: &mut JsonWriter);
    /// Reads field `key` of the record object `v`.
    fn get(v: &Value, key: &str, ctx: &str) -> Result<T, String>;
}

/// A JSON object whose fields a `record!` declaration lists.
trait Record: Sized {
    fn put_fields(&self, w: &mut JsonWriter);
    fn get_fields(v: &Value, ctx: &str) -> Result<Self, String>;
}

impl<R: Record> Wire for R {
    fn put(&self, w: &mut JsonWriter) {
        w.obj_begin();
        self.put_fields(w);
        w.obj_end();
    }
    fn get(v: &Value, _key: &str, ctx: &str) -> Result<Self, String> {
        R::get_fields(v, ctx)
    }
}

fn not_a(what: &str, key: &str, ctx: &str) -> String {
    format!("{ctx}: `{key}` is not {what}")
}

impl Wire for u64 {
    fn put(&self, w: &mut JsonWriter) {
        w.u64_val(*self);
    }
    fn get(v: &Value, key: &str, ctx: &str) -> Result<u64, String> {
        v.as_u64()
            .ok_or_else(|| not_a("an unsigned integer", key, ctx))
    }
}

/// Narrower unsigned integers: written as `u64`, range-checked on read.
macro_rules! narrow_wire {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn put(&self, w: &mut JsonWriter) {
                w.u64_val(u64::from(*self));
            }
            fn get(v: &Value, key: &str, ctx: &str) -> Result<$t, String> {
                <$t>::try_from(u64::get(v, key, ctx)?)
                    .map_err(|_| format!("{ctx}: `{key}` exceeds {}", stringify!($t)))
            }
        }
    )*};
}
narrow_wire!(u32, u8);

impl Wire for bool {
    fn put(&self, w: &mut JsonWriter) {
        w.bool_val(*self);
    }
    fn get(v: &Value, key: &str, ctx: &str) -> Result<bool, String> {
        v.as_bool().ok_or_else(|| not_a("a boolean", key, ctx))
    }
}

/// A register value, as the signed integer it holds.
impl Wire for ccr_ir::Value {
    fn put(&self, w: &mut JsonWriter) {
        w.i64_val(self.0);
    }
    fn get(v: &Value, key: &str, ctx: &str) -> Result<ccr_ir::Value, String> {
        match *v {
            Value::U64(n) => i64::try_from(n)
                .map(ccr_ir::Value)
                .map_err(|_| format!("{ctx}: `{key}` value out of i64 range")),
            Value::I64(n) => Ok(ccr_ir::Value(n)),
            _ => Err(not_a("an integer", key, ctx)),
        }
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut JsonWriter) {
        match self {
            None => {
                w.null_val();
            }
            Some(x) => x.put(w),
        }
    }
    fn get(v: &Value, key: &str, ctx: &str) -> Result<Option<T>, String> {
        match v {
            Value::Null => Ok(None),
            v => T::get(v, key, ctx).map(Some),
        }
    }
    fn absent() -> Option<Option<T>> {
        Some(None)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, w: &mut JsonWriter) {
        w.arr_begin();
        for x in self {
            x.put(w);
        }
        w.arr_end();
    }
    fn get(v: &Value, key: &str, ctx: &str) -> Result<Vec<T>, String> {
        v.as_arr()
            .ok_or_else(|| not_a("an array", key, ctx))?
            .iter()
            .map(|x| T::get(x, key, ctx))
            .collect()
    }
}

impl Wire for [u32; 4] {
    fn put(&self, w: &mut JsonWriter) {
        self.to_vec().put(w);
    }
    fn get(v: &Value, key: &str, ctx: &str) -> Result<[u32; 4], String> {
        let all = Vec::<u32>::get(v, key, ctx)?;
        let n = all.len();
        all.try_into()
            .map_err(|_| format!("{ctx}: `{key}` has {n} entries, want 4"))
    }
}

/// The pending call of a [`PipelineSnapshot`]: `{ready_at, ret_regs}`.
impl Wire for (u64, Vec<u32>) {
    fn put(&self, w: &mut JsonWriter) {
        w.obj_begin();
        w.key("ready_at").u64_val(self.0);
        w.key("ret_regs");
        self.1.put(w);
        w.obj_end();
    }
    fn get(v: &Value, _key: &str, ctx: &str) -> Result<(u64, Vec<u32>), String> {
        Ok((
            Strict::get(v, "ready_at", ctx)?,
            Strict::get(v, "ret_regs", ctx)?,
        ))
    }
}

/// Strict read mode: a missing key is an error, unless the field's
/// type reads absence (`Option` reads `None`).
struct Strict;

impl<T: Wire> Codec<T> for Strict {
    fn put(x: &T, w: &mut JsonWriter) {
        x.put(w);
    }
    fn get(v: &Value, key: &str, ctx: &str) -> Result<T, String> {
        match v.get(key) {
            None => T::absent().ok_or_else(|| format!("{ctx}: missing `{key}`")),
            Some(x) => T::get(x, key, ctx),
        }
    }
}

/// Lenient read mode: a missing or mistyped field reads as its
/// default (0 for a counter).
struct Lenient;

impl<T: Wire + Default> Codec<T> for Lenient {
    fn put(x: &T, w: &mut JsonWriter) {
        x.put(w);
    }
    fn get(v: &Value, key: &str, ctx: &str) -> Result<T, String> {
        Ok(v.get(key)
            .and_then(|x| T::get(x, key, ctx).ok())
            .unwrap_or_default())
    }
}

/// A CRB bank: `(register, value)` pairs as one flat array.
struct Pairs;

impl Codec<Vec<(u32, u64)>> for Pairs {
    fn put(pairs: &Vec<(u32, u64)>, w: &mut JsonWriter) {
        w.arr_begin();
        for &(r, x) in pairs {
            w.u64_val(u64::from(r)).u64_val(x);
        }
        w.arr_end();
    }
    fn get(v: &Value, key: &str, ctx: &str) -> Result<Vec<(u32, u64)>, String> {
        let flat: Vec<u64> = Strict::get(v, key, ctx)?;
        if !flat.len().is_multiple_of(2) {
            return Err(format!("{ctx}: `{key}` has odd length {}", flat.len()));
        }
        flat.chunks_exact(2)
            .map(|c| {
                let r = u32::try_from(c[0])
                    .map_err(|_| format!("{ctx}: `{key}` register exceeds u32"))?;
                Ok((r, c[1]))
            })
            .collect()
    }
}

/// The per-region rows of a [`SimStats`], sorted by region, each a
/// `region` id followed by its [`RegionDynStats`]. Lenient like the
/// counters (a missing or mistyped list reads empty), except that a
/// row needs a valid `region`.
struct RegionRows;

impl Codec<HashMap<RegionId, RegionDynStats>> for RegionRows {
    fn put(rows: &HashMap<RegionId, RegionDynStats>, w: &mut JsonWriter) {
        let mut rows: Vec<_> = rows.iter().collect();
        rows.sort_by_key(|(r, _)| r.index());
        w.arr_begin();
        for (r, rs) in rows {
            w.obj_begin();
            w.key("region").u64_val(r.index() as u64);
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

/// The codec of one field: its own, or the record's read mode.
macro_rules! codec {
    ($mode:ident) => {
        $mode
    };
    ($mode:ident $own:ident) => {
        $own
    };
}

/// Declares a record's wire shape once: its fields in wire order, each
/// read in the record's mode unless it names a codec of its own
/// (`field: Codec`). A strict record is built field by field; a
/// lenient one starts from `Default`, so fields kept off the wire
/// (`SimStats::attribution`) read as their default.
macro_rules! record {
    ($mode:ident $ty:ident { $($f:ident $(: $own:ident)?),* $(,)? }) => {
        impl Record for $ty {
            fn put_fields(&self, w: &mut JsonWriter) {
                $(
                    w.key(stringify!($f));
                    <codec!($mode $($own)?) as Codec<_>>::put(&self.$f, w);
                )*
            }
            fn get_fields(v: &Value, ctx: &str) -> Result<Self, String> {
                record!(@get $mode v, ctx, $($f $(: $own)?),*)
            }
        }
    };
    (@get Strict $v:ident, $ctx:ident, $($f:ident $(: $own:ident)?),*) => {
        Ok(Self {
            $($f: <codec!(Strict $($own)?) as Codec<_>>::get($v, stringify!($f), $ctx)?,)*
        })
    };
    (@get Lenient $v:ident, $ctx:ident, $($f:ident $(: $own:ident)?),*) => {{
        let mut r = Self::default();
        $(r.$f = <codec!(Lenient $($own)?) as Codec<_>>::get($v, stringify!($f), $ctx)?;)*
        Ok(r)
    }};
}

record!(Strict EmuSnapshot {
    dyn_instrs, skipped_instrs, reuse_hits, reuse_misses, memory, frames, memo,
});
record!(Strict EmuFrameSnapshot { func, block, pos, regs });
record!(Strict EmuMemoSnapshot {
    depth, region, inputs: Pairs, outputs, written, accesses_memory, body_instrs,
});
record!(Strict PipelineSnapshot {
    last_issue, slot_cycle, slots_used, fu_used, fetch_ready, last_fetch_line, horizon,
    frames, pending_call, icache, dcache, btb, stats,
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
record!(Strict RunOutcome {
    returned, dyn_instrs, skipped_instrs, reuse_hits, reuse_misses, memory_digest,
});
record!(Lenient SimStats {
    cycles, dyn_instrs, skipped_instrs, icache_hits, icache_misses, dcache_hits,
    dcache_misses, branch_correct, branch_mispredicts, reuse_hits, reuse_misses, crb,
    regions: RegionRows,
});
record!(Lenient CrbStats {
    lookups, hits, misses, miss_cold, miss_mismatch, miss_capacity, miss_conflict,
    miss_invalidated, records, invalidations, entry_conflicts,
});
record!(Lenient RegionDynStats {
    hits, misses, miss_cold, miss_mismatch, miss_capacity, miss_conflict, miss_invalidated,
    skipped_instrs,
});

/// Serializes mid-run [`SimStats`] as a JSON object (the per-region
/// rows sorted by region; `attribution` is excluded per the snapshot
/// contract). Also reused by experiment checkpoints.
pub fn write_sim_stats(w: &mut JsonWriter, s: &SimStats) {
    s.put(w);
}

/// The members of [`write_sim_stats`]'s object, without its braces, so
/// a caller can append fields of its own (the run report's
/// `effective_ipc` and `attribution`).
pub fn write_sim_stats_fields(w: &mut JsonWriter, s: &SimStats) {
    s.put_fields(w);
}

/// Parses a [`SimStats`] object written by [`write_sim_stats`].
/// Missing counters read as zero (additive tolerance, matching the
/// run-store conventions); `attribution` is always `None`.
///
/// # Errors
///
/// Returns a `{ctx}:`-prefixed one-line description on a structurally
/// invalid region row.
pub fn parse_sim_stats(v: &Value, ctx: &str) -> Result<SimStats, String> {
    SimStats::get_fields(v, ctx)
}

/// Writes a finished run's outcome as object members: the
/// [`RunOutcome`] fields (returned values, dynamic counts, memory
/// digest), then its `stats` object (the checkpoint journal's entry).
pub fn write_outcome_fields(w: &mut JsonWriter, o: &SimOutcome) {
    o.run.put_fields(w);
    w.key("stats");
    o.stats.put(w);
}

/// Parses the members [`write_outcome_fields`] wrote.
///
/// # Errors
///
/// Returns a `{ctx}:`-prefixed one-line description of the first
/// missing or mistyped field.
pub fn parse_outcome(v: &Value, ctx: &str) -> Result<SimOutcome, String> {
    Ok(SimOutcome {
        run: RunOutcome::get_fields(v, ctx)?,
        stats: Strict::get(v, "stats", ctx)?,
    })
}

/// One `{"kind":...}` line of a snapshot.
fn record_line(kind: &str, fields: impl FnOnce(&mut JsonWriter)) -> String {
    let mut w = JsonWriter::new();
    w.obj_begin();
    w.key("kind").str_val(kind);
    fields(&mut w);
    w.obj_end();
    w.finish()
}

/// Serializes a snapshot as versioned JSONL (header, one record per
/// section, `end` trailer).
pub fn write_snapshot(snap: &SimSnapshot) -> String {
    let mut lines: Vec<String> = Vec::new();
    let mut w = JsonWriter::new();
    w.obj_begin();
    w.key("snap_v").u64_val(SNAP_VERSION);
    w.key("workload").str_val(&snap.workload);
    w.key("config_hash").str_val(&snap.config_hash);
    w.key("cycle").u64_val(snap.cycle);
    w.obj_end();
    lines.push(w.finish());
    lines.push(record_line("emu", |w| snap.emu.put_fields(w)));
    lines.push(record_line("pipeline", |w| snap.pipeline.put_fields(w)));
    if let Some(crb) = &snap.crb {
        lines.push(record_line("crb", |w| crb.put_fields(w)));
    }
    lines.push(record_line("fingerprint", |w| {
        snap.fingerprint.put_fields(w)
    }));
    let end = lines.len() as u64;
    lines.push(record_line("end", |w| {
        w.key("lines").u64_val(end);
    }));
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
    let mut header: Option<(String, String, u64)> = None;
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
            header = Some((
                v.str_field("workload").to_string(),
                v.str_field("config_hash").to_string(),
                req_u64(&v, "cycle", &ctx)?,
            ));
            seen += 1;
            continue;
        }
        match v.str_field("kind") {
            "emu" => emu = Some(EmuSnapshot::get_fields(&v, &ctx)?),
            "pipeline" => pipeline = Some(PipelineSnapshot::get_fields(&v, &ctx)?),
            "crb" => crb = Some(CrbSnapshot::get_fields(&v, &ctx)?),
            "fingerprint" => fingerprint = Some(FingerprintSnapshot::get_fields(&v, &ctx)?),
            "end" => {
                let lines = req_u64(&v, "lines", &ctx)?;
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
    let (workload, config_hash, cycle) = header.ok_or_else(|| format!("{path}: empty snapshot"))?;
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
