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

use std::collections::HashMap;
use std::path::Path;

use ccr_ir::RegionId;
use ccr_profile::{EmuFrameSnapshot, EmuMemoSnapshot, EmuSnapshot, MissCause};
use ccr_telemetry::value::{
    self, elem_u32, elem_u64, opt_u64, req, req_arr, req_bool, req_u32, req_u64, Value,
};
use ccr_telemetry::JsonWriter;

use crate::fingerprint::WindowDigest;
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

fn write_pairs(w: &mut JsonWriter, pairs: &[(u32, u64)]) {
    w.arr_begin();
    for (r, v) in pairs {
        w.u64_val(u64::from(*r));
        w.u64_val(*v);
    }
    w.arr_end();
}

fn write_cache(w: &mut JsonWriter, c: &CacheSnapshot) {
    w.obj_begin();
    w.key("tags").arr_begin();
    for t in &c.tags {
        match t {
            None => w.null_val(),
            Some(t) => w.u64_val(*t),
        };
    }
    w.arr_end();
    w.key("hits").u64_val(c.hits);
    w.key("misses").u64_val(c.misses);
    w.obj_end();
}

fn write_crb_stats(w: &mut JsonWriter, s: &CrbStats) {
    w.obj_begin();
    w.key("lookups").u64_val(s.lookups);
    w.key("hits").u64_val(s.hits);
    w.key("misses").u64_val(s.misses);
    w.key("miss_cold").u64_val(s.miss_cold);
    w.key("miss_mismatch").u64_val(s.miss_mismatch);
    w.key("miss_capacity").u64_val(s.miss_capacity);
    w.key("miss_conflict").u64_val(s.miss_conflict);
    w.key("miss_invalidated").u64_val(s.miss_invalidated);
    w.key("records").u64_val(s.records);
    w.key("invalidations").u64_val(s.invalidations);
    w.key("entry_conflicts").u64_val(s.entry_conflicts);
    w.obj_end();
}

/// Serializes mid-run [`SimStats`] as a JSON object (the per-region
/// map in sorted key order; `attribution` is excluded per the
/// snapshot contract). Also reused by experiment checkpoints.
pub fn write_sim_stats(w: &mut JsonWriter, s: &SimStats) {
    w.obj_begin();
    w.key("cycles").u64_val(s.cycles);
    w.key("dyn_instrs").u64_val(s.dyn_instrs);
    w.key("skipped_instrs").u64_val(s.skipped_instrs);
    w.key("icache_hits").u64_val(s.icache_hits);
    w.key("icache_misses").u64_val(s.icache_misses);
    w.key("dcache_hits").u64_val(s.dcache_hits);
    w.key("dcache_misses").u64_val(s.dcache_misses);
    w.key("branch_correct").u64_val(s.branch_correct);
    w.key("branch_mispredicts").u64_val(s.branch_mispredicts);
    w.key("reuse_hits").u64_val(s.reuse_hits);
    w.key("reuse_misses").u64_val(s.reuse_misses);
    w.key("crb");
    write_crb_stats(w, &s.crb);
    let mut regions: Vec<(&RegionId, &RegionDynStats)> = s.regions.iter().collect();
    regions.sort_by_key(|(r, _)| r.index());
    w.key("regions").arr_begin();
    for (r, rs) in regions {
        w.obj_begin();
        w.key("region").u64_val(r.index() as u64);
        w.key("hits").u64_val(rs.hits);
        w.key("misses").u64_val(rs.misses);
        w.key("miss_cold").u64_val(rs.miss_cold);
        w.key("miss_mismatch").u64_val(rs.miss_mismatch);
        w.key("miss_capacity").u64_val(rs.miss_capacity);
        w.key("miss_conflict").u64_val(rs.miss_conflict);
        w.key("miss_invalidated").u64_val(rs.miss_invalidated);
        w.key("skipped_instrs").u64_val(rs.skipped_instrs);
        w.obj_end();
    }
    w.arr_end();
    w.obj_end();
}

fn emu_line(e: &EmuSnapshot) -> String {
    let mut w = JsonWriter::new();
    w.obj_begin();
    w.key("kind").str_val("emu");
    w.key("dyn_instrs").u64_val(e.dyn_instrs);
    w.key("skipped_instrs").u64_val(e.skipped_instrs);
    w.key("reuse_hits").u64_val(e.reuse_hits);
    w.key("reuse_misses").u64_val(e.reuse_misses);
    w.key("memory").arr_begin();
    for obj in &e.memory {
        w.arr_begin();
        for word in obj {
            w.u64_val(*word);
        }
        w.arr_end();
    }
    w.arr_end();
    w.key("frames").arr_begin();
    for f in &e.frames {
        w.obj_begin();
        w.key("func").u64_val(u64::from(f.func));
        w.key("block").u64_val(u64::from(f.block));
        w.key("pos").u64_val(f.pos);
        w.key("regs").arr_begin();
        for r in &f.regs {
            w.u64_val(*r);
        }
        w.arr_end();
        w.obj_end();
    }
    w.arr_end();
    w.key("memo");
    match &e.memo {
        None => {
            w.null_val();
        }
        Some(m) => {
            w.obj_begin();
            w.key("depth").u64_val(m.depth);
            w.key("region").u64_val(u64::from(m.region));
            w.key("inputs");
            write_pairs(&mut w, &m.inputs);
            w.key("outputs").arr_begin();
            for r in &m.outputs {
                w.u64_val(u64::from(*r));
            }
            w.arr_end();
            w.key("written").arr_begin();
            for r in &m.written {
                w.u64_val(u64::from(*r));
            }
            w.arr_end();
            w.key("accesses_memory").bool_val(m.accesses_memory);
            w.key("body_instrs").u64_val(m.body_instrs);
            w.obj_end();
        }
    }
    w.obj_end();
    w.finish()
}

fn pipeline_line(p: &PipelineSnapshot) -> String {
    let mut w = JsonWriter::new();
    w.obj_begin();
    w.key("kind").str_val("pipeline");
    w.key("last_issue").u64_val(p.last_issue);
    w.key("slot_cycle").u64_val(p.slot_cycle);
    w.key("slots_used").u64_val(u64::from(p.slots_used));
    w.key("fu_used").arr_begin();
    for u in p.fu_used {
        w.u64_val(u64::from(u));
    }
    w.arr_end();
    w.key("fetch_ready").u64_val(p.fetch_ready);
    w.key("last_fetch_line");
    match p.last_fetch_line {
        None => {
            w.null_val();
        }
        Some(line) => {
            w.u64_val(line);
        }
    }
    w.key("horizon").u64_val(p.horizon);
    w.key("frames").arr_begin();
    for f in &p.frames {
        w.obj_begin();
        w.key("ready").arr_begin();
        for r in &f.ready {
            w.u64_val(*r);
        }
        w.arr_end();
        w.key("ret_regs").arr_begin();
        for r in &f.ret_regs {
            w.u64_val(u64::from(*r));
        }
        w.arr_end();
        w.obj_end();
    }
    w.arr_end();
    w.key("pending_call");
    match &p.pending_call {
        None => {
            w.null_val();
        }
        Some((at, regs)) => {
            w.obj_begin();
            w.key("ready_at").u64_val(*at);
            w.key("ret_regs").arr_begin();
            for r in regs {
                w.u64_val(u64::from(*r));
            }
            w.arr_end();
            w.obj_end();
        }
    }
    w.key("icache");
    write_cache(&mut w, &p.icache);
    w.key("dcache");
    write_cache(&mut w, &p.dcache);
    w.key("btb").obj_begin();
    w.key("counters").arr_begin();
    for c in &p.btb.counters {
        w.u64_val(u64::from(*c));
    }
    w.arr_end();
    w.key("correct").u64_val(p.btb.correct);
    w.key("mispredicts").u64_val(p.btb.mispredicts);
    w.obj_end();
    w.key("stats");
    write_sim_stats(&mut w, &p.stats);
    w.obj_end();
    w.finish()
}

fn crb_line(c: &CrbSnapshot) -> String {
    let mut w = JsonWriter::new();
    w.obj_begin();
    w.key("kind").str_val("crb");
    w.key("clock").u64_val(c.clock);
    w.key("rng").u64_val(c.rng);
    w.key("last_miss_cause");
    match c.last_miss_cause {
        None => {
            w.null_val();
        }
        Some(i) => {
            w.u64_val(i);
        }
    }
    w.key("ever_recorded").arr_begin();
    for r in &c.ever_recorded {
        w.u64_val(u64::from(*r));
    }
    w.arr_end();
    w.key("stats");
    write_crb_stats(&mut w, &c.stats);
    w.key("entries").arr_begin();
    for e in &c.entries {
        w.obj_begin();
        w.key("tag");
        match e.tag {
            None => {
                w.null_val();
            }
            Some(t) => {
                w.u64_val(u64::from(t));
            }
        }
        w.key("instances").arr_begin();
        for i in &e.instances {
            w.obj_begin();
            w.key("valid").bool_val(i.valid);
            w.key("inputs");
            write_pairs(&mut w, &i.inputs);
            w.key("fp").u64_val(i.fp);
            w.key("outputs");
            write_pairs(&mut w, &i.outputs);
            w.key("accesses_memory").bool_val(i.accesses_memory);
            w.key("body_instrs").u64_val(i.body_instrs);
            w.key("last_use").u64_val(i.last_use);
            w.key("inserted").u64_val(i.inserted);
            w.obj_end();
        }
        w.arr_end();
        w.key("ghosts").arr_begin();
        for g in &e.ghosts {
            w.obj_begin();
            w.key("inputs");
            write_pairs(&mut w, &g.inputs);
            w.key("fp").u64_val(g.fp);
            w.key("cause").u64_val(g.cause);
            w.obj_end();
        }
        w.arr_end();
        w.obj_end();
    }
    w.arr_end();
    w.obj_end();
    w.finish()
}

fn fingerprint_line(f: &FingerprintSnapshot) -> String {
    let mut w = JsonWriter::new();
    w.obj_begin();
    w.key("kind").str_val("fingerprint");
    w.key("window").u64_val(f.window);
    w.key("hash").u64_val(f.hash);
    w.key("windows").arr_begin();
    for d in &f.windows {
        w.obj_begin();
        w.key("index").u64_val(d.index);
        w.key("cycle").u64_val(d.cycle);
        w.key("hash").u64_val(d.hash);
        w.obj_end();
    }
    w.arr_end();
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
    lines.push(emu_line(&snap.emu));
    lines.push(pipeline_line(&snap.pipeline));
    if let Some(crb) = &snap.crb {
        lines.push(crb_line(crb));
    }
    lines.push(fingerprint_line(&snap.fingerprint));
    let mut w = JsonWriter::new();
    w.obj_begin();
    w.key("kind").str_val("end");
    w.key("lines").u64_val(lines.len() as u64);
    w.obj_end();
    lines.push(w.finish());
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

fn parse_pairs(v: &Value, key: &str, ctx: &str) -> Result<Vec<(u32, u64)>, String> {
    let arr = req_arr(v, key, ctx)?;
    if arr.len() % 2 != 0 {
        return Err(format!("{ctx}: `{key}` has odd length {}", arr.len()));
    }
    arr.chunks_exact(2)
        .map(|c| {
            Ok((
                elem_u32(&c[0], ctx, &format!("`{key}` register"))?,
                elem_u64(&c[1], ctx, &format!("`{key}` value"))?,
            ))
        })
        .collect()
}

fn parse_u64_list(v: &Value, key: &str, ctx: &str) -> Result<Vec<u64>, String> {
    req_arr(v, key, ctx)?
        .iter()
        .map(|x| elem_u64(x, ctx, &format!("`{key}` element")))
        .collect()
}

fn parse_u32_list(v: &Value, key: &str, ctx: &str) -> Result<Vec<u32>, String> {
    req_arr(v, key, ctx)?
        .iter()
        .map(|x| elem_u32(x, ctx, &format!("`{key}` element")))
        .collect()
}

fn parse_emu(v: &Value, ctx: &str) -> Result<EmuSnapshot, String> {
    let memory = req_arr(v, "memory", ctx)?
        .iter()
        .map(|obj| {
            obj.as_arr()
                .ok_or_else(|| format!("{ctx}: memory object is not an array"))?
                .iter()
                .map(|x| elem_u64(x, ctx, "memory word"))
                .collect()
        })
        .collect::<Result<Vec<Vec<u64>>, String>>()?;
    let frames = req_arr(v, "frames", ctx)?
        .iter()
        .map(|f| {
            Ok(EmuFrameSnapshot {
                func: req_u32(f, "func", ctx)?,
                block: req_u32(f, "block", ctx)?,
                pos: req_u64(f, "pos", ctx)?,
                regs: parse_u64_list(f, "regs", ctx)?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let memo = match v.get("memo") {
        None | Some(Value::Null) => None,
        Some(m) => Some(EmuMemoSnapshot {
            depth: req_u64(m, "depth", ctx)?,
            region: req_u32(m, "region", ctx)?,
            inputs: parse_pairs(m, "inputs", ctx)?,
            outputs: parse_u32_list(m, "outputs", ctx)?,
            written: parse_u32_list(m, "written", ctx)?,
            accesses_memory: req_bool(m, "accesses_memory", ctx)?,
            body_instrs: req_u64(m, "body_instrs", ctx)?,
        }),
    };
    Ok(EmuSnapshot {
        memory,
        frames,
        dyn_instrs: req_u64(v, "dyn_instrs", ctx)?,
        skipped_instrs: req_u64(v, "skipped_instrs", ctx)?,
        reuse_hits: req_u64(v, "reuse_hits", ctx)?,
        reuse_misses: req_u64(v, "reuse_misses", ctx)?,
        memo,
    })
}

fn parse_cache(v: &Value, key: &str, ctx: &str) -> Result<CacheSnapshot, String> {
    let c = req(v, key, ctx)?;
    let tags = req_arr(c, "tags", ctx)?
        .iter()
        .map(|t| match t {
            Value::Null => Ok(None),
            t => elem_u64(t, ctx, "cache tag").map(Some),
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(CacheSnapshot {
        tags,
        hits: req_u64(c, "hits", ctx)?,
        misses: req_u64(c, "misses", ctx)?,
    })
}

fn parse_crb_stats(v: &Value) -> CrbStats {
    CrbStats {
        lookups: v.u64_field("lookups"),
        hits: v.u64_field("hits"),
        misses: v.u64_field("misses"),
        miss_cold: v.u64_field("miss_cold"),
        miss_mismatch: v.u64_field("miss_mismatch"),
        miss_capacity: v.u64_field("miss_capacity"),
        miss_conflict: v.u64_field("miss_conflict"),
        miss_invalidated: v.u64_field("miss_invalidated"),
        records: v.u64_field("records"),
        invalidations: v.u64_field("invalidations"),
        entry_conflicts: v.u64_field("entry_conflicts"),
    }
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
    let mut regions = HashMap::new();
    if let Some(arr) = v.get("regions").and_then(Value::as_arr) {
        for r in arr {
            let id = req_u32(r, "region", ctx)?;
            regions.insert(
                RegionId(id),
                RegionDynStats {
                    hits: r.u64_field("hits"),
                    misses: r.u64_field("misses"),
                    miss_cold: r.u64_field("miss_cold"),
                    miss_mismatch: r.u64_field("miss_mismatch"),
                    miss_capacity: r.u64_field("miss_capacity"),
                    miss_conflict: r.u64_field("miss_conflict"),
                    miss_invalidated: r.u64_field("miss_invalidated"),
                    skipped_instrs: r.u64_field("skipped_instrs"),
                },
            );
        }
    }
    Ok(SimStats {
        cycles: v.u64_field("cycles"),
        dyn_instrs: v.u64_field("dyn_instrs"),
        skipped_instrs: v.u64_field("skipped_instrs"),
        icache_hits: v.u64_field("icache_hits"),
        icache_misses: v.u64_field("icache_misses"),
        dcache_hits: v.u64_field("dcache_hits"),
        dcache_misses: v.u64_field("dcache_misses"),
        branch_correct: v.u64_field("branch_correct"),
        branch_mispredicts: v.u64_field("branch_mispredicts"),
        reuse_hits: v.u64_field("reuse_hits"),
        reuse_misses: v.u64_field("reuse_misses"),
        crb: v.get("crb").map(parse_crb_stats).unwrap_or_default(),
        regions,
        attribution: None,
    })
}

fn parse_pipeline(v: &Value, ctx: &str) -> Result<PipelineSnapshot, String> {
    let fu = parse_u64_list(v, "fu_used", ctx)?;
    if fu.len() != 4 {
        return Err(format!("{ctx}: `fu_used` has {} entries, want 4", fu.len()));
    }
    let mut fu_used = [0u32; 4];
    for (slot, x) in fu_used.iter_mut().zip(&fu) {
        *slot = u32::try_from(*x).map_err(|_| format!("{ctx}: `fu_used` exceeds u32"))?;
    }
    let frames = req_arr(v, "frames", ctx)?
        .iter()
        .map(|f| {
            Ok(PipelineFrameSnapshot {
                ready: parse_u64_list(f, "ready", ctx)?,
                ret_regs: parse_u32_list(f, "ret_regs", ctx)?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let pending_call = match v.get("pending_call") {
        None | Some(Value::Null) => None,
        Some(pc) => Some((
            req_u64(pc, "ready_at", ctx)?,
            parse_u32_list(pc, "ret_regs", ctx)?,
        )),
    };
    let btb = req(v, "btb", ctx)?;
    let counters = req_arr(btb, "counters", ctx)?
        .iter()
        .map(|c| {
            u8::try_from(elem_u64(c, ctx, "btb counter")?)
                .map_err(|_| format!("{ctx}: btb counter exceeds u8"))
        })
        .collect::<Result<Vec<u8>, String>>()?;
    Ok(PipelineSnapshot {
        last_issue: req_u64(v, "last_issue", ctx)?,
        slot_cycle: req_u64(v, "slot_cycle", ctx)?,
        slots_used: req_u32(v, "slots_used", ctx)?,
        fu_used,
        fetch_ready: req_u64(v, "fetch_ready", ctx)?,
        last_fetch_line: opt_u64(v, "last_fetch_line", ctx)?,
        frames,
        pending_call,
        horizon: req_u64(v, "horizon", ctx)?,
        stats: parse_sim_stats(req(v, "stats", ctx)?, ctx)?,
        icache: parse_cache(v, "icache", ctx)?,
        dcache: parse_cache(v, "dcache", ctx)?,
        btb: BtbSnapshot {
            counters,
            correct: req_u64(btb, "correct", ctx)?,
            mispredicts: req_u64(btb, "mispredicts", ctx)?,
        },
    })
}

fn parse_crb(v: &Value, ctx: &str) -> Result<CrbSnapshot, String> {
    let entries = req_arr(v, "entries", ctx)?
        .iter()
        .map(|e| {
            let instances = req_arr(e, "instances", ctx)?
                .iter()
                .map(|i| {
                    Ok(CrbInstanceSnapshot {
                        valid: req_bool(i, "valid", ctx)?,
                        inputs: parse_pairs(i, "inputs", ctx)?,
                        fp: req_u64(i, "fp", ctx)?,
                        outputs: parse_pairs(i, "outputs", ctx)?,
                        accesses_memory: req_bool(i, "accesses_memory", ctx)?,
                        body_instrs: req_u64(i, "body_instrs", ctx)?,
                        last_use: req_u64(i, "last_use", ctx)?,
                        inserted: req_u64(i, "inserted", ctx)?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            let ghosts = req_arr(e, "ghosts", ctx)?
                .iter()
                .map(|g| {
                    Ok(CrbGhostSnapshot {
                        inputs: parse_pairs(g, "inputs", ctx)?,
                        fp: req_u64(g, "fp", ctx)?,
                        cause: req_u64(g, "cause", ctx)?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok(CrbEntrySnapshot {
                tag: opt_u64(e, "tag", ctx)?
                    .map(|t| u32::try_from(t).map_err(|_| format!("{ctx}: `tag` exceeds u32")))
                    .transpose()?,
                instances,
                ghosts,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(CrbSnapshot {
        clock: req_u64(v, "clock", ctx)?,
        rng: req_u64(v, "rng", ctx)?,
        stats: parse_crb_stats(req(v, "stats", ctx)?),
        last_miss_cause: opt_u64(v, "last_miss_cause", ctx)?,
        ever_recorded: parse_u32_list(v, "ever_recorded", ctx)?,
        entries,
    })
}

fn parse_fingerprint(v: &Value, ctx: &str) -> Result<FingerprintSnapshot, String> {
    let windows = req_arr(v, "windows", ctx)?
        .iter()
        .map(|d| {
            Ok(WindowDigest {
                index: req_u64(d, "index", ctx)?,
                cycle: req_u64(d, "cycle", ctx)?,
                hash: req_u64(d, "hash", ctx)?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(FingerprintSnapshot {
        window: req_u64(v, "window", ctx)?,
        hash: req_u64(v, "hash", ctx)?,
        windows,
    })
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
            "emu" => emu = Some(parse_emu(&v, &ctx)?),
            "pipeline" => pipeline = Some(parse_pipeline(&v, &ctx)?),
            "crb" => crb = Some(parse_crb(&v, &ctx)?),
            "fingerprint" => fingerprint = Some(parse_fingerprint(&v, &ctx)?),
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
