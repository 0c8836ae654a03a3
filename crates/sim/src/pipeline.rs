//! The in-order timing pipeline.
//!
//! Consumes the emulator's dynamic instruction stream as a
//! [`TraceSink`] and charges cycles: in-order issue of up to
//! `issue_width` operations per cycle, bounded by functional-unit
//! counts and register readiness (a scoreboard per call frame), with
//! an I-cache on the fetch stream, a D-cache under loads and stores, a
//! BTB with a misprediction penalty, and the reuse-instruction timing
//! of Section 3.3: a hit waits for the instance's input registers
//! (the "read state" and "validate" stages), then commits its
//! live-out registers at retirement width; a miss flushes like a
//! branch misprediction.

use std::collections::HashMap;

use ccr_ir::{CodeLayout, FuncId, InstrExt, Latency, Op, OpClass, Reg, RegionId};
use ccr_profile::{ExecEvent, MissCause, TraceSink};

use crate::btb::Btb;
use crate::cache::Cache;
use crate::machine::MachineConfig;
use crate::snapshot::{BtbSnapshot, CacheSnapshot, PipelineFrameSnapshot, PipelineSnapshot};
use crate::stats::{AttrBucket, Attribution, CycleBuckets, FuncCycles, RegionDynStats, SimStats};

/// Functional units issued this cycle, indexed by [`fu_unit`]: integer
/// ALUs, memory ports, FP ALUs, branch units (the order
/// [`PipelineSnapshot::fu_used`] stores them in).
type FuUse = [u32; 4];

/// The functional unit an operation class issues to.
fn fu_unit(class: OpClass) -> usize {
    match class {
        OpClass::IntAlu | OpClass::IntMul | OpClass::Invalidate => 0,
        OpClass::Load | OpClass::Store => 1,
        OpClass::FpAlu => 2,
        OpClass::Branch | OpClass::Reuse => 3,
    }
}

/// Per-call-frame register scoreboard. The IR numbers registers
/// densely from zero within each function, so readiness and producer
/// kind live in plain vectors indexed by [`Reg::index`] — the hottest
/// structures in the simulator. Both grow on demand; a register past
/// the end reads as ready-at-0 / issue-produced, exactly the defaults
/// the old hash-map representation gave absent keys. Popped frames
/// go back to a pool and are reset on reuse to the state a fresh
/// callee frame has: 64 `ready` entries, no `src_kind`.
struct Frame {
    ready: Vec<u64>,
    ret_regs: Vec<Reg>,
    /// Attribution bucket of the producer of each ready register
    /// (profiled runs only; empty otherwise). A register absent here
    /// counts as issue-produced.
    src_kind: Vec<AttrBucket>,
}

impl Frame {
    fn new(ready: Vec<u64>, ret_regs: Vec<Reg>) -> Frame {
        Frame {
            ready,
            ret_regs,
            src_kind: Vec::new(),
        }
    }
}

/// Cycle-attribution bookkeeping, present only when profiling is
/// enabled. Strictly write-only with respect to timing: nothing in
/// the issue/readiness/fetch logic reads it, which is what makes a
/// profiled run cycle-identical to an unprofiled one.
struct AttrState {
    /// Function names indexed by `FuncId::index()`.
    names: Vec<String>,
    /// Watermark: every cycle below this has been charged to exactly
    /// one bucket. Advances to `t + 1` as each instruction issues at
    /// `t`, so bucket totals always sum to the cycle count.
    attributed: u64,
    /// What last advanced `fetch_ready` (I-cache fill, mispredict or
    /// reuse-miss flush ⇒ `Fetch`; reuse-hit redirect ⇒ `ReuseHit`).
    fetch_cause: AttrBucket,
    /// Region whose `reuse` instruction is in flight (set at the
    /// lookup, cleared at the hit commit or the region-end marker).
    cur_region: Option<RegionId>,
    /// Function charged most recently — the drain bucket lands here.
    last_func: FuncId,
    funcs: HashMap<FuncId, CycleBuckets>,
    regions: HashMap<RegionId, u64>,
    total: CycleBuckets,
}

impl AttrState {
    fn charge(&mut self, func: FuncId, bucket: AttrBucket, n: u64) {
        if n == 0 {
            return;
        }
        self.total.charge(bucket, n);
        self.funcs.entry(func).or_default().charge(bucket, n);
        if let Some(region) = self.cur_region {
            *self.regions.entry(region).or_default() += n;
        }
        self.last_func = func;
    }
}

/// The timing model. Create one per simulated run, attach it to an
/// emulation, then call [`Pipeline::into_stats`].
pub struct Pipeline {
    machine: MachineConfig,
    layout: CodeLayout,
    icache: Cache,
    dcache: Cache,
    btb: Btb,
    last_issue: u64,
    slot_cycle: u64,
    slots_used: u32,
    fu_used: FuUse,
    /// Per-unit issue limits from `machine`, indexed like `fu_used`.
    fu_limits: FuUse,
    fetch_ready: u64,
    last_fetch_line: Option<u64>,
    /// log2 of the I-cache line size (a power of two).
    fetch_line_shift: u32,
    frames: Vec<Frame>,
    pending_call: Option<(u64, Vec<Reg>)>,
    horizon: u64,
    /// Every counter but `regions`, which lives in `region_stats`
    /// until the stats are read out.
    stats: SimStats,
    /// Per-region counters indexed by [`RegionId::index`]; `None` for
    /// a region no reuse instruction has touched, so only touched
    /// regions appear in [`SimStats::regions`].
    region_stats: Vec<Option<RegionDynStats>>,
    /// Popped call frames and return-register lists, reused by later
    /// calls. Scratch: not state.
    frame_pool: Vec<Frame>,
    rets_pool: Vec<Vec<Reg>>,
    attr: Option<Box<AttrState>>,
}

impl Pipeline {
    /// Creates a pipeline for a program laid out by `layout`. Data
    /// addresses come from `layout`; code addresses, classes and
    /// register lists come from each event's decoded row, which
    /// [`crate::simulate`] takes from this same layout's table.
    pub fn new(machine: MachineConfig, layout: CodeLayout) -> Pipeline {
        Pipeline {
            icache: Cache::new(machine.icache),
            dcache: Cache::new(machine.dcache),
            btb: Btb::new(machine.btb_entries),
            machine,
            layout,
            last_issue: 0,
            slot_cycle: 0,
            slots_used: 0,
            fu_used: [0; 4],
            fu_limits: [
                machine.int_alus,
                machine.mem_ports,
                machine.fp_alus,
                machine.branch_units,
            ],
            fetch_ready: 0,
            last_fetch_line: None,
            fetch_line_shift: machine.icache.line_bytes.trailing_zeros(),
            frames: vec![Frame::new(Vec::new(), Vec::new())],
            pending_call: None,
            horizon: 0,
            stats: SimStats::default(),
            region_stats: Vec::new(),
            frame_pool: Vec::new(),
            rets_pool: Vec::new(),
            attr: None,
        }
    }

    /// Turns on cycle attribution. `func_names` is indexed by
    /// [`FuncId::index`] (pass the program's function names in id
    /// order). Profiling is observational only: the cycle counts of a
    /// profiled run are identical to an unprofiled one, and
    /// [`Pipeline::into_stats`] additionally carries an
    /// [`Attribution`] whose buckets sum to the total cycles.
    pub fn enable_profiling(&mut self, func_names: Vec<String>) {
        self.attr = Some(Box::new(AttrState {
            names: func_names,
            attributed: 0,
            fetch_cause: AttrBucket::Fetch,
            cur_region: None,
            last_func: FuncId(0),
            funcs: HashMap::new(),
            regions: HashMap::new(),
            total: CycleBuckets::default(),
        }));
    }

    /// Cycles accumulated so far — the same quantity
    /// [`Pipeline::into_stats`] reports at the end of the run. Usable
    /// mid-run for interval (windowed) measurements.
    pub fn cycles_so_far(&self) -> u64 {
        self.horizon.max(self.last_issue + 1)
    }

    /// The issue cycle of the most recently issued instruction.
    pub fn last_issue(&self) -> u64 {
        self.last_issue
    }

    /// The counters so far, with the per-region map filled in.
    fn stats_with_regions(&self) -> SimStats {
        let mut stats = self.stats.clone();
        stats.regions = self
            .region_stats
            .iter()
            .enumerate()
            .filter_map(|(i, rs)| rs.map(|rs| (RegionId(i as u32), rs)))
            .collect();
        stats
    }

    /// Finalizes the run and returns its statistics.
    pub fn into_stats(mut self) -> SimStats {
        self.stats = self.stats_with_regions();
        self.stats.cycles = self.cycles_so_far();
        self.stats.icache_hits = self.icache.hits();
        self.stats.icache_misses = self.icache.misses();
        self.stats.dcache_hits = self.dcache.hits();
        self.stats.dcache_misses = self.dcache.misses();
        self.stats.branch_correct = self.btb.correct();
        self.stats.branch_mispredicts = self.btb.mispredicts();
        if let Some(mut attr) = self.attr.take() {
            // Cycles past the last issue are the end-of-run drain.
            attr.cur_region = None;
            let drain = self.stats.cycles.saturating_sub(attr.attributed);
            let last = attr.last_func;
            attr.charge(last, AttrBucket::Drain, drain);
            let names = std::mem::take(&mut attr.names);
            let mut functions: Vec<FuncCycles> = attr
                .funcs
                .iter()
                .map(|(f, buckets)| FuncCycles {
                    name: names
                        .get(f.index())
                        .cloned()
                        .unwrap_or_else(|| format!("fn{}", f.index())),
                    buckets: *buckets,
                })
                .collect();
            functions.sort_by(|a, b| {
                b.buckets
                    .total()
                    .cmp(&a.buckets.total())
                    .then_with(|| a.name.cmp(&b.name))
            });
            let mut regions: Vec<(RegionId, u64)> =
                attr.regions.iter().map(|(r, c)| (*r, *c)).collect();
            regions.sort_by_key(|(r, _)| r.index());
            self.stats.attribution = Some(Attribution {
                total: attr.total,
                functions,
                regions,
            });
        }
        self.stats
    }

    #[inline]
    fn issue_at(&mut self, earliest: u64, class: OpClass) -> u64 {
        let unit = fu_unit(class);
        let limit = self.fu_limits[unit];
        let mut t = earliest.max(self.last_issue);
        loop {
            if t > self.slot_cycle {
                self.slot_cycle = t;
                self.slots_used = 0;
                self.fu_used = [0; 4];
            }
            if self.slots_used < self.machine.issue_width && self.fu_used[unit] < limit {
                break;
            }
            t += 1;
        }
        self.slots_used += 1;
        self.fu_used[unit] += 1;
        self.last_issue = t;
        t
    }

    #[inline]
    fn set_ready(&mut self, reg: Reg, cycle: u64, kind: AttrBucket) {
        let profiled = self.attr.is_some();
        let frame = self.frames.last_mut().expect("frame");
        let idx = reg.index();
        if frame.ready.len() <= idx {
            frame.ready.resize(idx + 1, 0);
        }
        frame.ready[idx] = cycle;
        if profiled {
            if frame.src_kind.len() <= idx {
                frame.src_kind.resize(idx + 1, AttrBucket::Issue);
            }
            frame.src_kind[idx] = kind;
        }
        self.horizon = self.horizon.max(cycle);
    }

    fn redirect_fetch(&mut self, cycle: u64, cause: AttrBucket) {
        if cycle > self.fetch_ready {
            self.fetch_ready = cycle;
            if let Some(attr) = self.attr.as_mut() {
                attr.fetch_cause = cause;
            }
        }
        self.last_fetch_line = None;
    }

    fn region_stats(&mut self, region: RegionId) -> &mut RegionDynStats {
        let i = region.index();
        if self.region_stats.len() <= i {
            self.region_stats.resize(i + 1, None);
        }
        self.region_stats[i].get_or_insert_with(RegionDynStats::default)
    }

    /// Charges every cycle in `[attributed, t]` for an instruction
    /// issued at `t`: the stall gap to its dominant constraint
    /// (operand producer kind, or the pending fetch cause), the issue
    /// cycle itself to `Issue`.
    fn charge_cycles(&mut self, func: FuncId, t: u64, ops_ready: u64, bind: Option<Reg>) {
        let Some(attr) = self.attr.as_ref() else {
            return;
        };
        let start = attr.attributed;
        if t < start {
            return; // issued into an already-charged cycle
        }
        let bind_kind = bind
            .and_then(|r| {
                self.frames
                    .last()
                    .expect("frame")
                    .src_kind
                    .get(r.index())
                    .copied()
            })
            .unwrap_or(AttrBucket::Issue);
        let fetch_ready = self.fetch_ready;
        let attr = self.attr.as_mut().expect("profiling on");
        if t > start {
            let bucket = if ops_ready > start && ops_ready >= fetch_ready {
                bind_kind
            } else if fetch_ready > start {
                attr.fetch_cause
            } else {
                AttrBucket::Issue // structural: width or FU contention
            };
            attr.charge(func, bucket, t - start);
        }
        attr.charge(func, AttrBucket::Issue, 1);
        attr.attributed = t + 1;
    }

    /// Captures the complete timing state as plain data.
    ///
    /// # Errors
    ///
    /// Profiled pipelines cannot be snapshotted: attribution is
    /// observational-only state the snapshot format deliberately
    /// excludes (a replay would lose its history).
    pub fn snapshot(&self) -> Result<PipelineSnapshot, String> {
        if self.attr.is_some() {
            return Err("cannot snapshot a profiled pipeline".to_string());
        }
        Ok(PipelineSnapshot {
            last_issue: self.last_issue,
            slot_cycle: self.slot_cycle,
            slots_used: self.slots_used,
            fu_used: self.fu_used,
            fetch_ready: self.fetch_ready,
            last_fetch_line: self.last_fetch_line,
            frames: self
                .frames
                .iter()
                .map(|f| PipelineFrameSnapshot {
                    ready: f.ready.clone(),
                    ret_regs: f.ret_regs.iter().map(|r| r.0).collect(),
                })
                .collect(),
            pending_call: self
                .pending_call
                .as_ref()
                .map(|(c, rs)| (*c, rs.iter().map(|r| r.0).collect())),
            horizon: self.horizon,
            stats: self.stats_with_regions(),
            icache: CacheSnapshot {
                tags: self.icache.tags().to_vec(),
                hits: self.icache.hits(),
                misses: self.icache.misses(),
            },
            dcache: CacheSnapshot {
                tags: self.dcache.tags().to_vec(),
                hits: self.dcache.hits(),
                misses: self.dcache.misses(),
            },
            btb: BtbSnapshot {
                counters: self.btb.counters().to_vec(),
                correct: self.btb.correct(),
                mispredicts: self.btb.mispredicts(),
            },
        })
    }

    /// Rebuilds a mid-run pipeline from a snapshot. The restored
    /// pipeline is unprofiled (matching the snapshot contract).
    ///
    /// # Errors
    ///
    /// Returns a one-line description when cache/BTB geometry in the
    /// snapshot does not match `machine`, or the frame stack is empty.
    pub fn restore(
        machine: MachineConfig,
        layout: CodeLayout,
        snap: &PipelineSnapshot,
    ) -> Result<Pipeline, String> {
        if snap.frames.is_empty() {
            return Err("pipeline snapshot has no frames".to_string());
        }
        let mut p = Pipeline::new(machine, layout);
        p.icache = Cache::restore(
            machine.icache,
            snap.icache.tags.clone(),
            snap.icache.hits,
            snap.icache.misses,
        )
        .map_err(|e| format!("icache: {e}"))?;
        p.dcache = Cache::restore(
            machine.dcache,
            snap.dcache.tags.clone(),
            snap.dcache.hits,
            snap.dcache.misses,
        )
        .map_err(|e| format!("dcache: {e}"))?;
        p.btb = Btb::restore(
            machine.btb_entries,
            snap.btb.counters.clone(),
            snap.btb.correct,
            snap.btb.mispredicts,
        )?;
        p.last_issue = snap.last_issue;
        p.slot_cycle = snap.slot_cycle;
        p.slots_used = snap.slots_used;
        p.fu_used = snap.fu_used;
        p.fetch_ready = snap.fetch_ready;
        p.last_fetch_line = snap.last_fetch_line;
        p.frames = snap
            .frames
            .iter()
            .map(|f| {
                Frame::new(
                    f.ready.clone(),
                    f.ret_regs.iter().map(|r| Reg(*r)).collect(),
                )
            })
            .collect();
        p.pending_call = snap
            .pending_call
            .as_ref()
            .map(|(c, rs)| (*c, rs.iter().map(|r| Reg(*r)).collect()));
        p.horizon = snap.horizon;
        p.stats = snap.stats.clone();
        for (region, rs) in std::mem::take(&mut p.stats.regions) {
            *p.region_stats(region) = rs;
        }
        Ok(p)
    }

    /// Folds the full timing state into `push` (fingerprint support).
    /// Profile-only state (`attr`, per-frame `src_kind`) is excluded:
    /// it is observational and never feeds back into timing.
    pub fn fold_state(&self, push: &mut dyn FnMut(u64)) {
        push(self.last_issue);
        push(self.slot_cycle);
        push(u64::from(self.slots_used));
        for n in self.fu_used {
            push(u64::from(n));
        }
        push(self.fetch_ready);
        match self.last_fetch_line {
            None => push(0),
            Some(line) => {
                push(1);
                push(line);
            }
        }
        push(self.frames.len() as u64);
        for f in &self.frames {
            push(f.ready.len() as u64);
            for r in &f.ready {
                push(*r);
            }
            push(f.ret_regs.len() as u64);
            for r in &f.ret_regs {
                push(u64::from(r.0));
            }
        }
        match &self.pending_call {
            None => push(0),
            Some((c, rs)) => {
                push(1);
                push(*c);
                push(rs.len() as u64);
                for r in rs {
                    push(u64::from(r.0));
                }
            }
        }
        push(self.horizon);
        self.stats_with_regions().fold_state(push);
        self.icache.fold_state(push);
        self.dcache.fold_state(push);
        self.btb.fold_state(push);
    }
}

impl TraceSink for Pipeline {
    #[inline(always)]
    fn on_exec(&mut self, event: &ExecEvent<'_>) {
        let instr = event.instr;
        let row = event.decoded;
        let addr = row.addr;
        self.stats.dyn_instrs += 1;

        // Fetch: one I-cache access per new line on the fetch stream.
        let line = addr >> self.fetch_line_shift;
        if self.last_fetch_line != Some(line) {
            let extra = self.icache.access(addr);
            self.fetch_ready += extra;
            self.last_fetch_line = Some(line);
            if extra > 0 {
                if let Some(attr) = self.attr.as_mut() {
                    attr.fetch_cause = AttrBucket::Fetch;
                }
            }
        }

        // Operand readiness: a reuse hit waits on the matched
        // instance's input bank (the validate stage) — unless the
        // machine value-speculates across validation, in which case
        // the live-outs are forwarded immediately and validation
        // retires off the critical path.
        let mut ops_ready = 0;
        let mut bind: Option<Reg> = None;
        let ready = &self.frames.last().expect("frame").ready;
        let mut wait_for = |r: Reg| {
            let at = ready.get(r.index()).copied().unwrap_or(0);
            if at > ops_ready {
                ops_ready = at;
                bind = Some(r);
            }
        };
        match &event.reuse {
            Some(r) if r.hit => {
                if !self.machine.speculative_validation {
                    // The lookup's validation read set, borrowed in
                    // place.
                    r.inputs.iter().for_each(|&r| wait_for(r));
                }
            }
            _ => row.srcs().iter().for_each(|s| wait_for(s.reg)),
        }
        let earliest = self.fetch_ready.max(ops_ready);

        let class = row.class;
        let t = self.issue_at(earliest, class);
        self.horizon = self.horizon.max(t + 1);

        if self.attr.is_some() {
            if let Op::Reuse { region, .. } = &instr.op {
                self.attr.as_mut().expect("profiling on").cur_region = Some(*region);
            }
            self.charge_cycles(event.func, t, ops_ready, bind);
        }

        // Dispatch on the decoded row: an instruction with a register
        // result is timed by its latency kind alone; only result-free
        // instructions (stores, control, CCR) look at the operation.
        let lat = match row.latency {
            Latency::Int => Some((self.machine.int_latency, AttrBucket::Issue)),
            Latency::Mul => Some((self.machine.mul_latency, AttrBucket::Issue)),
            Latency::Fp => Some((self.machine.fp_latency, AttrBucket::Issue)),
            Latency::Load => {
                let mem = event.mem.expect("load has a memory access");
                let daddr = self.layout.data_addr(mem.object, mem.index);
                let extra = self.dcache.access(daddr);
                Some((self.machine.load_latency + extra, AttrBucket::Memory))
            }
            Latency::None => None,
        };
        if let Some((lat, kind)) = lat {
            debug_assert_eq!(row.dsts().len(), 1, "a timed result has one destination");
            self.set_ready(row.dsts()[0], t + lat, kind);
        } else {
            match &instr.op {
                Op::Store { .. } => {
                    let mem = event.mem.expect("store has a memory access");
                    let daddr = self.layout.data_addr(mem.object, mem.index);
                    let _ = self.dcache.access(daddr);
                }
                Op::Branch { .. } => {
                    let taken = event.taken.expect("branch outcome");
                    let correct = self.btb.update(addr, taken);
                    if !correct {
                        self.redirect_fetch(
                            t + 1 + self.machine.mispredict_penalty,
                            AttrBucket::Fetch,
                        );
                    } else if taken {
                        // Correctly-predicted taken branch: fetch
                        // stream moves to a new line next access.
                        self.last_fetch_line = None;
                    }
                }
                Op::Jump { .. } | Op::Ret { .. } => {
                    self.last_fetch_line = None;
                }
                Op::Call { rets, .. } => {
                    let mut regs = self.rets_pool.pop().unwrap_or_default();
                    regs.clear();
                    regs.extend_from_slice(rets);
                    self.pending_call = Some((t + 1, regs));
                    self.last_fetch_line = None;
                }
                Op::Reuse { region, .. } => {
                    let outcome = event.reuse.expect("reuse outcome");
                    if outcome.hit {
                        // Commit live-outs at retirement width after
                        // the validation latency (1 cycle when
                        // speculating: the buffer read itself).
                        let lat = if self.machine.speculative_validation {
                            1
                        } else {
                            self.machine.reuse_hit_latency
                        };
                        let groups = (outcome.outputs.len() as u64)
                            .div_ceil(self.machine.issue_width as u64);
                        let done = t + lat + groups;
                        for r in outcome.outputs.iter() {
                            self.set_ready(*r, done, AttrBucket::ReuseHit);
                        }
                        self.stats.reuse_hits += 1;
                        self.stats.skipped_instrs += outcome.skipped_instrs;
                        let rs = self.region_stats(*region);
                        rs.hits += 1;
                        rs.skipped_instrs += outcome.skipped_instrs;
                        // Fetch redirects to the continuation after the
                        // same latency.
                        self.redirect_fetch(t + lat, AttrBucket::ReuseHit);
                        if let Some(attr) = self.attr.as_mut() {
                            attr.cur_region = None;
                        }
                    } else {
                        self.stats.reuse_misses += 1;
                        let cause = outcome.miss_cause.unwrap_or(MissCause::Cold);
                        let rs = self.region_stats(*region);
                        rs.misses += 1;
                        rs.count_miss_cause(cause);
                        self.redirect_fetch(
                            t + 1 + self.machine.reuse_miss_penalty,
                            AttrBucket::Fetch,
                        );
                    }
                }
                Op::Invalidate { .. } | Op::Nop => {}
                Op::Binary { .. } | Op::Unary { .. } | Op::Cmp { .. } | Op::Load { .. } => {
                    unreachable!("an operation with a result has a latency kind")
                }
            }
        }

        if let Some(attr) = self.attr.as_mut() {
            if instr.ext.contains(InstrExt::REGION_END) {
                attr.cur_region = None;
            }
        }
    }

    fn on_call(&mut self, _caller: FuncId, _callee: FuncId) {
        let (ready_at, ret_regs) = self
            .pending_call
            .take()
            .unwrap_or((self.last_issue + 1, Vec::new()));
        // Parameters become available once the call has issued; the
        // callee numbers them r0..rN.
        let mut frame = self
            .frame_pool
            .pop()
            .unwrap_or_else(|| Frame::new(Vec::new(), Vec::new()));
        frame.ready.clear();
        frame.ready.resize(64, ready_at);
        frame.src_kind.clear();
        frame.ret_regs = ret_regs;
        self.frames.push(frame);
    }

    fn on_ret(&mut self, _from: FuncId) {
        let mut done = self.frames.pop().expect("matched call frame");
        let at = self.last_issue + 1;
        if let Some(_caller) = self.frames.last() {
            for &r in &done.ret_regs {
                self.set_ready(r, at, AttrBucket::Issue);
            }
            self.rets_pool.push(std::mem::take(&mut done.ret_regs));
            self.frame_pool.push(done);
        } else {
            // Returning from main: keep a frame for robustness.
            self.frames.push(Frame::new(Vec::new(), Vec::new()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccr_ir::{BinKind, CmpPred, Operand, ProgramBuilder};
    use ccr_profile::{Emulator, NullCrb};

    fn run_cycles(p: &ccr_ir::Program) -> SimStats {
        let layout = CodeLayout::of(p);
        let mut pipe = Pipeline::new(MachineConfig::paper(), layout);
        Emulator::new(p).run(&mut NullCrb, &mut pipe).unwrap();
        pipe.into_stats()
    }

    /// A dependence chain cannot issue faster than one op per cycle.
    #[test]
    fn dependence_chain_is_serialized() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0, 1);
        let mut x = f.movi(1);
        for _ in 0..32 {
            x = f.add(x, 1);
        }
        f.ret(&[Operand::Reg(x)]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        let stats = run_cycles(&pb.finish());
        assert!(
            stats.cycles >= 32,
            "chain of 32 adds: {} cycles",
            stats.cycles
        );
    }

    /// Independent operations exploit the wide issue once the
    /// I-cache is warm.
    #[test]
    fn independent_ops_issue_in_parallel() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0, 1);
        let base = f.movi(1);
        let i = f.movi(0);
        let body = f.block();
        let done = f.block();
        f.jump(body);
        f.switch_to(body);
        let mut last = base;
        // 32 independent adds off the same base register, per
        // iteration.
        for _ in 0..32 {
            last = f.add(base, 7);
        }
        f.inc(i, 1);
        f.br(CmpPred::Lt, i, 100, body, done);
        f.switch_to(done);
        f.ret(&[Operand::Reg(last)]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        let stats = run_cycles(&pb.finish());
        // 34 instructions per iteration; 4 int ALUs sustain ≥3 IPC in
        // steady state.
        assert!(stats.effective_ipc() > 2.5, "ipc {}", stats.effective_ipc());
    }

    /// A dependent multiply chain pays the multiply latency per link;
    /// a dependent add chain pays one cycle per link. Measured inside
    /// a loop so the I-cache is warm and the chain dominates.
    #[test]
    fn latencies_scale_dependence_chains() {
        let build = |kind: BinKind| {
            let mut pb = ProgramBuilder::new();
            let mut f = pb.function("main", 0, 1);
            let i = f.movi(0);
            let body = f.block();
            let done = f.block();
            f.jump(body);
            f.switch_to(body);
            let mut x = f.mov(i);
            for _ in 0..20 {
                x = f.bin(kind, x, 3);
            }
            f.inc(i, 1);
            f.br(CmpPred::Lt, i, 100, body, done);
            f.switch_to(done);
            f.ret(&[Operand::Reg(x)]);
            let id = pb.finish_function(f);
            pb.set_main(id);
            pb.finish()
        };
        let adds = run_cycles(&build(BinKind::Add));
        let muls = run_cycles(&build(BinKind::Mul));
        let m = MachineConfig::paper();
        let gap = muls.cycles.saturating_sub(adds.cycles);
        let expect = 100 * 20 * (m.mul_latency - m.int_latency);
        assert!(
            gap.abs_diff(expect) * 10 < expect,
            "latency gap {gap} should be near {expect} (adds {}, muls {})",
            adds.cycles,
            muls.cycles
        );
    }

    /// The single branch unit serializes branch-heavy code.
    #[test]
    fn branch_unit_is_a_bottleneck() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0, 0);
        let i = f.movi(0);
        let body = f.block();
        let done = f.block();
        f.jump(body);
        f.switch_to(body);
        f.inc(i, 1);
        f.br(CmpPred::Lt, i, 100, body, done);
        f.switch_to(done);
        f.ret(&[]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        let stats = run_cycles(&pb.finish());
        // 100 iterations × 1 branch/cycle minimum.
        assert!(stats.cycles >= 100, "{}", stats.cycles);
    }

    /// A predictable loop branch trains the BTB; mispredicts stay
    /// near the loop exit count.
    #[test]
    fn predictable_branches_train() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0, 0);
        let i = f.movi(0);
        let body = f.block();
        let done = f.block();
        f.jump(body);
        f.switch_to(body);
        f.inc(i, 1);
        f.br(CmpPred::Lt, i, 500, body, done);
        f.switch_to(done);
        f.ret(&[]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        let stats = run_cycles(&pb.finish());
        assert!(
            stats.branch_mispredicts <= 2,
            "{}",
            stats.branch_mispredicts
        );
        assert!(stats.branch_correct >= 498);
    }

    /// Load misses charge the D-cache penalty on the consumer.
    #[test]
    fn cold_loads_slow_dependent_chains() {
        let build = |stride: i64, n: i64| {
            let mut pb = ProgramBuilder::new();
            let o = pb.object("o", 4096);
            let mut f = pb.function("main", 0, 1);
            let acc = f.movi(0);
            let i = f.movi(0);
            let body = f.block();
            let done = f.block();
            f.jump(body);
            f.switch_to(body);
            let idx = f.mul(i, stride);
            let v = f.load(o, idx);
            f.bin_into(BinKind::Add, acc, acc, v);
            f.inc(i, 1);
            f.br(CmpPred::Lt, i, n, body, done);
            f.switch_to(done);
            f.ret(&[Operand::Reg(acc)]);
            let id = pb.finish_function(f);
            pb.set_main(id);
            pb.finish()
        };
        // Stride 4 elements = 32 bytes = one miss per access; stride 1
        // hits 3 of 4 accesses.
        let miss_heavy = run_cycles(&build(4, 256));
        let hit_heavy = run_cycles(&build(1, 256));
        assert!(miss_heavy.dcache_misses > hit_heavy.dcache_misses);
        assert!(miss_heavy.cycles > hit_heavy.cycles);
    }

    /// A hand-annotated reusing loop (same shape as the emulator
    /// tests): one region, 100 trips, 13-instruction body.
    fn reusing_region_program() -> (ccr_ir::Program, RegionId) {
        use ccr_ir::{InstrExt, Op};
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0, 1);
        let x = f.movi(17);
        let count = f.movi(0);
        let acc = f.movi(0);
        let y = f.fresh();
        let reuse_blk = f.block();
        let body = f.block();
        let cont = f.block();
        let done = f.block();
        f.jump(reuse_blk);
        f.switch_to(reuse_blk);
        f.jump(body); // patched to reuse
        f.switch_to(body);
        // A deliberately long dependence chain worth skipping.
        f.bin_into(BinKind::Mul, y, x, x);
        for _ in 0..12 {
            f.bin_into(BinKind::Add, y, y, 1);
        }
        f.jump(cont);
        f.switch_to(cont);
        f.bin_into(BinKind::Add, acc, acc, y);
        f.inc(count, 1);
        f.br(CmpPred::Lt, count, 100, reuse_blk, done);
        f.switch_to(done);
        f.ret(&[Operand::Reg(acc)]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        let mut p = pb.finish();
        let region = p.fresh_region_id();
        let func = p.function_mut(id);
        func.block_mut(ccr_ir::BlockId(1)).instrs[0].op = Op::Reuse {
            region,
            body: ccr_ir::BlockId(2),
            cont: ccr_ir::BlockId(3),
        };
        let blen = func.block(ccr_ir::BlockId(2)).len();
        for k in 0..blen - 1 {
            func.block_mut(ccr_ir::BlockId(2)).instrs[k].ext = InstrExt::LIVE_OUT;
        }
        func.block_mut(ccr_ir::BlockId(2)).instrs[blen - 1].ext = InstrExt::REGION_END;
        ccr_ir::verify_program(&p).unwrap();
        (p, region)
    }

    /// Reuse hits cost less than executing the region; misses add the
    /// flush penalty.
    #[test]
    fn reuse_timing_hit_vs_miss() {
        let (p, region) = reusing_region_program();

        // Baseline: no buffer, every reuse misses and pays the flush.
        let layout = CodeLayout::of(&p);
        let mut pipe = Pipeline::new(MachineConfig::paper(), layout.clone());
        Emulator::new(&p).run(&mut NullCrb, &mut pipe).unwrap();
        let nobuf = pipe.into_stats();

        // Real buffer: one miss then 99 hits.
        let mut buf = crate::crb::ReuseBuffer::new(crate::crb::CrbConfig::paper());
        let mut pipe = Pipeline::new(MachineConfig::paper(), layout);
        Emulator::new(&p).run(&mut buf, &mut pipe).unwrap();
        let with_buf = pipe.into_stats();

        assert_eq!(with_buf.reuse_hits, 99);
        assert_eq!(with_buf.reuse_misses, 1);
        assert!(with_buf.skipped_instrs >= 99 * 13);
        assert!(
            with_buf.cycles < nobuf.cycles,
            "reuse must win: {} vs {}",
            with_buf.cycles,
            nobuf.cycles
        );
        let region_stats = with_buf.regions[&region];
        assert_eq!(region_stats.hits, 99);
        assert_eq!(region_stats.misses, 1);
    }

    fn run_profiled(p: &ccr_ir::Program, with_crb: bool) -> SimStats {
        let layout = CodeLayout::of(p);
        let mut pipe = Pipeline::new(MachineConfig::paper(), layout);
        pipe.enable_profiling(p.functions().iter().map(|f| f.name().to_string()).collect());
        if with_crb {
            let mut buf = crate::crb::ReuseBuffer::new(crate::crb::CrbConfig::paper());
            Emulator::new(p).run(&mut buf, &mut pipe).unwrap();
        } else {
            Emulator::new(p).run(&mut NullCrb, &mut pipe).unwrap();
        }
        pipe.into_stats()
    }

    /// Profiling must not perturb timing: cycles (and every other
    /// counter) are identical with attribution on or off.
    #[test]
    fn profiling_is_cycle_invariant() {
        let (p, _region) = reusing_region_program();
        for with_crb in [false, true] {
            let layout = CodeLayout::of(&p);
            let mut pipe = Pipeline::new(MachineConfig::paper(), layout);
            if with_crb {
                let mut buf = crate::crb::ReuseBuffer::new(crate::crb::CrbConfig::paper());
                Emulator::new(&p).run(&mut buf, &mut pipe).unwrap();
            } else {
                Emulator::new(&p).run(&mut NullCrb, &mut pipe).unwrap();
            }
            let plain = pipe.into_stats();
            let profiled = run_profiled(&p, with_crb);
            assert_eq!(plain.cycles, profiled.cycles, "with_crb={with_crb}");
            assert_eq!(plain.dyn_instrs, profiled.dyn_instrs);
            assert_eq!(plain.reuse_hits, profiled.reuse_hits);
            assert_eq!(plain.branch_mispredicts, profiled.branch_mispredicts);
            assert!(plain.attribution.is_none());
            assert!(profiled.attribution.is_some());
        }
    }

    /// Every cycle is charged to exactly one bucket: the bucket
    /// totals, and the per-function rows, sum to the cycle count.
    #[test]
    fn attribution_buckets_sum_to_total_cycles() {
        let (p, region) = reusing_region_program();
        let stats = run_profiled(&p, true);
        let attr = stats.attribution.as_ref().expect("profiled");
        assert_eq!(attr.total.total(), stats.cycles, "{attr:?}");
        let func_sum: u64 = attr.functions.iter().map(|f| f.buckets.total()).sum();
        assert_eq!(func_sum, stats.cycles);
        assert_eq!(attr.functions[0].name, "main");
        assert!(
            attr.total.reuse_hit > 0,
            "99 hits must charge cycles: {attr:?}"
        );
        // The region is live from the reuse lookup to the region end,
        // so it accrues cycles on both the miss and hit paths.
        let region_cycles = attr
            .regions
            .iter()
            .find(|(r, _)| *r == region)
            .map(|(_, c)| *c)
            .unwrap_or(0);
        assert!(region_cycles > 0, "{attr:?}");
        assert!(region_cycles <= stats.cycles);
    }

    /// Memory waits show up in the memory bucket for a load-bound
    /// dependence chain.
    #[test]
    fn memory_stalls_land_in_the_memory_bucket() {
        let mut pb = ProgramBuilder::new();
        let o = pb.object("o", 4096);
        let mut f = pb.function("main", 0, 1);
        let acc = f.movi(0);
        let i = f.movi(0);
        let body = f.block();
        let done = f.block();
        f.jump(body);
        f.switch_to(body);
        let idx = f.mul(i, 4);
        let v = f.load(o, idx);
        f.bin_into(BinKind::Add, acc, acc, v);
        f.inc(i, 1);
        f.br(CmpPred::Lt, i, 256, body, done);
        f.switch_to(done);
        f.ret(&[Operand::Reg(acc)]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        let stats = run_profiled(&pb.finish(), false);
        let attr = stats.attribution.as_ref().unwrap();
        assert_eq!(attr.total.total(), stats.cycles);
        assert!(attr.total.memory > 0, "{attr:?}");
    }
}
