//! A test-only reference timing model, written from Section 5.1 of the
//! paper rather than from `Pipeline`.
//!
//! It shares no code with `Pipeline`, `Cache` or `Btb`: it lays the
//! program out itself, keeps a per-cycle record of issued operations,
//! a hash-map register scoreboard per call frame, a direct-mapped
//! cache as a map from set to tag, and a map of 2-bit counters. The
//! machine it models:
//!
//! * in-order issue of up to `issue_width` operations per cycle, with
//!   at most `int_alus` integer (and invalidate), `mem_ports` memory,
//!   `fp_alus` floating-point and `branch_units` branch/reuse
//!   operations in one cycle;
//! * results ready 1 cycle (integer), `mul_latency`, `fp_latency` or 2
//!   cycles (loads) after issue, a load's D-cache miss adding its
//!   12-cycle penalty;
//! * one I-cache access per new line on the fetch stream, a miss
//!   delaying fetch by 12 cycles; taken branches, jumps, calls and
//!   returns start a new line;
//! * a 2-bit-counter BTB indexed by word address; a mispredict
//!   refetches 1 + 8 cycles after the branch issues;
//! * a reuse miss flushes like a mispredict (1 + `reuse_miss_penalty`);
//!   a reuse hit validates its instance's inputs (skipped under
//!   speculative validation), then commits its outputs
//!   ⌈outputs / width⌉ cycles after the validation latency, and fetch
//!   resumes at the continuation after that latency;
//! * a call's parameters are ready the cycle after the call issues;
//!   values returned are ready the cycle after the last issue.

use std::collections::{BTreeMap, HashMap};

use ccr_ir::{InstrId, MemObjectId, Op, OpClass, Program, Reg, RegionId};
use ccr_profile::{ExecEvent, MissCause, TraceSink};
use ccr_sim::{MachineConfig, RegionDynStats, SimStats};

/// Operations issued in one cycle: total, then per unit kind.
#[derive(Clone, Copy, Default)]
struct CycleUse {
    ops: u32,
    units: [u32; 4],
}

/// Unit kind of a class: 0 integer, 1 memory, 2 floating point,
/// 3 branch.
fn unit_of(class: OpClass) -> usize {
    match class {
        OpClass::IntAlu | OpClass::IntMul | OpClass::Invalidate => 0,
        OpClass::Load | OpClass::Store => 1,
        OpClass::FpAlu => 2,
        OpClass::Branch | OpClass::Reuse => 3,
    }
}

/// A direct-mapped cache: set index to resident tag.
struct DirectMapped {
    line_bytes: u64,
    sets: u64,
    penalty: u64,
    resident: HashMap<u64, u64>,
    hits: u64,
    misses: u64,
}

impl DirectMapped {
    fn new(config: ccr_sim::CacheConfig) -> DirectMapped {
        DirectMapped {
            line_bytes: config.line_bytes,
            sets: config.size_bytes / config.line_bytes,
            penalty: config.miss_penalty,
            resident: HashMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Extra cycles for touching `addr`.
    fn touch(&mut self, addr: u64) -> u64 {
        let line = addr / self.line_bytes;
        let (set, tag) = (line % self.sets, line / self.sets);
        if self.resident.insert(set, tag) == Some(tag) {
            self.hits += 1;
            0
        } else {
            self.misses += 1;
            self.penalty
        }
    }
}

/// The reference model, driven as a [`TraceSink`].
pub struct ReferencePipeline {
    m: MachineConfig,
    params: Vec<usize>,
    code_addr: HashMap<InstrId, u64>,
    data_base: Vec<u64>,
    icache: DirectMapped,
    dcache: DirectMapped,
    counters: HashMap<u64, u8>,
    branch_correct: u64,
    branch_mispredicts: u64,
    /// Operations issued, by cycle.
    cycles: BTreeMap<u64, CycleUse>,
    /// Issue cycle of the latest instruction.
    pub last_issue: u64,
    fetch_at: u64,
    fetch_line: Option<u64>,
    /// Register scoreboards, innermost call last.
    frames: Vec<HashMap<Reg, u64>>,
    /// Return registers of each call frame.
    ret_regs: Vec<Vec<Reg>>,
    /// Ready cycle and return registers of the call just issued.
    call: Option<(u64, Vec<Reg>)>,
    /// Latest cycle any result lands.
    last_result: u64,
    dyn_instrs: u64,
    reuse_hits: u64,
    reuse_misses: u64,
    skipped: u64,
    regions: HashMap<RegionId, RegionDynStats>,
}

impl ReferencePipeline {
    /// A model of `machine` running `program`.
    pub fn new(machine: MachineConfig, program: &Program) -> ReferencePipeline {
        // 4-byte instruction slots, functions then blocks in id
        // order; 8-byte words, objects 64-byte aligned.
        let code_addr = program
            .functions()
            .iter()
            .flat_map(|f| f.iter_instrs().map(|(_, i)| i.id))
            .zip((0u64..).step_by(4))
            .collect();
        let mut data_base = Vec::new();
        let mut next = 0u64;
        for obj in program.objects() {
            next = next.div_ceil(64) * 64;
            data_base.push(next);
            next += 8 * obj.size() as u64;
        }
        ReferencePipeline {
            icache: DirectMapped::new(machine.icache),
            dcache: DirectMapped::new(machine.dcache),
            m: machine,
            params: program
                .functions()
                .iter()
                .map(|f| f.param_count())
                .collect(),
            code_addr,
            data_base,
            counters: HashMap::new(),
            branch_correct: 0,
            branch_mispredicts: 0,
            cycles: BTreeMap::new(),
            last_issue: 0,
            fetch_at: 0,
            fetch_line: None,
            frames: vec![HashMap::new()],
            ret_regs: vec![Vec::new()],
            call: None,
            last_result: 0,
            dyn_instrs: 0,
            reuse_hits: 0,
            reuse_misses: 0,
            skipped: 0,
            regions: HashMap::new(),
        }
    }

    fn ready(&self, r: Reg) -> u64 {
        self.frames.last().unwrap().get(&r).copied().unwrap_or(0)
    }

    fn write(&mut self, r: Reg, at: u64) {
        self.frames.last_mut().unwrap().insert(r, at);
        self.last_result = self.last_result.max(at);
    }

    fn limit(&self, unit: usize) -> u32 {
        [
            self.m.int_alus,
            self.m.mem_ports,
            self.m.fp_alus,
            self.m.branch_units,
        ][unit]
    }

    /// First cycle at or after `from` (and not before the previous
    /// issue) with a free slot and a free unit, which is then taken.
    fn issue(&mut self, from: u64, class: OpClass) -> u64 {
        let unit = unit_of(class);
        let mut t = from.max(self.last_issue);
        loop {
            let used = self.cycles.get(&t).copied().unwrap_or_default();
            if used.ops < self.m.issue_width && used.units[unit] < self.limit(unit) {
                break;
            }
            t += 1;
        }
        let used = self.cycles.entry(t).or_default();
        used.ops += 1;
        used.units[unit] += 1;
        // Issue is in order: no later operation can use an earlier
        // cycle.
        self.cycles = self.cycles.split_off(&t);
        self.last_issue = t;
        t
    }

    fn refetch(&mut self, at: u64) {
        self.fetch_at = self.fetch_at.max(at);
        self.fetch_line = None;
    }

    fn region(&mut self, region: RegionId) -> &mut RegionDynStats {
        self.regions.entry(region).or_default()
    }

    /// Final counters, in `SimStats` form (the buffer's own counters
    /// are left at their defaults, as `Pipeline` leaves them).
    pub fn stats(&self) -> SimStats {
        SimStats {
            cycles: self.last_result.max(self.last_issue + 1),
            dyn_instrs: self.dyn_instrs,
            skipped_instrs: self.skipped,
            icache_hits: self.icache.hits,
            icache_misses: self.icache.misses,
            dcache_hits: self.dcache.hits,
            dcache_misses: self.dcache.misses,
            branch_correct: self.branch_correct,
            branch_mispredicts: self.branch_mispredicts,
            reuse_hits: self.reuse_hits,
            reuse_misses: self.reuse_misses,
            regions: self.regions.clone(),
            ..SimStats::default()
        }
    }

    fn data_addr(&self, object: MemObjectId, index: u64) -> u64 {
        self.data_base[object.index()] + 8 * index
    }
}

impl TraceSink for ReferencePipeline {
    fn on_exec(&mut self, e: &ExecEvent<'_>) {
        let instr = e.instr;
        let pc = self.code_addr[&instr.id];
        self.dyn_instrs += 1;

        let line = pc / self.m.icache.line_bytes;
        if self.fetch_line != Some(line) {
            self.fetch_at += self.icache.touch(pc);
            self.fetch_line = Some(line);
        }

        let reads: Vec<Reg> = match e.reuse {
            Some(r) if r.hit && self.m.speculative_validation => Vec::new(),
            Some(r) if r.hit => r.inputs.clone(),
            _ => instr.src_regs(),
        };
        let operands = reads.iter().map(|r| self.ready(*r)).max().unwrap_or(0);
        let t = self.issue(self.fetch_at.max(operands), instr.class());
        self.last_result = self.last_result.max(t + 1);

        match &instr.op {
            Op::Binary { dst, .. } | Op::Unary { dst, .. } | Op::Cmp { dst, .. } => {
                let latency = match instr.class() {
                    OpClass::IntMul => self.m.mul_latency,
                    OpClass::FpAlu => self.m.fp_latency,
                    _ => self.m.int_latency,
                };
                self.write(*dst, t + latency);
            }
            Op::Load { dst, .. } => {
                let mem = e.mem.unwrap();
                let extra = self.dcache.touch(self.data_addr(mem.object, mem.index));
                self.write(*dst, t + self.m.load_latency + extra);
            }
            Op::Store { .. } => {
                let mem = e.mem.unwrap();
                self.dcache.touch(self.data_addr(mem.object, mem.index));
            }
            Op::Branch { .. } => {
                let taken = e.taken.unwrap();
                let slot = (pc / 4) % self.m.btb_entries as u64;
                let counter = self.counters.entry(slot).or_insert(2);
                let predicted = *counter >= 2;
                *counter = if taken {
                    (*counter + 1).min(3)
                } else {
                    counter.saturating_sub(1)
                };
                if predicted == taken {
                    self.branch_correct += 1;
                    if taken {
                        self.fetch_line = None;
                    }
                } else {
                    self.branch_mispredicts += 1;
                    self.refetch(t + 1 + self.m.mispredict_penalty);
                }
            }
            Op::Jump { .. } | Op::Ret { .. } => self.fetch_line = None,
            Op::Call { rets, .. } => {
                self.call = Some((t + 1, rets.clone()));
                self.fetch_line = None;
            }
            Op::Reuse { region, .. } => {
                let outcome = e.reuse.unwrap();
                if outcome.hit {
                    let validate = if self.m.speculative_validation {
                        1
                    } else {
                        self.m.reuse_hit_latency
                    };
                    let commit_groups =
                        (outcome.outputs.len() as u64).div_ceil(u64::from(self.m.issue_width));
                    for r in &outcome.outputs {
                        self.write(*r, t + validate + commit_groups);
                    }
                    self.reuse_hits += 1;
                    self.skipped += outcome.skipped_instrs;
                    let rs = self.region(*region);
                    rs.hits += 1;
                    rs.skipped_instrs += outcome.skipped_instrs;
                    self.refetch(t + validate);
                } else {
                    self.reuse_misses += 1;
                    let rs = self.region(*region);
                    rs.misses += 1;
                    match outcome.miss_cause.unwrap_or(MissCause::Cold) {
                        MissCause::Cold => rs.miss_cold += 1,
                        MissCause::Mismatch => rs.miss_mismatch += 1,
                        MissCause::Capacity => rs.miss_capacity += 1,
                        MissCause::Conflict => rs.miss_conflict += 1,
                        MissCause::Invalidated => rs.miss_invalidated += 1,
                    }
                    self.refetch(t + 1 + self.m.reuse_miss_penalty);
                }
            }
            Op::Invalidate { .. } | Op::Nop => {}
        }
    }

    fn on_call(&mut self, _caller: ccr_ir::FuncId, callee: ccr_ir::FuncId) {
        let (at, rets) = self
            .call
            .take()
            .unwrap_or((self.last_issue + 1, Vec::new()));
        // The callee numbers its parameters r0..rN.
        let params = self.params[callee.index()] as u32;
        self.frames
            .push((0..params).map(|r| (Reg(r), at)).collect());
        self.ret_regs.push(rets);
    }

    fn on_ret(&mut self, _from: ccr_ir::FuncId) {
        self.frames.pop();
        let rets = self.ret_regs.pop().unwrap();
        if self.frames.is_empty() {
            self.frames.push(HashMap::new());
            self.ret_regs.push(Vec::new());
            return;
        }
        let at = self.last_issue + 1;
        for r in rets {
            self.write(r, at);
        }
    }
}
