//! The Reuse Profiling System (RPS).
//!
//! Section 4.2 of the paper: *"The Reuse Profiling System (RPS) was
//! developed as a result of this work and is designed to report
//! accurate reuse information for three components: instruction-level
//! repetition, reusability for memory operations, and cyclic
//! computation recurrence."*
//!
//! * **Instruction-level**: for every instruction, the execution
//!   count, the concentration of its input-operand value vectors in
//!   the top *k* distinct vectors (the paper's `Invariance_R[k]`,
//!   k = 5), and the recurrence of vectors within the ten most recent
//!   executions ("profiling support allows the ten most recent
//!   instruction executions to be maintained").
//! * **Memory**: for every load, the fraction of executions for which
//!   the referenced location had not been stored to since the load's
//!   previous access of that location.
//! * **Cyclic**: for every candidate loop, the invocation count, the
//!   fraction of invocations with more than one iteration, and the
//!   fraction whose live-in value vector (with unchanged loop memory)
//!   matches one of the eight most recent recorded invocations.
//!
//! Every event costs a constant amount of work: loops are found
//! through dense per-block tables, live-ins through a register bitset,
//! and each capped map is probed once.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

use ccr_analysis::{CallGraph, LoopForest, SideEffects};
use ccr_ir::{BlockId, FuncId, InstrId, MemObjectId, Op, Program, Reg, Value};

use crate::regset::LiveIns;
use crate::trace::{ExecEvent, TraceSink};

/// Identifies a loop by its function and header block.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LoopKey {
    /// Function containing the loop.
    pub func: FuncId,
    /// The loop header.
    pub header: BlockId,
}

/// Static facts about a candidate loop, needed for cyclic profiling.
#[derive(Clone, Debug)]
pub struct LoopMeta {
    /// The loop's identity.
    pub key: LoopKey,
    /// Blocks in the loop body (header included).
    pub body: BTreeSet<BlockId>,
    /// Objects loaded anywhere in the body.
    pub loaded_objects: Vec<MemObjectId>,
    /// True if the body contains a store or a call — such loops are
    /// profiled for invocation statistics but can never be reused.
    pub impure: bool,
}

/// Number of distinct value vectors whose weight defines invariance
/// (the paper's k; "the number of invariant values to five").
pub const TOP_K: usize = 5;
/// Recent-execution window maintained per instruction.
pub const RECENT_WINDOW: usize = 10;
/// Invocation history depth for cyclic recurrence (matches the eight
/// records of the Figure 4 study).
pub const CYCLIC_HISTORY: usize = 8;
/// Cap on distinct value vectors tracked per instruction.
const MAX_TRACKED_VECTORS: usize = 64;
/// Cap on distinct locations tracked per load.
const MAX_TRACKED_LOCATIONS: usize = 4096;

/// A multiplicative (Fx-style) hasher for the profilers' integer keys:
/// std's SipHash costs more than the rest of an event's work. Every
/// map hashed this way is only probed, or iterated where order cannot
/// matter (counts that are sorted, or metadata that is re-keyed).
#[derive(Clone, Copy, Default)]
pub(crate) struct FastHasher(u64);

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.add(u64::from(*b));
        }
    }
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` hashed with [`FastHasher`].
pub(crate) type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// Per-instruction value-locality counters.
#[derive(Clone, Debug, Default)]
pub struct InstrProfile {
    /// Total executions.
    pub exec: u64,
    /// Executions whose input vector was seen in the recent window.
    pub recent_hits: u64,
    /// For branches: executions on which the branch was taken.
    pub taken: u64,
    vector_counts: FastMap<u64, u64>,
    overflow: u64,
    /// The last [`RECENT_WINDOW`] input vectors as a ring: execution
    /// `n` (from 0) wrote slot `n % RECENT_WINDOW`.
    recent: [u64; RECENT_WINDOW],
}

impl InstrProfile {
    /// Sum of the top-`k` distinct input-vector counts.
    pub fn invariance_top(&self, k: usize) -> u64 {
        let mut counts: Vec<u64> = self.vector_counts.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        counts.into_iter().take(k).sum()
    }

    /// The paper's `Invariance_R[k](i) / Exec(i)` ratio in `[0, 1]`.
    pub fn invariance_ratio(&self, k: usize) -> f64 {
        if self.exec == 0 {
            0.0
        } else {
            self.invariance_top(k) as f64 / self.exec as f64
        }
    }

    /// Fraction of executions whose input vector recurred within the
    /// recent window.
    pub fn recent_ratio(&self) -> f64 {
        if self.exec == 0 {
            0.0
        } else {
            self.recent_hits as f64 / self.exec as f64
        }
    }

    /// Number of distinct input vectors observed (saturating at the
    /// tracking cap).
    pub fn distinct_vectors(&self) -> usize {
        self.vector_counts.len()
    }

    #[inline]
    fn observe(&mut self, sig: u64) {
        // `exec` vectors went into the ring before this one.
        let filled = self.exec.min(RECENT_WINDOW as u64) as usize;
        if self.recent[..filled].contains(&sig) {
            self.recent_hits += 1;
        }
        self.recent[(self.exec % RECENT_WINDOW as u64) as usize] = sig;
        self.exec += 1;
        if let Some(count) = self.vector_counts.get_mut(&sig) {
            *count += 1;
        } else if self.vector_counts.len() < MAX_TRACKED_VECTORS {
            self.vector_counts.insert(sig, 1);
        } else {
            self.overflow += 1;
        }
    }
}

/// Per-load memory-reuse counters.
#[derive(Clone, Debug, Default)]
pub struct MemProfile {
    /// Total executions of the load.
    pub exec: u64,
    /// Executions finding the location unchanged since this load last
    /// touched it.
    pub unchanged: u64,
    /// Store version of each location at this load's last access, by
    /// the profiler's dense location number.
    last_seen_version: FastMap<u64, u64>,
}

impl MemProfile {
    /// The fraction of executions with unchanged source locations —
    /// the paper's per-load memory reusability.
    pub fn unchanged_ratio(&self) -> f64 {
        if self.exec == 0 {
            0.0
        } else {
            self.unchanged as f64 / self.exec as f64
        }
    }

    #[inline]
    fn observe(&mut self, loc: u64, version: u64) {
        self.exec += 1;
        if let Some(seen) = self.last_seen_version.get_mut(&loc) {
            if *seen == version {
                self.unchanged += 1;
            }
            *seen = version;
        } else if self.last_seen_version.len() < MAX_TRACKED_LOCATIONS {
            self.last_seen_version.insert(loc, version);
        }
    }
}

/// Per-loop cyclic recurrence counters.
#[derive(Clone, Debug, Default)]
pub struct CyclicProfile {
    /// Loop invocations observed.
    pub invocations: u64,
    /// Invocations executing more than one iteration.
    pub multi_iteration: u64,
    /// Invocations whose input state matched a recent record.
    pub reuse_opportunities: u64,
    /// Total iterations across all invocations.
    pub total_iterations: u64,
    history: VecDeque<(u64, Vec<u64>)>,
}

impl CyclicProfile {
    /// Fraction of invocations that could have reused a recent result.
    pub fn reuse_ratio(&self) -> f64 {
        if self.invocations == 0 {
            0.0
        } else {
            self.reuse_opportunities as f64 / self.invocations as f64
        }
    }

    /// Fraction of invocations with more than one iteration.
    pub fn multi_iteration_ratio(&self) -> f64 {
        if self.invocations == 0 {
            0.0
        } else {
            self.multi_iteration as f64 / self.invocations as f64
        }
    }

    /// Mean iterations per invocation.
    pub fn mean_iterations(&self) -> f64 {
        if self.invocations == 0 {
            0.0
        } else {
            self.total_iterations as f64 / self.invocations as f64
        }
    }
}

/// The finished profile, as consumed by region formation.
#[derive(Clone, Debug, Default)]
pub struct ReuseProfile {
    /// Indexed by raw [`InstrId`]; an instruction that never executed
    /// has an all-zero entry (or none past the end).
    instr: Vec<InstrProfile>,
    /// Indexed by raw [`InstrId`], like `instr`; only loads' entries
    /// ever count.
    mem: Vec<MemProfile>,
    cyclic: HashMap<LoopKey, CyclicProfile>,
    /// Total dynamic instructions profiled.
    pub total_dyn_instrs: u64,
}

impl ReuseProfile {
    fn executed(&self, id: InstrId) -> Option<&InstrProfile> {
        self.instr.get(id.index()).filter(|p| p.exec > 0)
    }

    /// Execution count of an instruction (0 if never executed).
    pub fn exec(&self, id: InstrId) -> u64 {
        self.executed(id).map_or(0, |p| p.exec)
    }

    /// The `Invariance_R[k]/Exec` ratio of an instruction.
    pub fn invariance_ratio(&self, id: InstrId, k: usize) -> f64 {
        self.executed(id).map_or(0.0, |p| p.invariance_ratio(k))
    }

    /// Recent-window recurrence ratio of an instruction.
    pub fn recent_ratio(&self, id: InstrId) -> f64 {
        self.executed(id).map_or(0.0, |p| p.recent_ratio())
    }

    /// Memory-unchanged ratio of a load (0 for non-loads).
    pub fn mem_unchanged_ratio(&self, id: InstrId) -> f64 {
        self.mem
            .get(id.index())
            .map_or(0.0, |p| p.unchanged_ratio())
    }

    /// For branches: fraction of executions on which the branch was
    /// taken (0 if never executed).
    pub fn taken_ratio(&self, id: InstrId) -> f64 {
        self.executed(id)
            .map_or(0.0, |p| p.taken as f64 / p.exec as f64)
    }

    /// Full per-instruction profile, if the instruction executed.
    pub fn instr_profile(&self, id: InstrId) -> Option<&InstrProfile> {
        self.executed(id)
    }

    /// Cyclic profile of a loop, if it was a candidate and ran.
    pub fn cyclic_profile(&self, key: LoopKey) -> Option<&CyclicProfile> {
        self.cyclic.get(&key)
    }

    /// Iterates over all profiled loops.
    pub fn iter_cyclic(&self) -> impl Iterator<Item = (&LoopKey, &CyclicProfile)> {
        self.cyclic.iter()
    }
}

struct ActiveInvocation {
    /// The loop's slot in [`ValueProfiler::loops`].
    slot: usize,
    live_ins: LiveIns,
    iterations: u64,
    start_versions: Vec<u64>,
}

/// Online profiler; attach to an [`crate::Emulator`] run as a
/// [`TraceSink`], then call [`ValueProfiler::finish`].
pub struct ValueProfiler {
    profile: ReuseProfile,
    /// Candidate loops in discovery order, one slot per key.
    loops: Vec<LoopMeta>,
    /// The slot of the loop each block heads, by function and block
    /// index.
    header_slot: Vec<Vec<Option<u32>>>,
    /// Each slot's body blocks as a bitset over block indices.
    bodies: Vec<Vec<u64>>,
    /// Each slot's cyclic counters, once it has finished an invocation.
    cyclic: Vec<Option<CyclicProfile>>,
    /// Per-object global store version.
    obj_version: Vec<u64>,
    /// The first location number of each object: object `o`'s element
    /// `i` is location `loc_base[o] + i` (indices arrive already
    /// masked into the object's bounds).
    loc_base: Vec<usize>,
    /// Per-location store version, by location number.
    loc_version: Vec<u64>,
    /// Active loop invocation per call depth, indexed by depth.
    active: Vec<Option<ActiveInvocation>>,
    depth: usize,
    /// Buffers of finished invocations, reused by the next ones.
    spare_live_ins: Vec<LiveIns>,
    spare_versions: Vec<Vec<u64>>,
}

impl ValueProfiler {
    /// Creates a profiler with explicit loop metadata. A key given
    /// twice keeps its last meta.
    pub fn new(program: &Program, loops: Vec<LoopMeta>) -> ValueProfiler {
        let mut metas: Vec<LoopMeta> = Vec::with_capacity(loops.len());
        let mut header_slot: Vec<Vec<Option<u32>>> = Vec::new();
        for meta in loops {
            let (f, b) = (meta.key.func.index(), meta.key.header.index());
            if header_slot.len() <= f {
                header_slot.resize_with(f + 1, Vec::new);
            }
            if header_slot[f].len() <= b {
                header_slot[f].resize(b + 1, None);
            }
            match header_slot[f][b] {
                Some(slot) => metas[slot as usize] = meta,
                None => {
                    header_slot[f][b] = Some(metas.len() as u32);
                    metas.push(meta);
                }
            }
        }
        let bodies = metas
            .iter()
            .map(|m| {
                let mut bits = Vec::new();
                for b in &m.body {
                    let i = b.index();
                    if bits.len() <= i / 64 {
                        bits.resize(i / 64 + 1, 0u64);
                    }
                    bits[i / 64] |= 1 << (i % 64);
                }
                bits
            })
            .collect();
        let mut loc_base = Vec::with_capacity(program.objects().len());
        let mut locations = 0;
        for o in program.objects() {
            loc_base.push(locations);
            locations += o.size();
        }
        ValueProfiler {
            profile: ReuseProfile::default(),
            cyclic: vec![None; metas.len()],
            loops: metas,
            header_slot,
            bodies,
            obj_version: vec![0; program.objects().len()],
            loc_base,
            loc_version: vec![0; locations],
            active: Vec::new(),
            depth: 0,
            spare_live_ins: Vec::new(),
            spare_versions: Vec::new(),
        }
    }

    /// Creates a profiler, deriving candidate-loop metadata from the
    /// program: every *innermost* natural loop is a candidate.
    pub fn for_program(program: &Program) -> ValueProfiler {
        let cg = CallGraph::compute(program);
        let se = SideEffects::compute(program, &cg);
        let mut metas = Vec::new();
        for func in program.functions() {
            let forest = LoopForest::compute(func);
            for lp in forest.inner_loops() {
                let mut loaded = BTreeSet::new();
                let mut impure = false;
                for &b in &lp.body {
                    for instr in &func.block(b).instrs {
                        match &instr.op {
                            Op::Load { object, .. } => {
                                loaded.insert(*object);
                            }
                            Op::Store { .. } => impure = true,
                            Op::Call { callee, .. } => {
                                impure = true;
                                let _ = se.may_store(*callee);
                            }
                            _ => {}
                        }
                    }
                }
                metas.push(LoopMeta {
                    key: LoopKey {
                        func: func.id(),
                        header: lp.header,
                    },
                    body: lp.body.clone(),
                    loaded_objects: loaded.into_iter().collect(),
                    impure,
                });
            }
        }
        ValueProfiler::new(program, metas)
    }

    /// The candidate-loop metadata the profiler was built with (used
    /// by the limit study and by region formation), in discovery
    /// order.
    pub fn loop_metas(&self) -> Vec<LoopMeta> {
        self.loops.clone()
    }

    /// Consumes the profiler, finalizing any open invocation records.
    pub fn finish(mut self) -> ReuseProfile {
        for d in 0..self.active.len() {
            self.finalize_invocation(d);
        }
        self.profile.cyclic = self
            .cyclic
            .into_iter()
            .zip(&self.loops)
            .filter_map(|(prof, meta)| Some((meta.key, prof?)))
            .collect();
        self.profile
    }

    /// The slot of the loop headed by `block`, if any.
    #[inline]
    fn header_slot(&self, func: FuncId, block: BlockId) -> Option<usize> {
        let slot = self.header_slot.get(func.index())?.get(block.index())?;
        slot.map(|s| s as usize)
    }

    /// The current store versions of the objects `slot`'s loop loads,
    /// in a pooled buffer.
    fn loop_versions(&mut self, slot: usize) -> Vec<u64> {
        let mut versions = self.spare_versions.pop().unwrap_or_default();
        versions.extend(
            self.loops[slot]
                .loaded_objects
                .iter()
                .map(|o| self.obj_version[o.index()]),
        );
        versions
    }

    fn active_at(&mut self, depth: usize) -> &mut Option<ActiveInvocation> {
        if self.active.len() <= depth {
            self.active.resize_with(depth + 1, || None);
        }
        &mut self.active[depth]
    }

    fn finalize_invocation(&mut self, depth: usize) {
        let Some(mut inv) = self.active.get_mut(depth).and_then(Option::take) else {
            return;
        };
        let versions = self.loop_versions(inv.slot);
        let sig = hash_reg_values(&inv.live_ins.inputs);
        let impure = self.loops[inv.slot].impure;
        let prof = self.cyclic[inv.slot].get_or_insert_with(CyclicProfile::default);
        prof.invocations += 1;
        prof.total_iterations += inv.iterations;
        if inv.iterations > 1 {
            prof.multi_iteration += 1;
        }
        let reusable = !impure
            && prof
                .history
                .iter()
                .any(|(s, v)| *s == sig && *v == inv.start_versions && *v == versions);
        if reusable {
            prof.reuse_opportunities += 1;
        }
        if prof.history.len() == CYCLIC_HISTORY {
            if let Some((_, mut old)) = prof.history.pop_front() {
                old.clear();
                self.spare_versions.push(old);
            }
        }
        prof.history.push_back((sig, versions));
        inv.live_ins.clear();
        self.spare_live_ins.push(inv.live_ins);
        inv.start_versions.clear();
        self.spare_versions.push(inv.start_versions);
    }
}

impl TraceSink for ValueProfiler {
    fn on_block_enter(&mut self, func: FuncId, block: BlockId) {
        let depth = self.depth;
        // Entering a tracked header: new invocation or next iteration.
        if let Some(slot) = self.header_slot(func, block) {
            match self.active.get_mut(depth).and_then(Option::as_mut) {
                Some(inv) if inv.slot == slot => {
                    inv.iterations += 1;
                }
                _ => {
                    let start_versions = self.loop_versions(slot);
                    self.finalize_invocation(depth);
                    let live_ins = self.spare_live_ins.pop().unwrap_or_default();
                    *self.active_at(depth) = Some(ActiveInvocation {
                        slot,
                        live_ins,
                        iterations: 1,
                        start_versions,
                    });
                }
            }
        } else if let Some(inv) = self.active.get(depth).and_then(Option::as_ref) {
            // Leaving the active loop's body ends the invocation.
            if !in_body(&self.bodies[inv.slot], block) {
                self.finalize_invocation(depth);
            }
        }
    }

    fn on_call(&mut self, _caller: FuncId, _callee: FuncId) {
        self.depth += 1;
    }

    fn on_ret(&mut self, _from: FuncId) {
        self.finalize_invocation(self.depth);
        self.depth = self.depth.saturating_sub(1);
    }

    fn on_exec(&mut self, event: &ExecEvent<'_>) {
        self.profile.total_dyn_instrs += 1;
        let idx = event.instr.id.index();
        if idx >= self.profile.instr.len() {
            self.profile
                .instr
                .resize_with(idx + 1, InstrProfile::default);
            self.profile.mem.resize_with(idx + 1, MemProfile::default);
        }
        let ip = &mut self.profile.instr[idx];
        ip.observe(hash_values(event.inputs));
        if event.taken == Some(true) {
            ip.taken += 1;
        }

        // Memory bookkeeping.
        if let Some(mem) = event.mem {
            let loc = self.loc_base[mem.object.index()] + mem.index as usize;
            if mem.is_store {
                self.obj_version[mem.object.index()] += 1;
                self.loc_version[loc] += 1;
            } else {
                self.profile.mem[idx].observe(loc as u64, self.loc_version[loc]);
            }
        }

        // Cyclic live-in capture: registers read before written while
        // the invocation is active and the instruction is in the body.
        if let Some(Some(inv)) = self.active.get_mut(self.depth) {
            if event.func == self.loops[inv.slot].key.func
                && in_body(&self.bodies[inv.slot], event.block)
            {
                for src in event.decoded.srcs() {
                    inv.live_ins.read(src.reg, event.inputs[src.slot as usize]);
                }
                for &d in event.decoded.dsts() {
                    inv.live_ins.write(d);
                }
            }
        }
    }
}

/// Whether `block` is in a loop body held as a bitset.
#[inline]
fn in_body(body: &[u64], block: BlockId) -> bool {
    let i = block.index();
    body.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1)
}

/// Hashes a value slice with an FNV-1a-style mix (stable across runs).
pub fn hash_values(values: &[Value]) -> u64 {
    let mut h = ValueHash::new();
    for v in values {
        h.push(*v);
    }
    h.finish()
}

/// [`hash_values`] fed one value at a time, so a signature over values
/// gathered from several places needs no intermediate buffer.
pub(crate) struct ValueHash(u64);

impl ValueHash {
    pub(crate) fn new() -> ValueHash {
        ValueHash(0xcbf2_9ce4_8422_2325)
    }

    #[inline]
    pub(crate) fn push(&mut self, v: Value) {
        let mut h = self.0 ^ v.0 as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
        self.0 = h ^ (h >> 29);
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

fn hash_reg_values(pairs: &[(Reg, Value)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (r, v) in pairs {
        h ^= u64::from(r.0);
        h = h.wrapping_mul(0x1000_0000_01b3);
        h ^= v.0 as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
        h ^= h >> 29;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crb::NullCrb;
    use crate::emulator::Emulator;
    use ccr_ir::{BinKind, CmpPred, ProgramBuilder};

    /// Loop over a constant table, invoked `n` times via an outer loop.
    /// The inner loop's inputs are identical every invocation, so its
    /// cyclic reuse ratio should approach (n-1)/n.
    fn looped_sum(n: i64) -> (ccr_ir::Program, LoopKey) {
        let mut pb = ProgramBuilder::new();
        let t = pb.table("t", vec![2, 4, 6, 8]);
        let mut f = pb.function("main", 0, 1);
        let total = f.movi(0);
        let outer_i = f.movi(0);
        let sum = f.fresh();
        let j = f.fresh();
        let outer = f.block();
        let inner = f.block();
        let inner_done = f.block();
        let done = f.block();
        f.jump(outer);
        f.switch_to(outer);
        f.assign(sum, 0);
        f.assign(j, 0);
        f.jump(inner);
        f.switch_to(inner);
        let v = f.load(t, j);
        f.bin_into(BinKind::Add, sum, sum, v);
        f.inc(j, 1);
        f.br(CmpPred::Lt, j, 4, inner, inner_done);
        f.switch_to(inner_done);
        f.bin_into(BinKind::Add, total, total, sum);
        f.inc(outer_i, 1);
        f.br(CmpPred::Lt, outer_i, n, outer, done);
        f.switch_to(done);
        f.ret(&[ccr_ir::Operand::Reg(total)]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        (
            pb.finish(),
            LoopKey {
                func: ccr_ir::FuncId(0),
                header: inner,
            },
        )
    }

    fn profile(p: &ccr_ir::Program) -> ReuseProfile {
        let mut prof = ValueProfiler::for_program(p);
        Emulator::new(p).run(&mut NullCrb, &mut prof).unwrap();
        prof.finish()
    }

    #[test]
    fn instruction_invariance_of_constant_inputs() {
        let (p, _) = looped_sum(10);
        let prof = profile(&p);
        // The load executes 40 times over 4 distinct indices: top-5
        // vectors cover everything.
        let load_id = p
            .function(p.main())
            .iter_instrs()
            .find(|(_, i)| i.is_load())
            .unwrap()
            .1
            .id;
        assert_eq!(prof.exec(load_id), 40);
        assert!((prof.invariance_ratio(load_id, 5) - 1.0).abs() < 1e-9);
        assert!(prof.instr_profile(load_id).unwrap().distinct_vectors() <= 4);
    }

    #[test]
    fn memory_unchanged_ratio_for_readonly_table() {
        let (p, _) = looped_sum(10);
        let prof = profile(&p);
        let load_id = p
            .function(p.main())
            .iter_instrs()
            .find(|(_, i)| i.is_load())
            .unwrap()
            .1
            .id;
        // First touch of each of 4 locations is "unknown"; the
        // remaining 36 accesses see unchanged locations.
        assert_eq!(prof.mem_unchanged_ratio(load_id), 36.0 / 40.0);
    }

    #[test]
    fn cyclic_profile_counts_invocations_and_reuse() {
        let (p, key) = looped_sum(10);
        let prof = profile(&p);
        let cyc = prof.cyclic_profile(key).expect("inner loop profiled");
        assert_eq!(cyc.invocations, 10);
        assert_eq!(cyc.multi_iteration, 10);
        assert_eq!(cyc.total_iterations, 40);
        // Every invocation after the first can reuse.
        assert_eq!(cyc.reuse_opportunities, 9);
        assert!((cyc.reuse_ratio() - 0.9).abs() < 1e-9);
        assert!((cyc.mean_iterations() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn stores_break_memory_reuse() {
        let mut pb = ProgramBuilder::new();
        let o = pb.object("o", 1);
        let mut f = pb.function("main", 0, 1);
        let i = f.movi(0);
        let acc = f.movi(0);
        let body = f.block();
        let done = f.block();
        f.jump(body);
        f.switch_to(body);
        let v = f.load(o, 0);
        f.bin_into(BinKind::Add, acc, acc, v);
        f.store(o, 0, i); // location changes every iteration
        f.inc(i, 1);
        f.br(CmpPred::Lt, i, 8, body, done);
        f.switch_to(done);
        f.ret(&[ccr_ir::Operand::Reg(acc)]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        let p = pb.finish();
        let prof = profile(&p);
        let load_id = p
            .function(p.main())
            .iter_instrs()
            .find(|(_, i)| i.is_load())
            .unwrap()
            .1
            .id;
        assert_eq!(prof.mem_unchanged_ratio(load_id), 0.0);
        // The loop stores, so it is impure: no cyclic reuse.
        let key = LoopKey {
            func: p.main(),
            header: BlockId(1),
        };
        let cyc = prof.cyclic_profile(key).unwrap();
        assert_eq!(cyc.reuse_opportunities, 0);
    }

    #[test]
    fn varying_inputs_reduce_invariance() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0, 1);
        let i = f.movi(0);
        let acc = f.movi(0);
        let body = f.block();
        let done = f.block();
        f.jump(body);
        f.switch_to(body);
        let sq = f.mul(i, i); // new input vector every iteration
        f.bin_into(BinKind::Add, acc, acc, sq);
        f.inc(i, 1);
        f.br(CmpPred::Lt, i, 100, body, done);
        f.switch_to(done);
        f.ret(&[ccr_ir::Operand::Reg(acc)]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        let p = pb.finish();
        let prof = profile(&p);
        let mul_id = p
            .function(p.main())
            .iter_instrs()
            .find(|(_, i)| {
                matches!(
                    i.op,
                    Op::Binary {
                        kind: BinKind::Mul,
                        ..
                    }
                )
            })
            .unwrap()
            .1
            .id;
        assert_eq!(prof.exec(mul_id), 100);
        assert!(prof.invariance_ratio(mul_id, 5) <= 0.06);
        assert_eq!(prof.recent_ratio(mul_id), 0.0);
    }

    #[test]
    fn recent_window_catches_alternation() {
        // Input alternates between two values: every execution after
        // the first two finds its vector in the 10-deep window.
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0, 1);
        let i = f.movi(0);
        let acc = f.movi(0);
        let body = f.block();
        let done = f.block();
        f.jump(body);
        f.switch_to(body);
        let bit = f.and(i, 1);
        let dbl = f.shl(bit, 1);
        f.bin_into(BinKind::Add, acc, acc, dbl);
        f.inc(i, 1);
        f.br(CmpPred::Lt, i, 50, body, done);
        f.switch_to(done);
        f.ret(&[ccr_ir::Operand::Reg(acc)]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        let p = pb.finish();
        let prof = profile(&p);
        let shl_id = p
            .function(p.main())
            .iter_instrs()
            .find(|(_, i)| {
                matches!(
                    i.op,
                    Op::Binary {
                        kind: BinKind::Shl,
                        ..
                    }
                )
            })
            .unwrap()
            .1
            .id;
        let ip = prof.instr_profile(shl_id).unwrap();
        assert!(ip.recent_ratio() > 0.9, "ratio {}", ip.recent_ratio());
        assert_eq!(ip.distinct_vectors(), 2);
    }

    #[test]
    fn hash_values_distinguishes_and_is_stable() {
        let a = hash_values(&[Value::from_int(1), Value::from_int(2)]);
        let b = hash_values(&[Value::from_int(2), Value::from_int(1)]);
        let c = hash_values(&[Value::from_int(1), Value::from_int(2)]);
        assert_ne!(a, b);
        assert_eq!(a, c);
        assert_ne!(hash_values(&[]), hash_values(&[Value::ZERO]));
    }
}
