//! An independent reference model of the Reuse Profiling System.
//!
//! [`ReferenceProfiler`] is the value profiler as it stood before its
//! hot paths became constant-time: loops live in a map keyed by
//! [`LoopKey`] and are tested with `BTreeSet::contains`, a loop
//! invocation's live-in registers are found by linear scans of its
//! `inputs` and `written` lists, each instruction's recent window is a
//! `VecDeque`, and the capped maps are probed with `len` /
//! `contains_key` / `entry`. It shares no code with
//! `ccr_profile::ValueProfiler` beyond the public IR, trace and
//! [`LoopMeta`] types, so tests can drive both over the same event
//! stream and require every observable counter to agree.

use std::collections::{BTreeSet, HashMap, VecDeque};

use ccr_analysis::{CallGraph, LoopForest, SideEffects};
use ccr_ir::{BlockId, FuncId, InstrId, MemObjectId, Op, Program, Reg, Value};
use ccr_profile::rps::LoopMeta;
use ccr_profile::{hash_values, ExecEvent, LoopKey, TraceSink, CYCLIC_HISTORY, RECENT_WINDOW};

/// Cap on distinct value vectors tracked per instruction.
pub const MAX_TRACKED_VECTORS: usize = 64;
/// Cap on distinct locations tracked per load.
pub const MAX_TRACKED_LOCATIONS: usize = 4096;

/// Per-instruction value-locality counters.
#[derive(Clone, Debug, Default)]
pub struct RefInstrProfile {
    pub exec: u64,
    pub recent_hits: u64,
    pub taken: u64,
    vector_counts: HashMap<u64, u64>,
    overflow: u64,
    recent: VecDeque<u64>,
}

impl RefInstrProfile {
    /// Sum of the top-`k` distinct input-vector counts.
    pub fn invariance_top(&self, k: usize) -> u64 {
        let mut counts: Vec<u64> = self.vector_counts.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        counts.into_iter().take(k).sum()
    }

    pub fn invariance_ratio(&self, k: usize) -> f64 {
        if self.exec == 0 {
            0.0
        } else {
            self.invariance_top(k) as f64 / self.exec as f64
        }
    }

    pub fn recent_ratio(&self) -> f64 {
        if self.exec == 0 {
            0.0
        } else {
            self.recent_hits as f64 / self.exec as f64
        }
    }

    pub fn distinct_vectors(&self) -> usize {
        self.vector_counts.len()
    }

    /// Executions whose vector arrived after the cap was full.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    fn observe(&mut self, sig: u64) {
        self.exec += 1;
        if self.recent.iter().any(|&s| s == sig) {
            self.recent_hits += 1;
        }
        if self.recent.len() == RECENT_WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(sig);
        if self.vector_counts.len() < MAX_TRACKED_VECTORS || self.vector_counts.contains_key(&sig) {
            *self.vector_counts.entry(sig).or_insert(0) += 1;
        } else {
            self.overflow += 1;
        }
    }
}

/// Per-load memory-reuse counters.
#[derive(Clone, Debug, Default)]
pub struct RefMemProfile {
    pub exec: u64,
    pub unchanged: u64,
    last_seen_version: HashMap<(MemObjectId, u64), u64>,
}

impl RefMemProfile {
    pub fn unchanged_ratio(&self) -> f64 {
        if self.exec == 0 {
            0.0
        } else {
            self.unchanged as f64 / self.exec as f64
        }
    }

    /// Distinct locations remembered (saturating at the cap).
    pub fn tracked_locations(&self) -> usize {
        self.last_seen_version.len()
    }
}

/// Per-loop cyclic recurrence counters.
#[derive(Clone, Debug, Default)]
pub struct RefCyclicProfile {
    pub invocations: u64,
    pub multi_iteration: u64,
    pub reuse_opportunities: u64,
    pub total_iterations: u64,
    history: VecDeque<(u64, Vec<u64>)>,
}

/// The finished reference profile.
#[derive(Clone, Debug, Default)]
pub struct ReferenceProfile {
    instr: Vec<RefInstrProfile>,
    mem: Vec<RefMemProfile>,
    pub cyclic: HashMap<LoopKey, RefCyclicProfile>,
    pub total_dyn_instrs: u64,
}

impl ReferenceProfile {
    fn executed(&self, id: InstrId) -> Option<&RefInstrProfile> {
        self.instr.get(id.index()).filter(|p| p.exec > 0)
    }

    pub fn exec(&self, id: InstrId) -> u64 {
        self.executed(id).map_or(0, |p| p.exec)
    }

    pub fn invariance_ratio(&self, id: InstrId, k: usize) -> f64 {
        self.executed(id).map_or(0.0, |p| p.invariance_ratio(k))
    }

    pub fn recent_ratio(&self, id: InstrId) -> f64 {
        self.executed(id).map_or(0.0, |p| p.recent_ratio())
    }

    pub fn mem_unchanged_ratio(&self, id: InstrId) -> f64 {
        self.mem
            .get(id.index())
            .map_or(0.0, |p| p.unchanged_ratio())
    }

    pub fn mem_profile(&self, id: InstrId) -> Option<&RefMemProfile> {
        self.mem.get(id.index())
    }

    pub fn taken_ratio(&self, id: InstrId) -> f64 {
        self.executed(id)
            .map_or(0.0, |p| p.taken as f64 / p.exec as f64)
    }

    pub fn instr_profile(&self, id: InstrId) -> Option<&RefInstrProfile> {
        self.executed(id)
    }
}

struct ActiveInvocation {
    key: LoopKey,
    inputs: Vec<(Reg, Value)>,
    written: Vec<Reg>,
    iterations: u64,
    start_versions: Vec<u64>,
    body_memo: Option<(BlockId, bool)>,
}

/// The reference online profiler.
pub struct ReferenceProfiler {
    profile: ReferenceProfile,
    loops: HashMap<LoopKey, LoopMeta>,
    obj_version: Vec<u64>,
    loc_version: Vec<Vec<u64>>,
    active: Vec<Option<ActiveInvocation>>,
    depth: usize,
    current_block: Option<(FuncId, BlockId)>,
}

impl ReferenceProfiler {
    /// Creates a profiler with explicit loop metadata; a duplicated
    /// key keeps its last meta.
    pub fn new(program: &Program, loops: Vec<LoopMeta>) -> ReferenceProfiler {
        ReferenceProfiler {
            profile: ReferenceProfile::default(),
            loops: loops.into_iter().map(|m| (m.key, m)).collect(),
            obj_version: vec![0; program.objects().len()],
            loc_version: program
                .objects()
                .iter()
                .map(|o| vec![0; o.size()])
                .collect(),
            active: Vec::new(),
            depth: 0,
            current_block: None,
        }
    }

    /// Every innermost natural loop is a candidate.
    pub fn for_program(program: &Program) -> ReferenceProfiler {
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
        ReferenceProfiler::new(program, metas)
    }

    /// The loop metadata, in no particular order.
    pub fn loop_metas(&self) -> Vec<LoopMeta> {
        self.loops.values().cloned().collect()
    }

    pub fn finish(mut self) -> ReferenceProfile {
        for d in 0..self.active.len() {
            self.finalize_invocation(d);
        }
        self.profile
    }

    fn loop_versions(obj_version: &[u64], meta: &LoopMeta) -> Vec<u64> {
        meta.loaded_objects
            .iter()
            .map(|o| obj_version[o.index()])
            .collect()
    }

    fn active_at(&mut self, depth: usize) -> &mut Option<ActiveInvocation> {
        if self.active.len() <= depth {
            self.active.resize_with(depth + 1, || None);
        }
        &mut self.active[depth]
    }

    fn finalize_invocation(&mut self, depth: usize) {
        let Some(inv) = self.active.get_mut(depth).and_then(Option::take) else {
            return;
        };
        let meta = &self.loops[&inv.key];
        let versions = Self::loop_versions(&self.obj_version, meta);
        let sig = hash_reg_values(&inv.inputs);
        let prof = self.profile.cyclic.entry(inv.key).or_default();
        prof.invocations += 1;
        prof.total_iterations += inv.iterations;
        if inv.iterations > 1 {
            prof.multi_iteration += 1;
        }
        let reusable = !meta.impure
            && prof
                .history
                .iter()
                .any(|(s, v)| *s == sig && *v == inv.start_versions && *v == versions);
        if reusable {
            prof.reuse_opportunities += 1;
        }
        if prof.history.len() == CYCLIC_HISTORY {
            prof.history.pop_front();
        }
        prof.history.push_back((sig, versions));
    }
}

impl TraceSink for ReferenceProfiler {
    fn on_block_enter(&mut self, func: FuncId, block: BlockId) {
        let key = LoopKey {
            func,
            header: block,
        };
        let depth = self.depth;
        if let Some(meta) = self.loops.get(&key) {
            match self.active.get_mut(depth).and_then(Option::as_mut) {
                Some(inv) if inv.key == key => {
                    inv.iterations += 1;
                }
                _ => {
                    let versions = Self::loop_versions(&self.obj_version, meta);
                    self.finalize_invocation(depth);
                    *self.active_at(depth) = Some(ActiveInvocation {
                        key,
                        inputs: Vec::new(),
                        written: Vec::new(),
                        iterations: 1,
                        start_versions: versions,
                        body_memo: None,
                    });
                }
            }
        } else if let Some(inv) = self.active.get(depth).and_then(Option::as_ref) {
            let meta = &self.loops[&inv.key];
            if !meta.body.contains(&block) {
                self.finalize_invocation(depth);
            }
        }
        self.current_block = Some((func, block));
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
                .resize_with(idx + 1, RefInstrProfile::default);
            self.profile
                .mem
                .resize_with(idx + 1, RefMemProfile::default);
        }
        let sig = hash_values(event.inputs);
        let ip = &mut self.profile.instr[idx];
        ip.observe(sig);
        if event.taken == Some(true) {
            ip.taken += 1;
        }

        if let Some(mem) = event.mem {
            let loc = (mem.object, mem.index);
            let stamp = &mut self.loc_version[mem.object.index()][mem.index as usize];
            if mem.is_store {
                self.obj_version[mem.object.index()] += 1;
                *stamp += 1;
            } else {
                let version = *stamp;
                let prof = &mut self.profile.mem[idx];
                prof.exec += 1;
                match prof.last_seen_version.get(&loc) {
                    Some(&seen) if seen == version => prof.unchanged += 1,
                    _ => {}
                }
                if prof.last_seen_version.len() < MAX_TRACKED_LOCATIONS
                    || prof.last_seen_version.contains_key(&loc)
                {
                    prof.last_seen_version.insert(loc, version);
                }
            }
        }

        if let Some(inv) = self.active.get_mut(self.depth).and_then(Option::as_mut) {
            let in_body = match inv.body_memo {
                Some((block, in_body)) if block == event.block => in_body,
                _ => {
                    let in_body = self
                        .loops
                        .get(&inv.key)
                        .is_some_and(|m| m.body.contains(&event.block));
                    inv.body_memo = Some((event.block, in_body));
                    in_body
                }
            };
            if in_body && event.func == inv.key.func {
                for src in event.decoded.srcs() {
                    let r = src.reg;
                    if !inv.written.contains(&r) && !inv.inputs.iter().any(|(x, _)| *x == r) {
                        inv.inputs.push((r, event.inputs[src.slot as usize]));
                    }
                }
                for &d in event.decoded.dsts() {
                    if !inv.written.contains(&d) {
                        inv.written.push(d);
                    }
                }
            }
        }
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
