//! The reuse-potential limit study behind Figure 4 of the paper.
//!
//! Section 2.3: *"we constructed a value profiling infrastructure
//! within the IMPACT compiler and emulation framework to record reuse
//! opportunities for basic blocks and regions of code. Regions are
//! defined as paths of basic block segments and include both cyclic
//! and acyclic formations. ... Store instructions were not considered
//! to have reuse opportunities. Load instructions were considered
//! reusable if their source memory location had not been accessed by
//! any store operation between load executions. Reuse for cyclic
//! regions is detected by monitoring additional program state at the
//! invocation of the respective region headers. ... eight records of
//! previous dynamic information for each code segment were maintained."*
//!
//! The study runs as a [`TraceSink`] over an emulation:
//!
//! * **Block level**: every dynamic basic-block execution forms an
//!   input signature (live-in register values consumed plus the
//!   version stamps of every loaded location). A match against the
//!   block's 8-deep history makes all its non-store instructions
//!   *block-reusable*.
//! * **Region level**: dynamic *paths* of up to
//!   [`PotentialConfig::max_path_blocks`] block executions form the
//!   acyclic regions, and invocations of pure innermost loops form the
//!   cyclic regions, each with their own 8-deep history. Instructions
//!   inside an active pure-loop invocation are attributed to the
//!   cyclic detector; all others to the path detector, so the two
//!   never double-count.

use std::collections::VecDeque;

use ccr_ir::{BlockId, FuncId, MemObjectId, Program, Value};

use crate::regset::LiveIns;
use crate::rps::{FastMap, LoopKey, LoopMeta, ValueHash, ValueProfiler};
use crate::trace::{ExecEvent, TraceSink};

/// Limit-study parameters.
#[derive(Clone, Copy, Debug)]
pub struct PotentialConfig {
    /// Records of previous dynamic information kept per code segment
    /// (8 in the paper).
    pub history_depth: usize,
    /// Maximum block executions chained into one acyclic path region.
    pub max_path_blocks: usize,
}

impl Default for PotentialConfig {
    fn default() -> Self {
        PotentialConfig {
            history_depth: 8,
            max_path_blocks: 8,
        }
    }
}

/// Result of the limit study.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct ReusePotential {
    /// Total dynamic instructions observed.
    pub total_instrs: u64,
    /// Dynamic instructions covered by block-level reuse.
    pub block_reusable: u64,
    /// Dynamic instructions covered by region-level (path + cyclic)
    /// reuse.
    pub region_reusable: u64,
    /// Portion of `region_reusable` contributed by cyclic regions.
    pub cyclic_reusable: u64,
}

impl ReusePotential {
    /// Fraction of dynamic execution reusable at block granularity.
    pub fn block_ratio(&self) -> f64 {
        ratio(self.block_reusable, self.total_instrs)
    }

    /// Fraction of dynamic execution reusable at region granularity.
    pub fn region_ratio(&self) -> f64 {
        ratio(self.region_reusable, self.total_instrs)
    }
}

fn ratio(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// Accumulates the input signature of a region (block, path, or loop
/// invocation) as its instructions execute.
#[derive(Clone, Debug, Default)]
struct SigAccum {
    live_ins: LiveIns,
    loads: Vec<(MemObjectId, u64, u64)>,
    instrs: u64,
    stores: u64,
}

impl SigAccum {
    fn observe(&mut self, event: &ExecEvent<'_>, loc_version: &[Vec<u64>]) {
        self.instrs += 1;
        for src in event.decoded.srcs() {
            self.live_ins.read(src.reg, event.inputs[src.slot as usize]);
        }
        for &d in event.decoded.dsts() {
            self.live_ins.write(d);
        }
        if let Some(mem) = event.mem {
            if mem.is_store {
                self.stores += 1;
            } else {
                let v = loc_version[mem.object.index()][mem.index as usize];
                self.loads.push((mem.object, mem.index, v));
            }
        }
    }

    /// Signature over live-in values, load locations, and load
    /// versions: equal signatures mean equal inputs with memory
    /// untouched in between.
    fn signature(&self) -> u64 {
        let mut h = ValueHash::new();
        for (r, v) in &self.live_ins.inputs {
            h.push(Value::from_int(i64::from(r.0)));
            h.push(*v);
        }
        for (o, i, ver) in &self.loads {
            h.push(Value::from_int(i64::from(o.0)));
            h.push(Value::from_int(*i as i64));
            h.push(Value::from_int(*ver as i64));
        }
        h.finish()
    }

    /// Instructions counted reusable on a signature match.
    fn reusable_instrs(&self) -> u64 {
        self.instrs - self.stores
    }

    /// Empties the accumulator, keeping its buffers for the next
    /// segment.
    fn clear(&mut self) {
        self.live_ins.clear();
        self.loads.clear();
        self.instrs = 0;
        self.stores = 0;
    }
}

#[derive(Debug)]
struct History {
    records: FastMap<(FuncId, BlockId), VecDeque<u64>>,
    depth: usize,
}

impl History {
    fn new(depth: usize) -> History {
        History {
            records: FastMap::default(),
            depth,
        }
    }

    /// Checks `sig` against the segment's history and records it.
    fn check_and_record(&mut self, key: (FuncId, BlockId), sig: u64) -> bool {
        let h = self.records.entry(key).or_default();
        let hit = h.iter().any(|&s| s == sig);
        if h.len() == self.depth {
            h.pop_front();
        }
        h.push_back(sig);
        hit
    }
}

#[derive(Debug)]
struct BlockState {
    func: FuncId,
    block: BlockId,
    accum: SigAccum,
}

#[derive(Debug)]
struct PathState {
    func: FuncId,
    head: BlockId,
    blocks: Vec<BlockId>,
    accum: SigAccum,
    /// Instructions inside this path already proven block-reusable;
    /// credited to the region count when the path itself misses, so
    /// region-level coverage subsumes block-level coverage (a single
    /// block is a trivial region).
    block_matched: u64,
}

#[derive(Debug)]
struct LoopState {
    key: LoopKey,
    accum: SigAccum,
    block_matched: u64,
}

/// The open segments of one call depth.
#[derive(Debug, Default)]
struct DepthState {
    block: Option<BlockState>,
    path: Option<PathState>,
    lp: Option<LoopState>,
}

/// The limit study, attached to an emulation as a [`TraceSink`].
pub struct PotentialStudy {
    config: PotentialConfig,
    loops: FastMap<LoopKey, LoopMeta>,
    result: ReusePotential,
    block_history: History,
    path_history: History,
    loop_history: History,
    /// Per-location store version, per object by element index.
    loc_version: Vec<Vec<u64>>,
    /// Open segments, indexed by call depth.
    open: Vec<DepthState>,
    /// Buffers of closed segments, reused by the next ones.
    spare_accums: Vec<SigAccum>,
    spare_blocks: Vec<Vec<BlockId>>,
    depth: usize,
}

impl PotentialStudy {
    /// Creates a study for `program` with default parameters; pure
    /// innermost loops become cyclic-region candidates.
    pub fn for_program(program: &Program) -> PotentialStudy {
        PotentialStudy::with_config(program, PotentialConfig::default())
    }

    /// Creates a study with explicit parameters.
    pub fn with_config(program: &Program, config: PotentialConfig) -> PotentialStudy {
        // Reuse the profiler's loop discovery, then discard it.
        let profiler = ValueProfiler::for_program(program);
        let loops = profiler.loop_metas();
        PotentialStudy {
            config,
            loops: loops
                .into_iter()
                .filter(|m| !m.impure)
                .map(|m| (m.key, m))
                .collect(),
            result: ReusePotential::default(),
            block_history: History::new(config.history_depth),
            path_history: History::new(config.history_depth),
            loop_history: History::new(config.history_depth),
            loc_version: program
                .objects()
                .iter()
                .map(|o| vec![0; o.size()])
                .collect(),
            open: Vec::new(),
            spare_accums: Vec::new(),
            spare_blocks: Vec::new(),
            depth: 0,
        }
    }

    /// Finalizes open segments and returns the measured potential.
    pub fn finish(mut self) -> ReusePotential {
        for d in 0..self.open.len() {
            self.close_block(d);
        }
        for d in 0..self.open.len() {
            self.close_path(d);
        }
        for d in 0..self.open.len() {
            self.close_loop(d);
        }
        self.result
    }

    fn at(&mut self, depth: usize) -> &mut DepthState {
        if self.open.len() <= depth {
            self.open.resize_with(depth + 1, DepthState::default);
        }
        &mut self.open[depth]
    }

    fn fresh_accum(&mut self) -> SigAccum {
        self.spare_accums.pop().unwrap_or_default()
    }

    fn recycle(&mut self, mut accum: SigAccum) {
        accum.clear();
        self.spare_accums.push(accum);
    }

    fn close_block(&mut self, depth: usize) {
        let Some(BlockState { func, block, accum }) = self.at(depth).block.take() else {
            return;
        };
        if accum.instrs > 0 {
            let sig = accum.signature();
            if self.block_history.check_and_record((func, block), sig) {
                let n = accum.reusable_instrs();
                self.result.block_reusable += n;
                // Credit the enclosing region segment: if it misses,
                // these instructions are still region-reusable as
                // trivial single-block regions.
                let open = &mut self.open[depth];
                if let Some(lp) = open.lp.as_mut() {
                    lp.block_matched += n;
                } else if let Some(p) = open.path.as_mut() {
                    p.block_matched += n;
                }
            }
        }
        self.recycle(accum);
    }

    fn close_path(&mut self, depth: usize) {
        let Some(mut path) = self.at(depth).path.take() else {
            return;
        };
        if path.accum.instrs > 0 {
            // Path identity: head block plus the sequence of blocks.
            let mut h = ValueHash::new();
            for b in &path.blocks {
                h.push(Value::from_int(i64::from(b.0)));
            }
            h.push(Value::from_int(path.accum.signature() as i64));
            if self
                .path_history
                .check_and_record((path.func, path.head), h.finish())
            {
                self.result.region_reusable += path.accum.reusable_instrs();
            } else {
                self.result.region_reusable += path.block_matched;
            }
        }
        path.blocks.clear();
        self.spare_blocks.push(path.blocks);
        self.recycle(path.accum);
    }

    fn close_loop(&mut self, depth: usize) {
        let Some(lp) = self.at(depth).lp.take() else {
            return;
        };
        if lp.accum.instrs > 0 {
            let sig = lp.accum.signature();
            if self
                .loop_history
                .check_and_record((lp.key.func, lp.key.header), sig)
            {
                self.result.region_reusable += lp.accum.reusable_instrs();
                self.result.cyclic_reusable += lp.accum.reusable_instrs();
            } else {
                self.result.region_reusable += lp.block_matched;
            }
        }
        self.recycle(lp.accum);
    }
}

impl TraceSink for PotentialStudy {
    fn on_block_enter(&mut self, func: FuncId, block: BlockId) {
        let depth = self.depth;
        // Block segment: close previous, open new.
        self.close_block(depth);
        let accum = self.fresh_accum();
        self.at(depth).block = Some(BlockState { func, block, accum });

        // Cyclic regions take precedence over paths.
        let key = LoopKey {
            func,
            header: block,
        };
        if let Some(active) = &self.open[depth].lp {
            if active.key == key {
                // Next iteration: keep accumulating.
                return;
            }
            let in_active_loop = self
                .loops
                .get(&active.key)
                .is_some_and(|m| m.body.contains(&block) && func == active.key.func);
            if !in_active_loop {
                self.close_loop(depth);
            } else {
                return; // still inside the active loop body
            }
        }
        if self.loops.contains_key(&key) {
            // Starting a new pure-loop invocation: paths pause.
            self.close_path(depth);
            let accum = self.fresh_accum();
            self.open[depth].lp = Some(LoopState {
                key,
                accum,
                block_matched: 0,
            });
            return;
        }

        // Path segment: extend or rotate.
        let rotate = match &self.open[depth].path {
            None => true,
            Some(p) => {
                p.func != func
                    || p.blocks.len() >= self.config.max_path_blocks
                    || p.blocks.contains(&block)
            }
        };
        if rotate {
            self.close_path(depth);
            let mut blocks = self.spare_blocks.pop().unwrap_or_default();
            blocks.push(block);
            let accum = self.fresh_accum();
            self.open[depth].path = Some(PathState {
                func,
                head: block,
                blocks,
                accum,
                block_matched: 0,
            });
        } else if let Some(p) = self.open[depth].path.as_mut() {
            p.blocks.push(block);
        }
    }

    fn on_call(&mut self, _caller: FuncId, _callee: FuncId) {
        // A call ends the caller's open path; candidate loops are
        // pure, so no loop can be active across a call.
        let depth = self.depth;
        self.close_path(depth);
        self.close_loop(depth);
        self.depth += 1;
    }

    fn on_ret(&mut self, _from: FuncId) {
        let depth = self.depth;
        self.close_block(depth);
        self.close_path(depth);
        self.close_loop(depth);
        self.depth = self.depth.saturating_sub(1);
    }

    fn on_exec(&mut self, event: &ExecEvent<'_>) {
        self.result.total_instrs += 1;
        let depth = self.depth;
        if let Some(open) = self.open.get_mut(depth) {
            if let Some(b) = open.block.as_mut() {
                b.accum.observe(event, &self.loc_version);
            }
            if let Some(lp) = open.lp.as_mut() {
                lp.accum.observe(event, &self.loc_version);
            } else if let Some(p) = open.path.as_mut() {
                p.accum.observe(event, &self.loc_version);
            }
        }
        // Stores bump versions *after* the signature observation so a
        // load earlier in the same segment keeps its pre-store stamp.
        if let Some(mem) = event.mem {
            if mem.is_store {
                self.loc_version[mem.object.index()][mem.index as usize] += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crb::NullCrb;
    use crate::emulator::Emulator;
    use ccr_ir::{BinKind, CmpPred, ProgramBuilder};

    fn run_study(p: &ccr_ir::Program) -> ReusePotential {
        let mut study = PotentialStudy::for_program(p);
        Emulator::new(p).run(&mut NullCrb, &mut study).unwrap();
        study.finish()
    }

    /// Repeatedly sums a constant table: nearly everything is
    /// region-reusable, and per-block reuse is also high.
    #[test]
    fn constant_loop_is_highly_reusable() {
        let mut pb = ProgramBuilder::new();
        let t = pb.table("t", vec![1, 2, 3, 4, 5, 6, 7, 8]);
        let mut f = pb.function("main", 0, 1);
        let total = f.movi(0);
        let n = f.movi(0);
        let sum = f.fresh();
        let j = f.fresh();
        let outer = f.block();
        let inner = f.block();
        let after = f.block();
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
        f.br(CmpPred::Lt, j, 8, inner, after);
        f.switch_to(after);
        f.bin_into(BinKind::Add, total, total, sum);
        f.inc(n, 1);
        f.br(CmpPred::Lt, n, 20, outer, done);
        f.switch_to(done);
        f.ret(&[ccr_ir::Operand::Reg(total)]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        let p = pb.finish();
        let pot = run_study(&p);
        assert!(pot.total_instrs > 500);
        // 19 of 20 inner-loop invocations are cyclic-reusable.
        assert!(
            pot.region_ratio() > 0.5,
            "region ratio {}",
            pot.region_ratio()
        );
        assert!(pot.cyclic_reusable > 0);
        // Region-level reuse must dominate block-level reuse.
        assert!(pot.region_reusable >= pot.block_reusable / 2);
    }

    /// A computation whose inputs never repeat: no reuse at any level.
    #[test]
    fn nonrepeating_computation_has_little_reuse() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0, 1);
        let i = f.movi(0);
        let acc = f.movi(0);
        let body = f.block();
        let done = f.block();
        f.jump(body);
        f.switch_to(body);
        let sq = f.mul(i, i);
        let x = f.xor(acc, sq);
        f.bin_into(BinKind::Add, acc, x, i);
        f.inc(i, 1);
        f.br(CmpPred::Lt, i, 200, body, done);
        f.switch_to(done);
        f.ret(&[ccr_ir::Operand::Reg(acc)]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        let p = pb.finish();
        let pot = run_study(&p);
        assert!(pot.block_ratio() < 0.1, "block ratio {}", pot.block_ratio());
        assert!(
            pot.region_ratio() < 0.1,
            "region ratio {}",
            pot.region_ratio()
        );
    }

    /// Straight-line repetition without loops: identical call bodies
    /// make paths match across invocations.
    #[test]
    fn repeated_call_bodies_are_path_reusable() {
        let mut pb = ProgramBuilder::new();
        let g = pb.declare("g", 1, 1);
        let mut gb = pb.function_body(g);
        let x = gb.param(0);
        let a = gb.mul(x, 3);
        let b = gb.add(a, 7);
        let c = gb.xor(b, x);
        gb.ret(&[ccr_ir::Operand::Reg(c)]);
        pb.finish_function(gb);
        let mut f = pb.function("main", 0, 1);
        let acc = f.movi(0);
        let i = f.movi(0);
        let body = f.block();
        let done = f.block();
        f.jump(body);
        f.switch_to(body);
        // Always call with the same argument: g's path repeats.
        let r = f.call(g, &[ccr_ir::Operand::Imm(5)], 1);
        f.bin_into(BinKind::Add, acc, acc, r[0]);
        f.inc(i, 1);
        f.br(CmpPred::Lt, i, 30, body, done);
        f.switch_to(done);
        f.ret(&[ccr_ir::Operand::Reg(acc)]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        let p = pb.finish();
        let pot = run_study(&p);
        assert!(
            pot.region_ratio() > 0.3,
            "region ratio {}",
            pot.region_ratio()
        );
    }

    /// A deeper history can only find more reuse; depth 8 (the
    /// paper's) dominates depth 1 on an alternating pattern.
    #[test]
    fn history_depth_monotonicity() {
        // A helper is called with arguments alternating A, B, A, B:
        // its path signature is just the argument, so a 1-deep
        // history never matches while an 8-deep history matches from
        // the third call on.
        let mut pb = ProgramBuilder::new();
        let t = pb.table("t", vec![11, 22]);
        let g = pb.declare("g", 1, 1);
        let mut gb = pb.function_body(g);
        let x = gb.param(0);
        let a = gb.mul(x, 3);
        let b = gb.add(a, 9);
        let c = gb.xor(b, x);
        gb.ret(&[ccr_ir::Operand::Reg(c)]);
        pb.finish_function(gb);
        let mut f = pb.function("main", 0, 1);
        let acc = f.movi(0);
        let i = f.movi(0);
        let body = f.block();
        let done = f.block();
        f.jump(body);
        f.switch_to(body);
        let sel = f.and(i, 1);
        let v = f.load(t, sel);
        let r = f.call(g, &[ccr_ir::Operand::Reg(v)], 1);
        f.bin_into(BinKind::Add, acc, acc, r[0]);
        f.inc(i, 1);
        f.br(CmpPred::Lt, i, 100, body, done);
        f.switch_to(done);
        f.ret(&[ccr_ir::Operand::Reg(acc)]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        let p = pb.finish();
        let run = |depth: usize| {
            let mut study = PotentialStudy::with_config(
                &p,
                PotentialConfig {
                    history_depth: depth,
                    max_path_blocks: 8,
                },
            );
            Emulator::new(&p).run(&mut NullCrb, &mut study).unwrap();
            study.finish()
        };
        let shallow = run(1);
        let deep = run(8);
        assert!(
            deep.region_reusable > shallow.region_reusable,
            "8-deep {} must beat 1-deep {}",
            deep.region_reusable,
            shallow.region_reusable
        );
        assert!(deep.block_reusable > shallow.block_reusable);
    }

    /// Stores to the scanned table between invocations destroy
    /// region-level reuse of the scan loop.
    #[test]
    fn stores_invalidate_cyclic_reuse() {
        let mut pb = ProgramBuilder::new();
        let tbl = pb.object("tbl", 4);
        let mut f = pb.function("main", 0, 1);
        let total = f.movi(0);
        let n = f.movi(0);
        let sum = f.fresh();
        let j = f.fresh();
        let outer = f.block();
        let inner = f.block();
        let after = f.block();
        let done = f.block();
        f.jump(outer);
        f.switch_to(outer);
        f.assign(sum, 0);
        f.assign(j, 0);
        f.store(tbl, 0, n); // mutate before each scan
        f.jump(inner);
        f.switch_to(inner);
        let v = f.load(tbl, j);
        f.bin_into(BinKind::Add, sum, sum, v);
        f.inc(j, 1);
        f.br(CmpPred::Lt, j, 4, inner, after);
        f.switch_to(after);
        f.bin_into(BinKind::Add, total, total, sum);
        f.inc(n, 1);
        f.br(CmpPred::Lt, n, 20, outer, done);
        f.switch_to(done);
        f.ret(&[ccr_ir::Operand::Reg(total)]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        let p = pb.finish();
        let pot = run_study(&p);
        assert_eq!(pot.cyclic_reusable, 0, "{pot:?}");
    }
}
