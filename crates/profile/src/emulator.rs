//! Functional emulator for `ccr-ir` programs.
//!
//! Implements the architectural semantics of the base ISA *and* the
//! CCR extensions of Section 3.2 of the paper:
//!
//! * the `reuse` instruction consults the [`CrbModel`]; on a hit it
//!   commits the matched instance's output bank to the register file
//!   and continues after the region, on a miss it branches to the
//!   region body and enters **memoization mode**;
//! * in memoization mode, registers *used before being defined* are
//!   recorded into the input bank, destinations of instructions with
//!   the live-out extension are recorded into the output bank, and
//!   executing a load sets the memory-valid flag;
//! * a control instruction carrying the region-endpoint extension
//!   records the instance; one carrying the region-exit extension
//!   aborts memoization ("no reuse along paths from inception to exit
//!   point");
//! * the `invalidate` instruction forwards to the buffer.
//!
//! Memoization mode is *depth-aware*: it is anchored to the call
//! frame that executed the `reuse` instruction, so a region may
//! contain whole function calls (the function-level reuse of the
//! paper's future-work section). Reads in deeper frames never touch
//! the input bank (callee registers are fresh), while loads anywhere
//! set the memory-valid flag and stores anywhere abort the recording.
//!
//! The emulator is defensive where the compiler is trusted in the
//! paper: stores, bank overflow, returning past the anchor frame, or
//! a nested `reuse` during memoization abort the recording rather
//! than corrupt it.

use std::sync::Arc;

use ccr_ir::semantics::{eval_binary, eval_unary};
use ccr_ir::{BlockId, Decoded, FuncId, Instr, Op, Operand, Program, Reg, RegionId, Value};
use ccr_telemetry::record::{Codec, Strict, Wire};
use ccr_telemetry::{record, value, JsonWriter};

use crate::crb::{CrbModel, RecordedInstance};
use crate::regset::RegSet;
use crate::trace::{ExecEvent, MemAccess, ReuseOutcome, TraceSink};

/// Emulator limits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EmuConfig {
    /// Maximum dynamic instructions before aborting with
    /// [`EmuError::StepLimit`].
    pub max_instrs: u64,
    /// Maximum call depth before aborting with
    /// [`EmuError::StackOverflow`].
    pub max_depth: usize,
}

impl Default for EmuConfig {
    fn default() -> Self {
        EmuConfig {
            max_instrs: 200_000_000,
            max_depth: 4096,
        }
    }
}

/// Emulation failure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EmuError {
    /// The dynamic instruction limit was exceeded.
    StepLimit,
    /// The call-depth limit was exceeded.
    StackOverflow,
}

impl std::fmt::Display for EmuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EmuError::StepLimit => write!(f, "dynamic instruction limit exceeded"),
            EmuError::StackOverflow => write!(f, "call depth limit exceeded"),
        }
    }
}

impl std::error::Error for EmuError {}

/// Result of a completed run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RunOutcome {
    /// Values returned by the entry function.
    pub returned: Vec<Value>,
    /// Dynamic instructions actually executed.
    pub dyn_instrs: u64,
    /// Dynamic instructions skipped by reuse hits (execution the
    /// baseline would have performed).
    pub skipped_instrs: u64,
    /// Number of reuse-instruction hits.
    pub reuse_hits: u64,
    /// Number of reuse-instruction misses.
    pub reuse_misses: u64,
    /// FNV-1a digest of every memory object's final contents: reuse
    /// must leave the memory image exactly as plain execution does,
    /// not just the returned values.
    pub memory_digest: u64,
}

/// A stable FNV-1a digest of a memory image: each object's word count,
/// then its words, all as little-endian `u64` bytes, objects in id
/// order.
fn memory_digest(memory: &[Vec<Value>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut word = |w: u64| {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for obj in memory {
        word(obj.len() as u64);
        for v in obj {
            word(v.0 as u64);
        }
    }
    h
}

#[derive(Debug)]
struct MemoState {
    region: RegionId,
    inputs: Vec<(Reg, Value)>,
    /// Live-out registers whose defining (marked) instructions
    /// executed; their *values* are snapshotted at the region
    /// endpoint, after every write — including return-value writes
    /// that land when a wrapped call's callee returns.
    outputs: Vec<Reg>,
    written: RegSet,
    accesses_memory: bool,
    body_instrs: u64,
}

impl MemoState {
    fn new(region: RegionId) -> MemoState {
        MemoState {
            region,
            inputs: Vec::new(),
            outputs: Vec::new(),
            written: RegSet::default(),
            accesses_memory: false,
            body_instrs: 0,
        }
    }

    fn into_instance(self, read_reg: impl Fn(Reg) -> Value) -> RecordedInstance {
        RecordedInstance {
            inputs: self.inputs,
            outputs: self.outputs.iter().map(|r| (*r, read_reg(*r))).collect(),
            accesses_memory: self.accesses_memory,
            body_instrs: self.body_instrs,
        }
    }
}

#[derive(Debug)]
struct Frame<'p> {
    func: FuncId,
    regs: Vec<Value>,
    block: BlockId,
    pos: usize,
    /// Caller registers receiving the return values — borrowed from
    /// the call instruction in the program, so pushing a frame never
    /// clones the register list.
    ret_regs: &'p [Reg],
}

/// The emulator. Holds a borrowed program; all run state is local to
/// [`Emulator::run`], so one emulator can run many times.
///
/// ```
/// use ccr_ir::{Operand, ProgramBuilder};
/// use ccr_profile::{Emulator, NullCrb, NullSink};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut pb = ProgramBuilder::new();
/// let mut f = pb.function("main", 0, 1);
/// let x = f.movi(6);
/// let y = f.mul(x, 7);
/// f.ret(&[Operand::Reg(y)]);
/// let id = pb.finish_function(f);
/// pb.set_main(id);
/// let program = pb.finish();
///
/// let out = Emulator::new(&program).run(&mut NullCrb, &mut NullSink)?;
/// assert_eq!(out.returned[0].as_int(), 42);
/// assert_eq!(out.dyn_instrs, 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Emulator<'p> {
    program: &'p Program,
    config: EmuConfig,
    decoded: Arc<Decoded>,
}

impl<'p> Emulator<'p> {
    /// Creates an emulator with default limits.
    pub fn new(program: &'p Program) -> Emulator<'p> {
        Emulator::with_config(program, EmuConfig::default())
    }

    /// Creates an emulator with explicit limits.
    pub fn with_config(program: &'p Program, config: EmuConfig) -> Emulator<'p> {
        Emulator::with_decoded(program, config, Arc::new(Decoded::of(program)))
    }

    /// Creates an emulator that reads `decoded`, which must be
    /// `program`'s own table (e.g. from its [`ccr_ir::CodeLayout`]), so
    /// a simulation decodes the program once for the emulator and the
    /// timing model together.
    pub fn with_decoded(
        program: &'p Program,
        config: EmuConfig,
        decoded: Arc<Decoded>,
    ) -> Emulator<'p> {
        Emulator {
            program,
            config,
            decoded,
        }
    }

    /// The program being emulated.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// Runs the program from its entry function to completion.
    ///
    /// # Errors
    ///
    /// Returns [`EmuError`] if a configured limit is exceeded.
    pub fn run<C, S>(&self, crb: &mut C, sink: &mut S) -> Result<RunOutcome, EmuError>
    where
        C: CrbModel + ?Sized,
        S: TraceSink + ?Sized,
    {
        let mut run = self.start(sink);
        loop {
            // Tested in place: moving each step's result out of the
            // `Result` would copy the outcome's bytes on every dynamic
            // instruction.
            let step = run.step(crb, sink);
            if !matches!(step, Ok(None)) {
                return step.map(|out| out.expect("a stopped run has its outcome"));
            }
        }
    }

    /// Begins a resumable run: builds the initial architectural state
    /// and reports entry of `main` to the sink. Drive the returned
    /// [`EmuRun`] with [`EmuRun::step`].
    pub fn start<S: TraceSink + ?Sized>(&self, sink: &mut S) -> EmuRun<'p> {
        let program = self.program;
        let memory: Vec<Vec<Value>> = program
            .objects()
            .iter()
            .map(|o| o.initial_contents())
            .collect();
        let main = program.function(program.main());
        let stack = vec![Frame {
            func: main.id(),
            regs: vec![Value::ZERO; main.reg_limit().max(1) as usize],
            block: main.entry(),
            pos: 0,
            ret_regs: &[],
        }];
        sink.on_block_enter(main.id(), main.entry());
        EmuRun {
            program,
            decoded: Arc::clone(&self.decoded),
            config: self.config,
            memory,
            stack,
            dyn_instrs: 0,
            memo: None,
            skipped_instrs: 0,
            reuse_hits: 0,
            reuse_misses: 0,
            inputs_buf: Vec::with_capacity(4),
            regs_pool: Vec::new(),
            outputs_pool: Vec::new(),
        }
    }

    /// Rebuilds a mid-run state from a snapshot taken on an identical
    /// program. The sink is *not* replayed: the caller restores the
    /// sink's own state separately (that is the simulator snapshot's
    /// job), so resuming begins exactly at the next [`EmuRun::step`].
    ///
    /// # Errors
    ///
    /// Returns a one-line description when the snapshot is
    /// structurally inconsistent with the program — wrong object
    /// sizes, out-of-range functions/blocks/positions, a caller frame
    /// not suspended at a call to its callee, or an in-flight
    /// memoization whose region has no `reuse` instruction in its
    /// anchor frame's function or whose registers lie outside that
    /// function's registers.
    pub fn resume(&self, snap: &EmuSnapshot) -> Result<EmuRun<'p>, String> {
        let program = self.program;
        if snap.memory.len() != program.objects().len() {
            return Err(format!(
                "snapshot has {} memory objects, program has {}",
                snap.memory.len(),
                program.objects().len()
            ));
        }
        let mut memory: Vec<Vec<Value>> = Vec::with_capacity(snap.memory.len());
        for (i, words) in snap.memory.iter().enumerate() {
            let want = program.objects()[i].initial_contents().len();
            if words.len() != want {
                return Err(format!(
                    "memory object {i} has {} words, program wants {want}",
                    words.len()
                ));
            }
            memory.push(words.iter().map(|w| Value(*w as i64)).collect());
        }

        if snap.frames.is_empty() {
            return Err("snapshot has no call frames".to_string());
        }
        let mut stack: Vec<Frame<'p>> = Vec::with_capacity(snap.frames.len());
        for (i, fs) in snap.frames.iter().enumerate() {
            if fs.func as usize >= program.functions().len() {
                return Err(format!("frame {i}: function {} out of range", fs.func));
            }
            let func = program.function(FuncId(fs.func));
            if fs.block as usize >= func.iter_blocks().count() {
                return Err(format!("frame {i}: block {} out of range", fs.block));
            }
            let block = func.block(BlockId(fs.block));
            if fs.pos as usize >= block.instrs.len() {
                return Err(format!("frame {i}: position {} out of range", fs.pos));
            }
            if fs.regs.len() != func.reg_limit().max(1) as usize {
                return Err(format!(
                    "frame {i}: {} registers, function wants {}",
                    fs.regs.len(),
                    func.reg_limit().max(1)
                ));
            }
            // The caller's register list receiving our return values
            // is borrowed from the call instruction the caller is
            // suspended after (`pos` was advanced past the call before
            // this frame was pushed), re-borrowed here from the
            // program so the frame stays allocation-free.
            let ret_regs: &'p [Reg] = if i == 0 {
                &[]
            } else {
                let caller = &snap.frames[i - 1];
                let call_pos = (caller.pos as usize)
                    .checked_sub(1)
                    .ok_or_else(|| format!("frame {i}: caller is not past a call site"))?;
                let cb = program
                    .function(FuncId(caller.func))
                    .block(BlockId(caller.block));
                match &cb.instrs[call_pos].op {
                    Op::Call { callee, rets, .. } if *callee == FuncId(fs.func) => rets,
                    _ => {
                        return Err(format!(
                            "frame {i}: caller is not suspended at a call to function {}",
                            fs.func
                        ))
                    }
                }
            };
            stack.push(Frame {
                func: FuncId(fs.func),
                regs: fs.regs.iter().map(|w| Value(*w as i64)).collect(),
                block: BlockId(fs.block),
                pos: fs.pos as usize,
                ret_regs,
            });
        }

        let memo = match &snap.memo {
            None => None,
            Some(ms) => {
                if ms.depth as usize >= stack.len() {
                    return Err(format!(
                        "memoization depth {} exceeds stack depth {}",
                        ms.depth,
                        stack.len()
                    ));
                }
                // Recording starts at the region's `reuse` instruction
                // and reads and writes registers of that frame only.
                let anchor = program.function(stack[ms.depth as usize].func);
                let has_reuse = anchor.iter_instrs().any(
                    |(_, i)| matches!(i.op, Op::Reuse { region, .. } if region.0 == ms.region),
                );
                if !has_reuse {
                    return Err(format!(
                        "memoization region {} has no reuse instruction in {}",
                        ms.region,
                        anchor.name()
                    ));
                }
                let limit = anchor.reg_limit();
                let regs = ms.inputs.iter().map(|(r, _)| r);
                if let Some(r) = regs
                    .chain(&ms.outputs)
                    .chain(&ms.written)
                    .find(|r| **r >= limit)
                {
                    return Err(format!(
                        "memoization register r{r} is outside {}'s {limit} registers",
                        anchor.name()
                    ));
                }
                let mut m = MemoState::new(RegionId(ms.region));
                m.inputs = ms
                    .inputs
                    .iter()
                    .map(|(r, w)| (Reg(*r), Value(*w as i64)))
                    .collect();
                m.outputs = ms.outputs.iter().map(|r| Reg(*r)).collect();
                for r in &ms.written {
                    m.written.insert(Reg(*r));
                }
                m.accesses_memory = ms.accesses_memory;
                m.body_instrs = ms.body_instrs;
                Some((ms.depth as usize, m))
            }
        };

        Ok(EmuRun {
            program,
            decoded: Arc::clone(&self.decoded),
            config: self.config,
            memory,
            stack,
            dyn_instrs: snap.dyn_instrs,
            memo,
            skipped_instrs: snap.skipped_instrs,
            reuse_hits: snap.reuse_hits,
            reuse_misses: snap.reuse_misses,
            inputs_buf: Vec::with_capacity(4),
            regs_pool: Vec::new(),
            outputs_pool: Vec::new(),
        })
    }
}

/// An in-flight emulation: the loop state of [`Emulator::run`] made
/// resumable. Created by [`Emulator::start`] (cold) or
/// [`Emulator::resume`] (from an [`EmuSnapshot`]); advanced one
/// dynamic instruction at a time by [`EmuRun::step`], which lets a
/// driver interleave snapshotting and state fingerprinting at exact
/// instruction boundaries without a second semantics implementation.
#[derive(Debug)]
pub struct EmuRun<'p> {
    program: &'p Program,
    decoded: Arc<Decoded>,
    config: EmuConfig,
    memory: Vec<Vec<Value>>,
    stack: Vec<Frame<'p>>,
    dyn_instrs: u64,
    // Active memoization, anchored to the frame depth that executed
    // the reuse instruction.
    memo: Option<(usize, MemoState)>,
    skipped_instrs: u64,
    reuse_hits: u64,
    reuse_misses: u64,
    inputs_buf: Vec<Value>,
    // Register files of popped frames, recycled by later calls so the
    // call/ret hot path stops allocating. Scratch: not state.
    regs_pool: Vec<Vec<Value>>,
    // The output-register list of the last reuse hit's outcome, handed
    // back after the sink has seen it. Scratch: not state.
    outputs_pool: Vec<Reg>,
}

impl<'p> EmuRun<'p> {
    /// Dynamic instructions executed so far.
    pub fn dyn_instrs(&self) -> u64 {
        self.dyn_instrs
    }

    /// True once the entry function has returned.
    pub fn finished(&self) -> bool {
        self.stack.is_empty()
    }

    /// Captures the complete architectural state as plain data. The
    /// scratch pools (`inputs_buf`, `regs_pool`, `outputs_pool`) are
    /// excluded: their contents are dead between steps.
    pub fn snapshot(&self) -> EmuSnapshot {
        EmuSnapshot {
            memory: self
                .memory
                .iter()
                .map(|m| m.iter().map(|v| v.0 as u64).collect())
                .collect(),
            frames: self
                .stack
                .iter()
                .map(|f| EmuFrameSnapshot {
                    func: f.func.0,
                    block: f.block.0,
                    pos: f.pos as u64,
                    regs: f.regs.iter().map(|v| v.0 as u64).collect(),
                })
                .collect(),
            dyn_instrs: self.dyn_instrs,
            skipped_instrs: self.skipped_instrs,
            reuse_hits: self.reuse_hits,
            reuse_misses: self.reuse_misses,
            memo: self.memo.as_ref().map(|(depth, m)| EmuMemoSnapshot {
                depth: *depth as u64,
                region: m.region.0,
                inputs: m.inputs.iter().map(|(r, v)| (r.0, v.0 as u64)).collect(),
                outputs: m.outputs.iter().map(|r| r.0).collect(),
                written: m.written.iter().collect(),
                accesses_memory: m.accesses_memory,
                body_instrs: m.body_instrs,
            }),
        }
    }

    /// Folds every word of architectural state into `push`, in a
    /// deterministic order (the written set ascending). This is
    /// the emulator's contribution to the determinism fingerprint.
    pub fn fold_state(&self, push: &mut dyn FnMut(u64)) {
        push(self.dyn_instrs);
        push(self.skipped_instrs);
        push(self.reuse_hits);
        push(self.reuse_misses);
        push(self.memory.len() as u64);
        for obj in &self.memory {
            push(obj.len() as u64);
            for v in obj {
                push(v.0 as u64);
            }
        }
        push(self.stack.len() as u64);
        for f in &self.stack {
            push(u64::from(f.func.0));
            push(u64::from(f.block.0));
            push(f.pos as u64);
            push(f.regs.len() as u64);
            for v in &f.regs {
                push(v.0 as u64);
            }
        }
        match &self.memo {
            None => push(0),
            Some((depth, m)) => {
                push(1);
                push(*depth as u64);
                push(u64::from(m.region.0));
                push(m.inputs.len() as u64);
                for (r, v) in &m.inputs {
                    push(u64::from(r.0));
                    push(v.0 as u64);
                }
                push(m.outputs.len() as u64);
                for r in &m.outputs {
                    push(u64::from(r.0));
                }
                push(m.written.len() as u64);
                for r in m.written.iter() {
                    push(u64::from(r));
                }
                push(u64::from(m.accesses_memory));
                push(m.body_instrs);
            }
        }
    }

    /// Executes one dynamic instruction.
    ///
    /// Returns `Ok(None)` while the program has more work to do and
    /// `Ok(Some(outcome))` when the entry function returns.
    ///
    /// # Errors
    ///
    /// Returns [`EmuError`] if a configured limit is exceeded.
    ///
    /// # Panics
    ///
    /// Panics if called again after the program has returned.
    pub fn step<C, S>(&mut self, crb: &mut C, sink: &mut S) -> Result<Option<RunOutcome>, EmuError>
    where
        C: CrbModel + ?Sized,
        S: TraceSink + ?Sized,
    {
        let program = self.program;
        assert!(!self.stack.is_empty(), "step after the program returned");
        if self.dyn_instrs >= self.config.max_instrs {
            return Err(EmuError::StepLimit);
        }
        let depth = self.stack.len() - 1;
        let frame = self.stack.last_mut().expect("non-empty stack");
        let func = program.function(frame.func);
        let block = func.block(frame.block);
        let instr: &Instr = &block.instrs[frame.pos];
        let decoded = self.decoded.row(instr.id);
        self.dyn_instrs += 1;

        // Memoization: record inputs (used-before-defined in the
        // anchor frame) before the instruction executes. Deeper
        // frames have fresh registers and contribute no inputs,
        // only execution (counted for the skip total) and memory
        // accesses.
        let mut abort_memo = false;
        if let Some((mdepth, m)) = self.memo.as_mut() {
            m.body_instrs += 1;
            if depth == *mdepth {
                for r in decoded.srcs().iter().map(|s| s.reg) {
                    if m.written.contains(r) || m.inputs.iter().any(|(x, _)| *x == r) {
                        continue;
                    }
                    if m.inputs.len() >= crb.input_capacity() {
                        abort_memo = true;
                        break;
                    }
                    m.inputs.push((r, frame.regs[r.index()]));
                }
            }
            if instr.is_store() {
                abort_memo = true;
            }
        }
        if abort_memo {
            self.memo = None;
        }

        // Source operand values, in `src_operands` order, read as each
        // arm executes: up to two inline, or call arguments and return
        // values spilled to `inputs_buf`.
        let mut ops = [Value::ZERO; 2];
        let mut n_ops = 0;
        let mut spilled = false;
        let mut result: Option<Value> = None;
        let mut mem_access: Option<MemAccess> = None;
        let mut taken: Option<bool> = None;
        let mut reuse_outcome: Option<ReuseOutcome> = None;

        // Control transfer decided during execution. Call
        // arguments and return values live in `inputs_buf` (which
        // is untouched between execution and the transfer below),
        // and the destination register list is borrowed from the
        // instruction, so deciding a transfer allocates nothing.
        enum Ctl<'a> {
            Next,
            Goto(BlockId),
            Call { callee: FuncId, rets: &'a [Reg] },
            Ret,
        }
        let mut ctl = Ctl::Next;
        let read = |op: &Operand| match *op {
            Operand::Reg(r) => frame.regs[r.index()],
            Operand::Imm(v) => Value::from_int(v),
        };

        match &instr.op {
            Op::Binary {
                kind,
                dst,
                lhs,
                rhs,
            } => {
                ops = [read(lhs), read(rhs)];
                n_ops = 2;
                let v = eval_binary(*kind, ops[0], ops[1]);
                frame.regs[dst.index()] = v;
                result = Some(v);
            }
            Op::Unary { kind, dst, src } => {
                ops[0] = read(src);
                n_ops = 1;
                let v = eval_unary(*kind, ops[0]);
                frame.regs[dst.index()] = v;
                result = Some(v);
            }
            Op::Cmp {
                pred,
                dst,
                lhs,
                rhs,
            } => {
                ops = [read(lhs), read(rhs)];
                n_ops = 2;
                let v = Value::from_int(pred.eval(ops[0].as_int(), ops[1].as_int()) as i64);
                frame.regs[dst.index()] = v;
                result = Some(v);
            }
            Op::Load {
                dst,
                object,
                addr,
                offset,
            } => {
                ops[0] = read(addr);
                n_ops = 1;
                let data = &self.memory[object.index()];
                let idx = mask_index(ops[0].as_int() + offset, data.len());
                let v = data[idx as usize];
                frame.regs[dst.index()] = v;
                result = Some(v);
                mem_access = Some(MemAccess {
                    object: *object,
                    index: idx,
                    value: v,
                    is_store: false,
                });
                if let Some((_, m)) = self.memo.as_mut() {
                    m.accesses_memory = true;
                }
            }
            Op::Store {
                object,
                addr,
                offset,
                value,
            } => {
                ops = [read(addr), read(value)];
                n_ops = 2;
                let data = &mut self.memory[object.index()];
                let idx = mask_index(ops[0].as_int() + offset, data.len());
                data[idx as usize] = ops[1];
                mem_access = Some(MemAccess {
                    object: *object,
                    index: idx,
                    value: ops[1],
                    is_store: true,
                });
            }
            Op::Branch {
                pred,
                lhs,
                rhs,
                taken: t_blk,
                not_taken,
            } => {
                ops = [read(lhs), read(rhs)];
                n_ops = 2;
                let is_taken = pred.eval(ops[0].as_int(), ops[1].as_int());
                taken = Some(is_taken);
                ctl = Ctl::Goto(if is_taken { *t_blk } else { *not_taken });
            }
            Op::Jump { target } => {
                ctl = Ctl::Goto(*target);
            }
            Op::Call { callee, args, rets } => {
                self.inputs_buf.clear();
                self.inputs_buf.extend(args.iter().map(read));
                spilled = true;
                ctl = Ctl::Call {
                    callee: *callee,
                    rets,
                };
            }
            Op::Ret { values } => {
                self.inputs_buf.clear();
                self.inputs_buf.extend(values.iter().map(read));
                spilled = true;
                ctl = Ctl::Ret;
            }
            Op::Reuse { region, body, cont } => {
                // A reuse inside an active memoization aborts the
                // outer recording (regions do not nest).
                self.memo = None;
                let regs = &mut frame.regs;
                let lookup = crb.lookup(*region, &mut |r| regs[r.index()]);
                match lookup {
                    Some(hit) => {
                        self.reuse_hits += 1;
                        self.skipped_instrs += hit.skipped_instrs;
                        let mut outputs = std::mem::take(&mut self.outputs_pool);
                        outputs.clear();
                        for (r, v) in &hit.outputs {
                            frame.regs[r.index()] = *v;
                            outputs.push(*r);
                        }
                        reuse_outcome = Some(ReuseOutcome {
                            region: *region,
                            hit: true,
                            inputs: hit.inputs,
                            outputs,
                            skipped_instrs: hit.skipped_instrs,
                            miss_cause: None,
                        });
                        ctl = Ctl::Goto(*cont);
                    }
                    None => {
                        self.reuse_misses += 1;
                        self.memo = Some((depth, MemoState::new(*region)));
                        reuse_outcome = Some(ReuseOutcome {
                            region: *region,
                            hit: false,
                            inputs: Vec::new(),
                            outputs: Vec::new(),
                            skipped_instrs: 0,
                            miss_cause: crb.last_miss_cause(),
                        });
                        ctl = Ctl::Goto(*body);
                    }
                }
            }
            Op::Invalidate { region } => {
                crb.invalidate(*region);
            }
            Op::Nop => {}
        }

        // Memoization: record live-outs and handle region
        // endpoints after the instruction has executed — anchor
        // frame only.
        let mut overflow = false;
        if let Some((mdepth, m)) = self.memo.as_mut() {
            if depth == *mdepth && instr.ext.contains(ccr_ir::InstrExt::LIVE_OUT) {
                for &dst in decoded.dsts() {
                    if m.outputs.contains(&dst) {
                        continue;
                    }
                    if m.outputs.len() >= crb.output_capacity() {
                        overflow = true;
                    } else {
                        m.outputs.push(dst);
                    }
                }
            }
        }
        if overflow {
            self.memo = None;
        }
        if let Some((mdepth, m)) = self.memo.as_mut() {
            if depth == *mdepth {
                for &dst in decoded.dsts() {
                    m.written.insert(dst);
                }
                if instr.ext.contains(ccr_ir::InstrExt::REGION_END) {
                    let (_, done) = self.memo.take().expect("memo present");
                    // Output values are read at the endpoint, when
                    // every write (including a wrapped callee's
                    // return values) has landed.
                    let regs = &frame.regs;
                    crb.record(done.region, done.into_instance(|r| regs[r.index()]));
                } else if instr.ext.contains(ccr_ir::InstrExt::REGION_EXIT) {
                    self.memo = None;
                }
            }
        }

        // Report the event.
        let event = ExecEvent {
            func: frame.func,
            block: frame.block,
            instr,
            decoded,
            inputs: if spilled {
                &self.inputs_buf
            } else {
                &ops[..n_ops]
            },
            result,
            mem: mem_access,
            taken,
            reuse: reuse_outcome.as_ref(),
            depth,
        };
        sink.on_exec(&event);
        if let Some(outcome) = reuse_outcome {
            if outcome.hit {
                self.outputs_pool = outcome.outputs;
            }
        }

        // Perform the control transfer.
        match ctl {
            Ctl::Next => {
                frame.pos += 1;
            }
            Ctl::Goto(target) => {
                frame.block = target;
                frame.pos = 0;
                let fid = frame.func;
                sink.on_block_enter(fid, target);
            }
            Ctl::Call { callee, rets } => {
                frame.pos += 1; // resume after the call
                if self.stack.len() >= self.config.max_depth {
                    return Err(EmuError::StackOverflow);
                }
                let caller_id = self.stack.last().expect("frame").func;
                let target = program.function(callee);
                // The call arguments are still in `inputs_buf`.
                let mut regs = self.regs_pool.pop().unwrap_or_default();
                regs.clear();
                regs.resize(target.reg_limit().max(1) as usize, Value::ZERO);
                regs[..self.inputs_buf.len()].copy_from_slice(&self.inputs_buf);
                self.stack.push(Frame {
                    func: callee,
                    regs,
                    block: target.entry(),
                    pos: 0,
                    ret_regs: rets,
                });
                sink.on_call(caller_id, callee);
                sink.on_block_enter(callee, target.entry());
            }
            Ctl::Ret => {
                // Returning out of (or past) the anchor frame
                // makes the recording meaningless.
                if self
                    .memo
                    .as_ref()
                    .is_some_and(|(mdepth, _)| depth <= *mdepth)
                {
                    self.memo = None;
                }
                // The returned values are still in `inputs_buf`.
                let done = self.stack.pop().expect("frame");
                sink.on_ret(done.func);
                match self.stack.last_mut() {
                    None => {
                        return Ok(Some(RunOutcome {
                            returned: std::mem::take(&mut self.inputs_buf),
                            dyn_instrs: self.dyn_instrs,
                            skipped_instrs: self.skipped_instrs,
                            reuse_hits: self.reuse_hits,
                            reuse_misses: self.reuse_misses,
                            memory_digest: memory_digest(&self.memory),
                        }));
                    }
                    Some(caller) => {
                        for (r, v) in done.ret_regs.iter().zip(self.inputs_buf.iter()) {
                            caller.regs[r.index()] = *v;
                        }
                        self.regs_pool.push(done.regs);
                    }
                }
            }
        }
        Ok(None)
    }
}

/// Complete architectural state of an [`EmuRun`] as plain integers
/// (each [`Value`] is its `u64` bit pattern), so a snapshot can be
/// serialized without touching `ccr-ir` types. Produced by
/// [`EmuRun::snapshot`], consumed by [`Emulator::resume`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EmuSnapshot {
    /// Per-object memory contents.
    pub memory: Vec<Vec<u64>>,
    /// Call stack, outermost (entry function) first.
    pub frames: Vec<EmuFrameSnapshot>,
    /// Dynamic instructions executed so far.
    pub dyn_instrs: u64,
    /// Dynamic instructions skipped by reuse hits so far.
    pub skipped_instrs: u64,
    /// Reuse-instruction hits so far.
    pub reuse_hits: u64,
    /// Reuse-instruction misses so far.
    pub reuse_misses: u64,
    /// Active memoization, if a region recording is in flight.
    pub memo: Option<EmuMemoSnapshot>,
}

/// One suspended call frame of an [`EmuSnapshot`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EmuFrameSnapshot {
    /// Function index.
    pub func: u32,
    /// Current block index.
    pub block: u32,
    /// Next instruction position within the block.
    pub pos: u64,
    /// Register file (bit patterns).
    pub regs: Vec<u64>,
}

/// In-flight region memoization of an [`EmuSnapshot`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EmuMemoSnapshot {
    /// Anchor frame depth (index into the stack).
    pub depth: u64,
    /// Region being recorded.
    pub region: u32,
    /// Input bank: `(register, value bit pattern)` in record order.
    pub inputs: Vec<(u32, u64)>,
    /// Output bank registers in record order.
    pub outputs: Vec<u32>,
    /// Registers written since inception, sorted.
    pub written: Vec<u32>,
    /// Whether the body loaded from memory.
    pub accesses_memory: bool,
    /// Body instructions executed so far.
    pub body_instrs: u64,
}

// The wire shapes of a finished run's outcome and of an emulator
// snapshot (the `emu` section of a simulator snapshot).
record!(Strict RunOutcome {
    returned: RegValues, dyn_instrs, skipped_instrs, reuse_hits, reuse_misses, memory_digest,
});
record!(Strict EmuSnapshot {
    dyn_instrs, skipped_instrs, reuse_hits, reuse_misses, memory, frames, memo,
});
record!(Strict EmuFrameSnapshot { func, block, pos, regs });
record!(Strict EmuMemoSnapshot {
    depth, region, inputs: Pairs, outputs, written, accesses_memory, body_instrs,
});

/// A bank of register values, each as the signed integer it holds.
struct RegValues(i64);

impl Codec<Vec<Value>> for RegValues {
    fn put(values: &Vec<Value>, key: &str, w: &mut JsonWriter) {
        let ints: Vec<RegValues> = values.iter().map(|v| RegValues(v.0)).collect();
        Strict::put(&ints, key, w);
    }
    fn get(v: &value::Value, key: &str, ctx: &str) -> Result<Vec<Value>, String> {
        let ints: Vec<RegValues> = Strict::get(v, key, ctx)?;
        Ok(ints.into_iter().map(|RegValues(n)| Value(n)).collect())
    }
}

impl Wire for RegValues {
    fn put(&self, w: &mut JsonWriter) {
        w.i64_val(self.0);
    }
    fn get(v: &value::Value, key: &str, ctx: &str) -> Result<RegValues, String> {
        match *v {
            value::Value::U64(n) => i64::try_from(n)
                .map(RegValues)
                .map_err(|_| format!("{ctx}: `{key}` value out of i64 range")),
            value::Value::I64(n) => Ok(RegValues(n)),
            _ => Err(record::not_a("an integer", key, ctx)),
        }
    }
}

/// A bank of `(register, value bit pattern)` pairs as one flat array
/// (the memoization's input bank here, and the reuse buffer's banks in
/// `ccr-sim`).
pub struct Pairs;

impl Codec<Vec<(u32, u64)>> for Pairs {
    fn put(pairs: &Vec<(u32, u64)>, key: &str, w: &mut JsonWriter) {
        w.key(key).arr_begin();
        for &(r, x) in pairs {
            w.u64_val(u64::from(r)).u64_val(x);
        }
        w.arr_end();
    }
    fn get(v: &value::Value, key: &str, ctx: &str) -> Result<Vec<(u32, u64)>, String> {
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

/// Masks a raw element index into the object's bounds. Negative and
/// out-of-range indices wrap (the emulator is total: no trap).
fn mask_index(raw: i64, size: usize) -> u64 {
    debug_assert!(size > 0, "zero-sized object");
    raw.rem_euclid(size as i64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crb::{NullCrb, ReuseLookup};
    use crate::trace::NullSink;
    use ccr_ir::{BinKind, CmpPred, InstrExt, ProgramBuilder, UnKind};

    fn run_main(p: &Program) -> RunOutcome {
        Emulator::new(p).run(&mut NullCrb, &mut NullSink).unwrap()
    }

    #[test]
    fn arithmetic_and_return() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0, 1);
        let a = f.movi(7);
        let b = f.mul(a, 6);
        let c = f.sub(b, 2);
        f.ret(&[Operand::Reg(c)]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        let p = pb.finish();
        let out = run_main(&p);
        assert_eq!(out.returned, vec![Value::from_int(40)]);
        assert_eq!(out.dyn_instrs, 4);
    }

    #[test]
    fn division_by_zero_yields_zero() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0, 2);
        let d = f.div(5, 0);
        let r = f.rem(5, 0);
        f.ret(&[Operand::Reg(d), Operand::Reg(r)]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        let out = run_main(&pb.finish());
        assert_eq!(out.returned, vec![Value::ZERO, Value::ZERO]);
    }

    #[test]
    fn loop_sums_table() {
        let mut pb = ProgramBuilder::new();
        let t = pb.table("t", vec![3, 1, 4, 1, 5]);
        let mut f = pb.function("main", 0, 1);
        let sum = f.movi(0);
        let i = f.movi(0);
        let body = f.block();
        let done = f.block();
        f.jump(body);
        f.switch_to(body);
        let v = f.load(t, i);
        f.bin_into(BinKind::Add, sum, sum, v);
        f.inc(i, 1);
        f.br(CmpPred::Lt, i, 5, body, done);
        f.switch_to(done);
        f.ret(&[Operand::Reg(sum)]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        let out = run_main(&pb.finish());
        assert_eq!(out.returned, vec![Value::from_int(14)]);
    }

    #[test]
    fn store_then_load_roundtrip() {
        let mut pb = ProgramBuilder::new();
        let o = pb.object("o", 4);
        let mut f = pb.function("main", 0, 1);
        f.store(o, 2, 99);
        let v = f.load(o, 2);
        f.ret(&[Operand::Reg(v)]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        let out = run_main(&pb.finish());
        assert_eq!(out.returned, vec![Value::from_int(99)]);
    }

    #[test]
    fn negative_index_wraps() {
        let mut pb = ProgramBuilder::new();
        let o = pb.table("o", vec![10, 20, 30, 40]);
        let mut f = pb.function("main", 0, 1);
        let v = f.load(o, -1); // wraps to index 3
        f.ret(&[Operand::Reg(v)]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        let out = run_main(&pb.finish());
        assert_eq!(out.returned, vec![Value::from_int(40)]);
    }

    #[test]
    fn calls_pass_args_and_return_values() {
        let mut pb = ProgramBuilder::new();
        let g = pb.declare("addmul", 2, 2);
        let mut gb = pb.function_body(g);
        let (x, y) = (gb.param(0), gb.param(1));
        let s = gb.add(x, y);
        let m = gb.mul(x, y);
        gb.ret(&[Operand::Reg(s), Operand::Reg(m)]);
        pb.finish_function(gb);
        let mut f = pb.function("main", 0, 1);
        let rs = f.call(g, &[Operand::Imm(3), Operand::Imm(4)], 2);
        let total = f.add(rs[0], rs[1]);
        f.ret(&[Operand::Reg(total)]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        let out = run_main(&pb.finish());
        assert_eq!(out.returned, vec![Value::from_int(19)]);
    }

    #[test]
    fn step_limit_stops_infinite_loop() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0, 0);
        let spin = f.block();
        f.jump(spin);
        f.switch_to(spin);
        f.jump(spin);
        let id = pb.finish_function(f);
        pb.set_main(id);
        let p = pb.finish();
        let emu = Emulator::with_config(
            &p,
            EmuConfig {
                max_instrs: 1000,
                max_depth: 16,
            },
        );
        assert_eq!(
            emu.run(&mut NullCrb, &mut NullSink).unwrap_err(),
            EmuError::StepLimit
        );
    }

    #[test]
    fn recursion_limit_stops_runaway() {
        let mut pb = ProgramBuilder::new();
        let g = pb.declare("g", 0, 0);
        let mut gb = pb.function_body(g);
        let _ = gb.call(g, &[], 0);
        gb.ret(&[]);
        pb.finish_function(gb);
        let mut f = pb.function("main", 0, 0);
        let _ = f.call(g, &[], 0);
        f.ret(&[]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        let p = pb.finish();
        let emu = Emulator::with_config(
            &p,
            EmuConfig {
                max_instrs: 1_000_000,
                max_depth: 64,
            },
        );
        assert_eq!(
            emu.run(&mut NullCrb, &mut NullSink).unwrap_err(),
            EmuError::StackOverflow
        );
    }

    #[test]
    fn float_ops_roundtrip() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0, 1);
        let two = f.movi(2);
        let fx = f.un(UnKind::IntToFloat, two);
        let half = f.bin(BinKind::FDiv, fx, Operand::Imm(Value::from_f64(4.0).0));
        let i = f.un(UnKind::FloatToInt, half); // 0.5 -> 0
        f.ret(&[Operand::Reg(i)]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        let out = run_main(&pb.finish());
        assert_eq!(out.returned, vec![Value::ZERO]);
    }

    /// Checks every event's `inputs` against its instruction's source
    /// operands: same count, and immediates carried through as values.
    struct InputsCheck {
        events: usize,
    }

    impl TraceSink for InputsCheck {
        fn on_exec(&mut self, e: &ExecEvent<'_>) {
            let ops = e.instr.src_operands();
            assert_eq!(e.inputs.len(), ops.len(), "{:?}", e.instr.op);
            for (op, v) in ops.iter().zip(e.inputs) {
                if let Operand::Imm(imm) = op {
                    assert_eq!(*v, Value::from_int(*imm), "{:?}", e.instr.op);
                }
            }
            self.events += 1;
        }
    }

    #[test]
    fn event_inputs_follow_source_operands() {
        let mut pb = ProgramBuilder::new();
        let o = pb.object("o", 4);
        let g = pb.declare("addmul", 2, 2);
        let mut gb = pb.function_body(g);
        let (x, y) = (gb.param(0), gb.param(1));
        let s = gb.add(x, y);
        let m = gb.mul(x, 5);
        gb.ret(&[Operand::Reg(s), Operand::Reg(m)]);
        pb.finish_function(gb);
        let mut f = pb.function("main", 0, 1);
        let rs = f.call(g, &[Operand::Imm(3), Operand::Imm(4)], 2);
        f.store(o, 1, rs[0]);
        let v = f.load(o, 1);
        let n = f.un(UnKind::Neg, v);
        let done = f.block();
        f.br(CmpPred::Lt, n, 0, done, done);
        f.switch_to(done);
        f.ret(&[Operand::Reg(n), Operand::Imm(-2)]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        let p = pb.finish();
        let mut check = InputsCheck { events: 0 };
        let out = Emulator::new(&p).run(&mut NullCrb, &mut check).unwrap();
        assert_eq!(out.returned, vec![Value::from_int(-7), Value::from_int(-2)]);
        assert_eq!(check.events as u64, out.dyn_instrs);
    }

    /// A scripted CRB: always misses first, records, then replays
    /// recorded instances exactly (single entry, unlimited instances).
    #[derive(Default)]
    struct ScriptCrb {
        instances: Vec<(RegionId, RecordedInstance)>,
        invalidated: Vec<RegionId>,
        records: usize,
    }

    impl CrbModel for ScriptCrb {
        fn lookup(
            &mut self,
            region: RegionId,
            read_reg: &mut dyn FnMut(Reg) -> Value,
        ) -> Option<ReuseLookup> {
            for (r, inst) in &self.instances {
                if *r != region {
                    continue;
                }
                if inst.accesses_memory && self.invalidated.contains(&region) {
                    continue;
                }
                if inst.inputs.iter().all(|(reg, v)| read_reg(*reg) == *v) {
                    return Some(ReuseLookup {
                        outputs: inst.outputs.clone(),
                        inputs: inst.inputs.iter().map(|(r, _)| *r).collect(),
                        skipped_instrs: inst.body_instrs,
                    });
                }
            }
            None
        }

        fn record(&mut self, region: RegionId, instance: RecordedInstance) {
            self.records += 1;
            self.instances.push((region, instance));
        }

        fn invalidate(&mut self, region: RegionId) {
            self.invalidated.push(region);
        }
    }

    /// Builds: main calls region-annotated `square-ish` computation
    /// twice with the same input; the second call must reuse.
    ///
    /// Layout (single function):
    ///   b0: x = 17; jump b1
    ///   b1: reuse rcr0 body=b2 cont=b3
    ///   b2: y = x*x (live-out); t = y+1 (live-out); jump b3 (region_end)
    ///   b3: ... second round or return
    fn reuse_program(runs: i64) -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0, 2);
        let x = f.movi(17);
        let count = f.movi(0);
        let acc = f.movi(0);
        let y = f.fresh();
        let t = f.fresh();
        let reuse_blk = f.block();
        let body = f.block();
        let cont = f.block();
        let done = f.block();
        f.jump(reuse_blk);
        f.switch_to(reuse_blk);
        // The reuse terminator is patched in below.
        f.jump(body);
        f.switch_to(body);
        f.bin_into(BinKind::Mul, y, x, x);
        f.bin_into(BinKind::Add, t, y, 1);
        f.jump(cont);
        f.switch_to(cont);
        f.bin_into(BinKind::Add, acc, acc, t);
        f.inc(count, 1);
        f.br(CmpPred::Lt, count, runs, reuse_blk, done);
        f.switch_to(done);
        f.ret(&[Operand::Reg(acc), Operand::Reg(y)]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        let mut p = pb.finish();
        let region = p.fresh_region_id();
        // Patch: reuse terminator, live-out marks, region end.
        let func = p.function_mut(id);
        let reuse_blk = BlockId(1);
        let body = BlockId(2);
        let cont = BlockId(3);
        func.block_mut(reuse_blk).instrs[0].op = Op::Reuse { region, body, cont };
        func.block_mut(body).instrs[0].ext = InstrExt::LIVE_OUT;
        func.block_mut(body).instrs[1].ext = InstrExt::LIVE_OUT;
        func.block_mut(body).instrs[2].ext = InstrExt::REGION_END;
        ccr_ir::verify_program(&p).unwrap();
        p
    }

    #[test]
    fn reuse_miss_records_then_hit_replays() {
        let p = reuse_program(3);
        let mut crb = ScriptCrb::default();
        let out = Emulator::new(&p).run(&mut crb, &mut NullSink).unwrap();
        // First iteration misses and records; the two others hit.
        assert_eq!(out.reuse_misses, 1);
        assert_eq!(out.reuse_hits, 2);
        assert_eq!(crb.records, 1);
        // acc = 3 * (17*17+1) = 870; y live-out = 289 even on hits.
        assert_eq!(out.returned[0], Value::from_int(870));
        assert_eq!(out.returned[1], Value::from_int(289));
        // Each hit skips the 3-instruction body.
        assert_eq!(out.skipped_instrs, 6);
        // Recorded instance: input bank = {x}, outputs = {y, t}.
        let inst = &crb.instances[0].1;
        assert_eq!(inst.inputs.len(), 1);
        assert_eq!(inst.inputs[0].1, Value::from_int(17));
        assert_eq!(inst.outputs.len(), 2);
        assert!(!inst.accesses_memory);
        assert_eq!(inst.body_instrs, 3);
    }

    #[test]
    fn reuse_with_null_crb_equals_plain_execution() {
        let p = reuse_program(3);
        let out = Emulator::new(&p).run(&mut NullCrb, &mut NullSink).unwrap();
        assert_eq!(out.returned[0], Value::from_int(870));
        assert_eq!(out.reuse_hits, 0);
        assert_eq!(out.reuse_misses, 3);
        assert_eq!(out.skipped_instrs, 0);
    }

    #[test]
    fn memoization_aborts_on_store() {
        // Region body contains a store: the emulator must refuse to
        // record an instance.
        let mut pb = ProgramBuilder::new();
        let o = pb.object("o", 2);
        let mut f = pb.function("main", 0, 0);
        let body = f.block();
        let cont = f.block();
        f.jump(body); // patched to reuse
        f.switch_to(body);
        f.store(o, 0, 1);
        f.jump(cont);
        f.switch_to(cont);
        f.ret(&[]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        let mut p = pb.finish();
        let region = p.fresh_region_id();
        let func = p.function_mut(id);
        func.block_mut(BlockId(0)).instrs[0].op = Op::Reuse {
            region,
            body: BlockId(1),
            cont: BlockId(2),
        };
        func.block_mut(BlockId(1)).instrs[1].ext = InstrExt::REGION_END;
        let mut crb = ScriptCrb::default();
        Emulator::new(&p).run(&mut crb, &mut NullSink).unwrap();
        assert_eq!(crb.records, 0, "store inside region must abort recording");
    }

    #[test]
    fn region_exit_aborts_recording() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0, 0);
        let body = f.block();
        let exit_path = f.block();
        let cont = f.block();
        f.jump(body); // patched to reuse
        f.switch_to(body);
        f.br(CmpPred::Eq, 0, 0, exit_path, cont); // always exits
        f.switch_to(exit_path);
        f.ret(&[]);
        f.switch_to(cont);
        f.ret(&[]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        let mut p = pb.finish();
        let region = p.fresh_region_id();
        let func = p.function_mut(id);
        func.block_mut(BlockId(0)).instrs[0].op = Op::Reuse {
            region,
            body: BlockId(1),
            cont: BlockId(3),
        };
        func.block_mut(BlockId(1)).instrs[0].ext = InstrExt::REGION_EXIT;
        let mut crb = ScriptCrb::default();
        Emulator::new(&p).run(&mut crb, &mut NullSink).unwrap();
        assert_eq!(crb.records, 0);
    }

    #[test]
    fn snapshot_resume_reproduces_the_run_at_every_step() {
        // Drive the reuse program to every intermediate instruction,
        // snapshot, resume, and finish: the outcome must be identical
        // to the uninterrupted run — including steps taken mid-way
        // through a memoization recording and inside callee frames.
        let p = reuse_program(3);
        let emu = Emulator::new(&p);
        let mut crb = ScriptCrb::default();
        let cold = emu.run(&mut crb, &mut NullSink).unwrap();
        for k in 0..cold.dyn_instrs {
            let mut crb = ScriptCrb::default();
            let mut run = emu.start(&mut NullSink);
            for _ in 0..k {
                assert!(run.step(&mut crb, &mut NullSink).unwrap().is_none());
            }
            let snap = run.snapshot();
            // The snapshot round-trips through resume exactly.
            let mut resumed = emu.resume(&snap).unwrap();
            assert_eq!(resumed.snapshot(), snap);
            let out = loop {
                if let Some(o) = resumed.step(&mut crb, &mut NullSink).unwrap() {
                    break o;
                }
            };
            assert_eq!(out, cold, "divergence after resuming at step {k}");
        }
    }

    #[test]
    fn resume_rejects_inconsistent_snapshots() {
        let p = reuse_program(1);
        let emu = Emulator::new(&p);
        let mut run = emu.start(&mut NullSink);
        let mut crb = ScriptCrb::default();
        for _ in 0..5 {
            run.step(&mut crb, &mut NullSink).unwrap();
        }
        let snap = run.snapshot();

        let mut bad = snap.clone();
        bad.frames[0].block = 999;
        assert!(emu.resume(&bad).unwrap_err().contains("block 999"));

        let mut bad = snap.clone();
        bad.frames[0].pos = 10_000;
        assert!(emu.resume(&bad).unwrap_err().contains("position"));

        let mut bad = snap.clone();
        bad.frames.clear();
        assert!(emu.resume(&bad).unwrap_err().contains("no call frames"));

        let mut bad = snap;
        bad.memory.push(vec![0]);
        assert!(emu.resume(&bad).unwrap_err().contains("memory objects"));
    }

    #[test]
    fn invalidate_blocks_memory_dependent_reuse() {
        // Region loads from a table; after recording, an invalidate
        // plus a store changes the table; reuse must miss and
        // re-execute, observing the new value.
        let mut pb = ProgramBuilder::new();
        let o = pb.object("o", 1);
        let mut f = pb.function("main", 0, 1);
        let acc = f.movi(0);
        let count = f.movi(0);
        let v = f.fresh();
        let reuse_blk = f.block();
        let body = f.block();
        let cont = f.block();
        let done = f.block();
        f.store(o, 0, 5);
        f.jump(reuse_blk);
        f.switch_to(reuse_blk);
        f.jump(body); // patched
        f.switch_to(body);
        f.load_into(v, o, 0, 0);
        f.jump(cont);
        f.switch_to(cont);
        f.bin_into(BinKind::Add, acc, acc, v);
        // After the first round, rewrite the table and invalidate.
        f.store(o, 0, 11);
        f.nop(); // patched to invalidate
        f.inc(count, 1);
        f.br(CmpPred::Lt, count, 2, reuse_blk, done);
        f.switch_to(done);
        f.ret(&[Operand::Reg(acc)]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        let mut p = pb.finish();
        let region = p.fresh_region_id();
        let func = p.function_mut(id);
        func.block_mut(BlockId(1)).instrs[0].op = Op::Reuse {
            region,
            body: BlockId(2),
            cont: BlockId(3),
        };
        func.block_mut(BlockId(2)).instrs[0].ext = InstrExt::LIVE_OUT;
        func.block_mut(BlockId(2)).instrs[1].ext = InstrExt::REGION_END;
        // Replace the nop with invalidate.
        let nop_pos = 2;
        func.block_mut(BlockId(3)).instrs[nop_pos].op = Op::Invalidate { region };
        let mut crb = ScriptCrb::default();
        let out = Emulator::new(&p).run(&mut crb, &mut NullSink).unwrap();
        // acc = 5 (first round) + 11 (second round, reuse invalidated).
        assert_eq!(out.returned[0], Value::from_int(16));
        assert_eq!(out.reuse_hits, 0);
        assert_eq!(out.reuse_misses, 2);
    }
}
