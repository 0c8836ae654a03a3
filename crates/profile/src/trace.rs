//! The dynamic instruction trace.
//!
//! The emulator executes one instruction at a time and reports each to
//! a [`TraceSink`]. Profilers, the limit study, and the cycle-level
//! timing model are all sinks; the emulator does not know or care
//! which are attached.

use ccr_ir::{BlockId, DecodedInstr, FuncId, Instr, MemObjectId, Reg, RegionId, Value};

use crate::crb::MissCause;

/// A memory access performed by a load or store.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MemAccess {
    /// Object accessed.
    pub object: MemObjectId,
    /// Element index within the object (after masking).
    pub index: u64,
    /// Value loaded or stored.
    pub value: Value,
    /// True for stores.
    pub is_store: bool,
}

/// Outcome of a `reuse` instruction.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ReuseOutcome {
    /// The region consulted.
    pub region: RegionId,
    /// True if a recorded computation instance matched and the region
    /// body was skipped.
    pub hit: bool,
    /// Input registers compared during validation (the instance's
    /// input bank on a hit; the entry's summary set on a miss).
    pub inputs: Vec<Reg>,
    /// Live-out registers updated from the output bank (hits only).
    pub outputs: Vec<Reg>,
    /// Dynamic instructions skipped by this hit (as measured when the
    /// matched instance was recorded).
    pub skipped_instrs: u64,
    /// Why the lookup missed (misses only, and only when the CRB model
    /// classifies misses — see [`crate::crb::MissCause`]).
    pub miss_cause: Option<MissCause>,
}

/// One executed instruction, as reported to sinks.
#[derive(Clone, Debug)]
pub struct ExecEvent<'a> {
    /// Function containing the instruction.
    pub func: FuncId,
    /// Block containing the instruction.
    pub block: BlockId,
    /// The instruction itself.
    pub instr: &'a Instr,
    /// Its row in the program's decoded table: code address, class,
    /// latency and register lists, worked out once per program.
    pub decoded: &'a DecodedInstr,
    /// Values of the instruction's source operands, in
    /// [`Instr::src_operands`] order.
    pub inputs: &'a [Value],
    /// Result value written to the destination register, if any.
    pub result: Option<Value>,
    /// Memory access, for loads and stores.
    pub mem: Option<MemAccess>,
    /// For branches: whether the branch was taken.
    pub taken: Option<bool>,
    /// For `reuse` instructions: the lookup outcome.
    pub reuse: Option<&'a ReuseOutcome>,
    /// Call-stack depth at execution time (main = 0).
    pub depth: usize,
}

/// Observer of the dynamic instruction stream.
///
/// All methods have empty default implementations, so a sink overrides
/// only what it needs.
pub trait TraceSink {
    /// Called for every executed instruction.
    fn on_exec(&mut self, event: &ExecEvent<'_>) {
        let _ = event;
    }

    /// Called when control enters a block (including the entry block
    /// of a function and re-entry via back edges).
    fn on_block_enter(&mut self, func: FuncId, block: BlockId) {
        let _ = (func, block);
    }

    /// Called after a call instruction transfers control to the callee.
    fn on_call(&mut self, caller: FuncId, callee: FuncId) {
        let _ = (caller, callee);
    }

    /// Called when a function returns to its caller.
    fn on_ret(&mut self, from: FuncId) {
        let _ = from;
    }
}

/// A sink that discards all events.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {}

/// Fans events out to two sinks. Nest `MultiSink`s for more.
pub struct MultiSink<'a, 'b> {
    first: &'a mut dyn TraceSink,
    second: &'b mut dyn TraceSink,
}

impl<'a, 'b> MultiSink<'a, 'b> {
    /// Combines two sinks.
    pub fn new(first: &'a mut dyn TraceSink, second: &'b mut dyn TraceSink) -> Self {
        MultiSink { first, second }
    }
}

impl TraceSink for MultiSink<'_, '_> {
    fn on_exec(&mut self, event: &ExecEvent<'_>) {
        self.first.on_exec(event);
        self.second.on_exec(event);
    }

    fn on_block_enter(&mut self, func: FuncId, block: BlockId) {
        self.first.on_block_enter(func, block);
        self.second.on_block_enter(func, block);
    }

    fn on_call(&mut self, caller: FuncId, callee: FuncId) {
        self.first.on_call(caller, callee);
        self.second.on_call(caller, callee);
    }

    fn on_ret(&mut self, from: FuncId) {
        self.first.on_ret(from);
        self.second.on_ret(from);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccr_ir::{Decoded, ProgramBuilder};

    #[derive(Default)]
    struct Counter {
        execs: usize,
        blocks: usize,
        calls: usize,
        rets: usize,
    }

    impl TraceSink for Counter {
        fn on_exec(&mut self, _: &ExecEvent<'_>) {
            self.execs += 1;
        }
        fn on_block_enter(&mut self, _: FuncId, _: BlockId) {
            self.blocks += 1;
        }
        fn on_call(&mut self, _: FuncId, _: FuncId) {
            self.calls += 1;
        }
        fn on_ret(&mut self, _: FuncId) {
            self.rets += 1;
        }
    }

    #[test]
    fn multi_sink_fans_out() {
        let mut a = Counter::default();
        let mut b = Counter::default();
        {
            let mut m = MultiSink::new(&mut a, &mut b);
            let mut pb = ProgramBuilder::new();
            let mut f = pb.function("main", 0, 0);
            f.ret(&[]);
            let id = pb.finish_function(f);
            pb.set_main(id);
            let p = pb.finish();
            let decoded = Decoded::of(&p);
            let (_, instr) = p.iter_instrs().next().unwrap();
            let ev = ExecEvent {
                func: FuncId(0),
                block: BlockId(0),
                instr,
                decoded: decoded.row(instr.id),
                inputs: &[],
                result: None,
                mem: None,
                taken: None,
                reuse: None,
                depth: 0,
            };
            m.on_exec(&ev);
            m.on_block_enter(FuncId(0), BlockId(0));
            m.on_call(FuncId(0), FuncId(1));
            m.on_ret(FuncId(1));
        }
        for c in [&a, &b] {
            assert_eq!(c.execs, 1);
            assert_eq!(c.blocks, 1);
            assert_eq!(c.calls, 1);
            assert_eq!(c.rets, 1);
        }
    }

    #[test]
    fn null_sink_accepts_everything() {
        let mut s = NullSink;
        s.on_block_enter(FuncId(0), BlockId(0));
        s.on_call(FuncId(0), FuncId(0));
        s.on_ret(FuncId(0));
    }
}
