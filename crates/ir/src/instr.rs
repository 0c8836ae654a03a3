//! Instructions, opcodes, and the CCR instruction-set extensions.

use std::fmt;

use crate::block::BlockId;
use crate::function::FuncId;
use crate::object::MemObjectId;
use crate::reg::{Operand, Reg};

/// Program-wide unique instruction identifier.
///
/// Identifiers are assigned by the builder and remain stable across
/// later transformations (region annotation inserts new instructions
/// with fresh ids but never renumbers existing ones), so profile data
/// keyed by `InstrId` survives the annotation pass.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct InstrId(pub u32);

impl InstrId {
    /// Raw index of the identifier.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for InstrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

/// Identifier of a reusable computation region.
///
/// The compiler assigns each RCR a number; the `reuse` instruction
/// carries it and the Computation Reuse Buffer is indexed by it
/// ("the CRB is a set-associative structure indexed by an identifier
/// number which is specified by the proposed ISA extensions").
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RegionId(pub u32);

impl RegionId {
    /// Raw index of the identifier.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rcr{}", self.0)
    }
}

/// Two-operand integer / floating-point operation kinds.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinKind {
    /// Integer addition (wrapping).
    Add,
    /// Integer subtraction (wrapping).
    Sub,
    /// Integer multiplication (wrapping).
    Mul,
    /// Signed integer division; division by zero yields zero (the
    /// emulator defines this rather than faulting).
    Div,
    /// Signed remainder; remainder by zero yields zero.
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise exclusive-or.
    Xor,
    /// Shift left (shift amount taken modulo 64).
    Shl,
    /// Logical shift right (shift amount taken modulo 64).
    Shr,
    /// Arithmetic shift right (shift amount taken modulo 64).
    Sar,
    /// Signed minimum.
    Min,
    /// Signed maximum.
    Max,
    /// Comparison producing 0 or 1 (see [`CmpPred`]); encoded with the
    /// predicate in [`Op::Cmp`], not here.
    /// Floating-point addition.
    FAdd,
    /// Floating-point subtraction.
    FSub,
    /// Floating-point multiplication.
    FMul,
    /// Floating-point division.
    FDiv,
}

impl BinKind {
    /// True for the floating-point kinds (issue on the FP ALUs).
    pub fn is_float(self) -> bool {
        matches!(
            self,
            BinKind::FAdd | BinKind::FSub | BinKind::FMul | BinKind::FDiv
        )
    }

    /// Mnemonic used by the pretty-printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinKind::Add => "add",
            BinKind::Sub => "sub",
            BinKind::Mul => "mul",
            BinKind::Div => "div",
            BinKind::Rem => "rem",
            BinKind::And => "and",
            BinKind::Or => "or",
            BinKind::Xor => "xor",
            BinKind::Shl => "shl",
            BinKind::Shr => "shr",
            BinKind::Sar => "sar",
            BinKind::Min => "min",
            BinKind::Max => "max",
            BinKind::FAdd => "fadd",
            BinKind::FSub => "fsub",
            BinKind::FMul => "fmul",
            BinKind::FDiv => "fdiv",
        }
    }
}

/// One-operand operation kinds.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum UnKind {
    /// Register / immediate move.
    Mov,
    /// Integer negation.
    Neg,
    /// Bitwise complement.
    Not,
    /// Convert integer to float (`f64` bit pattern).
    IntToFloat,
    /// Convert float to integer (truncating; NaN and out-of-range
    /// saturate, mirroring Rust's `as` cast).
    FloatToInt,
}

impl UnKind {
    /// Mnemonic used by the pretty-printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            UnKind::Mov => "mov",
            UnKind::Neg => "neg",
            UnKind::Not => "not",
            UnKind::IntToFloat => "i2f",
            UnKind::FloatToInt => "f2i",
        }
    }

    /// True for the floating-point conversion kinds.
    pub fn is_float(self) -> bool {
        matches!(self, UnKind::IntToFloat | UnKind::FloatToInt)
    }
}

/// Comparison predicates for [`Op::Cmp`] and [`Op::Branch`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CmpPred {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
}

impl CmpPred {
    /// Evaluates the predicate on two signed integers.
    #[inline]
    pub fn eval(self, a: i64, b: i64) -> bool {
        match self {
            CmpPred::Eq => a == b,
            CmpPred::Ne => a != b,
            CmpPred::Lt => a < b,
            CmpPred::Le => a <= b,
            CmpPred::Gt => a > b,
            CmpPred::Ge => a >= b,
        }
    }

    /// The predicate with operands swapped (`a P b` ⇔ `b P.swap() a`).
    pub fn swapped(self) -> CmpPred {
        match self {
            CmpPred::Eq => CmpPred::Eq,
            CmpPred::Ne => CmpPred::Ne,
            CmpPred::Lt => CmpPred::Gt,
            CmpPred::Le => CmpPred::Ge,
            CmpPred::Gt => CmpPred::Lt,
            CmpPred::Ge => CmpPred::Le,
        }
    }

    /// The logical negation of the predicate.
    pub fn negated(self) -> CmpPred {
        match self {
            CmpPred::Eq => CmpPred::Ne,
            CmpPred::Ne => CmpPred::Eq,
            CmpPred::Lt => CmpPred::Ge,
            CmpPred::Le => CmpPred::Gt,
            CmpPred::Gt => CmpPred::Le,
            CmpPred::Ge => CmpPred::Lt,
        }
    }

    /// Mnemonic used by the pretty-printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpPred::Eq => "eq",
            CmpPred::Ne => "ne",
            CmpPred::Lt => "lt",
            CmpPred::Le => "le",
            CmpPred::Gt => "gt",
            CmpPred::Ge => "ge",
        }
    }
}

/// CCR instruction-set extensions, encoded as flag bits on an
/// instruction (the paper adds these as new instruction *extensions*
/// rather than new opcodes).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct InstrExt(u8);

impl InstrExt {
    /// No extensions.
    pub const NONE: InstrExt = InstrExt(0);
    /// Live-out extension: during memoization mode, the destination
    /// register of this instruction is recorded in the output bank of
    /// the computation instance under construction.
    pub const LIVE_OUT: InstrExt = InstrExt(1);
    /// Region-endpoint extension on a control instruction: executing
    /// it terminates memoization mode and records the instance.
    pub const REGION_END: InstrExt = InstrExt(2);
    /// Region-exit extension on a control instruction: executing it
    /// aborts memoization mode without recording ("no reuse along
    /// paths from inception to exit point").
    pub const REGION_EXIT: InstrExt = InstrExt(4);

    /// The union of two extension sets.
    pub fn union(self, other: InstrExt) -> InstrExt {
        InstrExt(self.0 | other.0)
    }

    /// True if every bit of `other` is present in `self`.
    pub fn contains(self, other: InstrExt) -> bool {
        self.0 & other.0 == other.0
    }

    /// True if no extension bit is set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl std::ops::BitOr for InstrExt {
    type Output = InstrExt;
    fn bitor(self, rhs: InstrExt) -> InstrExt {
        self.union(rhs)
    }
}

impl fmt::Display for InstrExt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "-");
        }
        let mut first = true;
        let mut put = |s: &str, f: &mut fmt::Formatter<'_>| -> fmt::Result {
            if !first {
                write!(f, "|")?;
            }
            first = false;
            write!(f, "{s}")
        };
        if self.contains(InstrExt::LIVE_OUT) {
            put("live_out", f)?;
        }
        if self.contains(InstrExt::REGION_END) {
            put("region_end", f)?;
        }
        if self.contains(InstrExt::REGION_EXIT) {
            put("region_exit", f)?;
        }
        Ok(())
    }
}

/// The operation performed by an instruction.
#[derive(Clone, PartialEq, Debug)]
pub enum Op {
    /// `dst = lhs <kind> rhs`.
    Binary {
        /// Operation kind.
        kind: BinKind,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// `dst = <kind> src`.
    Unary {
        /// Operation kind.
        kind: UnKind,
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Operand,
    },
    /// `dst = (lhs <pred> rhs) ? 1 : 0`.
    Cmp {
        /// Comparison predicate.
        pred: CmpPred,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// `dst = object[addr + offset]`.
    Load {
        /// Destination register.
        dst: Reg,
        /// Memory object accessed.
        object: MemObjectId,
        /// Element index operand.
        addr: Operand,
        /// Constant index addend.
        offset: i64,
    },
    /// `object[addr + offset] = value`.
    Store {
        /// Memory object accessed.
        object: MemObjectId,
        /// Element index operand.
        addr: Operand,
        /// Constant index addend.
        offset: i64,
        /// Value stored.
        value: Operand,
    },
    /// Compare-and-branch: if `lhs <pred> rhs` jump to `taken`, else
    /// fall through to `not_taken` (both targets are explicit).
    Branch {
        /// Comparison predicate.
        pred: CmpPred,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
        /// Target when the condition holds.
        taken: BlockId,
        /// Target when the condition does not hold.
        not_taken: BlockId,
    },
    /// Unconditional jump.
    Jump {
        /// Jump target.
        target: BlockId,
    },
    /// Call `callee(args...)`, receiving `rets` on return.
    Call {
        /// Callee function.
        callee: FuncId,
        /// Argument operands (bound to the callee's parameter registers).
        args: Vec<Operand>,
        /// Registers receiving the callee's return values.
        rets: Vec<Reg>,
    },
    /// Return `values` to the caller. Returning from the entry
    /// function halts the program.
    Ret {
        /// Returned operands.
        values: Vec<Operand>,
    },
    /// The paper's *computation reuse* instruction.
    ///
    /// Semantics: consult the CRB entry for `region`. If a valid
    /// computation instance matches the current input-register values
    /// (and its memory state has not been invalidated), update the
    /// live-out registers from the instance's output bank and continue
    /// at `cont`, skipping the region body entirely. Otherwise branch
    /// to `body` and enter *memoization mode*, recording a new
    /// instance as the body executes.
    Reuse {
        /// Region identifier (indexes the CRB).
        region: RegionId,
        /// Entry block of the region body (taken on reuse miss).
        body: BlockId,
        /// Continuation after the region (taken on reuse hit).
        cont: BlockId,
    },
    /// The paper's *computation invalidate* instruction: marks the
    /// memory-dependent computation instances recorded for `region`
    /// as no longer valid. The compiler places one after every store
    /// that may write one of the region's input memory structures.
    Invalidate {
        /// Region whose memory-dependent instances are invalidated.
        region: RegionId,
    },
    /// No operation (used as a placeholder by some transformations).
    Nop,
}

/// Functional-unit class of an instruction, used by the timing model
/// to enforce structural hazards (4 integer ALUs, 2 memory ports, 2 FP
/// ALUs, 1 branch unit in the paper's 6-issue machine).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum OpClass {
    /// Integer ALU operation (1-cycle latency).
    IntAlu,
    /// Integer multiply/divide (longer latency, still on an ALU).
    IntMul,
    /// Floating-point ALU operation.
    FpAlu,
    /// Memory load (2-cycle hit latency).
    Load,
    /// Memory store.
    Store,
    /// Branch, jump, call, or return.
    Branch,
    /// Computation reuse instruction.
    Reuse,
    /// Computation invalidate instruction.
    Invalidate,
}

/// A single instruction: an operation plus its CCR extensions and its
/// program-wide identifier.
#[derive(Clone, PartialEq, Debug)]
pub struct Instr {
    /// Program-wide unique identifier.
    pub id: InstrId,
    /// The operation.
    pub op: Op,
    /// CCR instruction-set extensions.
    pub ext: InstrExt,
}

impl Instr {
    /// Creates an instruction with no extensions.
    pub fn new(id: InstrId, op: Op) -> Instr {
        Instr {
            id,
            op,
            ext: InstrExt::NONE,
        }
    }

    /// The destination register written by this instruction, if any.
    pub fn dst(&self) -> Option<Reg> {
        match &self.op {
            Op::Binary { dst, .. } | Op::Unary { dst, .. } | Op::Cmp { dst, .. } => Some(*dst),
            Op::Load { dst, .. } => Some(*dst),
            _ => None,
        }
    }

    /// All destination registers (calls may write several).
    pub fn dsts(&self) -> Vec<Reg> {
        match &self.op {
            Op::Call { rets, .. } => rets.clone(),
            _ => self.dst().into_iter().collect(),
        }
    }

    /// Source operands read by this instruction.
    pub fn src_operands(&self) -> Vec<Operand> {
        let mut out = Vec::new();
        self.for_each_src_operand(|o| out.push(o));
        out
    }

    /// Visits the source operands in [`Instr::src_operands`] order
    /// without allocating (the emulator gathers its input values this
    /// way on every dynamic instruction).
    pub fn for_each_src_operand(&self, mut f: impl FnMut(Operand)) {
        match &self.op {
            Op::Binary { lhs, rhs, .. }
            | Op::Cmp { lhs, rhs, .. }
            | Op::Branch { lhs, rhs, .. } => {
                f(*lhs);
                f(*rhs);
            }
            Op::Unary { src, .. } => f(*src),
            Op::Load { addr, .. } => f(*addr),
            Op::Store { addr, value, .. } => {
                f(*addr);
                f(*value);
            }
            Op::Call { args: ops, .. } | Op::Ret { values: ops } => ops.iter().copied().for_each(f),
            Op::Jump { .. } | Op::Reuse { .. } | Op::Invalidate { .. } | Op::Nop => {}
        }
    }

    /// Source registers read by this instruction (immediates skipped).
    pub fn src_regs(&self) -> Vec<Reg> {
        self.src_operands()
            .into_iter()
            .filter_map(Operand::as_reg)
            .collect()
    }

    /// True if this instruction terminates a basic block.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self.op,
            Op::Branch { .. } | Op::Jump { .. } | Op::Ret { .. } | Op::Reuse { .. }
        )
    }

    /// Successor blocks if this is a terminator (`Ret` has none).
    pub fn successors(&self) -> Vec<BlockId> {
        match &self.op {
            Op::Branch {
                taken, not_taken, ..
            } => vec![*taken, *not_taken],
            Op::Jump { target } => vec![*target],
            Op::Reuse { body, cont, .. } => vec![*body, *cont],
            _ => vec![],
        }
    }

    /// Rewrites successor block ids through `f` (used by block-splitting
    /// transformations).
    pub fn map_successors(&mut self, mut f: impl FnMut(BlockId) -> BlockId) {
        match &mut self.op {
            Op::Branch {
                taken, not_taken, ..
            } => {
                *taken = f(*taken);
                *not_taken = f(*not_taken);
            }
            Op::Jump { target } => *target = f(*target),
            Op::Reuse { body, cont, .. } => {
                *body = f(*body);
                *cont = f(*cont);
            }
            _ => {}
        }
    }

    /// The functional-unit class of this instruction.
    pub fn class(&self) -> OpClass {
        match &self.op {
            Op::Binary { kind, .. } => {
                if kind.is_float() {
                    OpClass::FpAlu
                } else if matches!(kind, BinKind::Mul | BinKind::Div | BinKind::Rem) {
                    OpClass::IntMul
                } else {
                    OpClass::IntAlu
                }
            }
            Op::Unary { kind, .. } => {
                if kind.is_float() {
                    OpClass::FpAlu
                } else {
                    OpClass::IntAlu
                }
            }
            Op::Cmp { .. } => OpClass::IntAlu,
            Op::Load { .. } => OpClass::Load,
            Op::Store { .. } => OpClass::Store,
            Op::Branch { .. } | Op::Jump { .. } | Op::Call { .. } | Op::Ret { .. } => {
                OpClass::Branch
            }
            Op::Reuse { .. } => OpClass::Reuse,
            Op::Invalidate { .. } => OpClass::Invalidate,
            Op::Nop => OpClass::IntAlu,
        }
    }

    /// True if the instruction may read memory.
    pub fn is_load(&self) -> bool {
        matches!(self.op, Op::Load { .. })
    }

    /// True if the instruction may write memory.
    pub fn is_store(&self) -> bool {
        matches!(self.op, Op::Store { .. })
    }

    /// True if the instruction is a call.
    pub fn is_call(&self) -> bool {
        matches!(self.op, Op::Call { .. })
    }

    /// The memory object accessed, if this is a load or store.
    pub fn mem_object(&self) -> Option<MemObjectId> {
        match &self.op {
            Op::Load { object, .. } | Op::Store { object, .. } => Some(*object),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instr(op: Op) -> Instr {
        Instr::new(InstrId(0), op)
    }

    #[test]
    fn cmp_pred_eval_all() {
        assert!(CmpPred::Eq.eval(1, 1));
        assert!(CmpPred::Ne.eval(1, 2));
        assert!(CmpPred::Lt.eval(-1, 0));
        assert!(CmpPred::Le.eval(0, 0));
        assert!(CmpPred::Gt.eval(5, 4));
        assert!(CmpPred::Ge.eval(5, 5));
        assert!(!CmpPred::Lt.eval(0, -1));
    }

    #[test]
    fn cmp_pred_negation_is_involutive_and_complementary() {
        for p in [
            CmpPred::Eq,
            CmpPred::Ne,
            CmpPred::Lt,
            CmpPred::Le,
            CmpPred::Gt,
            CmpPred::Ge,
        ] {
            assert_eq!(p.negated().negated(), p);
            for (a, b) in [(0, 0), (1, 2), (-3, 5), (7, -7)] {
                assert_eq!(p.eval(a, b), !p.negated().eval(a, b));
                assert_eq!(p.eval(a, b), p.swapped().eval(b, a));
            }
        }
    }

    #[test]
    fn ext_flags() {
        let e = InstrExt::LIVE_OUT | InstrExt::REGION_END;
        assert!(e.contains(InstrExt::LIVE_OUT));
        assert!(e.contains(InstrExt::REGION_END));
        assert!(!e.contains(InstrExt::REGION_EXIT));
        assert!(!e.is_empty());
        assert!(InstrExt::NONE.is_empty());
        assert_eq!(e.to_string(), "live_out|region_end");
        assert_eq!(InstrExt::NONE.to_string(), "-");
    }

    #[test]
    fn dst_and_srcs() {
        let i = instr(Op::Binary {
            kind: BinKind::Add,
            dst: Reg(2),
            lhs: Operand::Reg(Reg(0)),
            rhs: Operand::Imm(1),
        });
        assert_eq!(i.dst(), Some(Reg(2)));
        assert_eq!(i.src_regs(), vec![Reg(0)]);
        assert_eq!(i.class(), OpClass::IntAlu);
        assert!(!i.is_terminator());
    }

    #[test]
    fn call_dsts() {
        let i = instr(Op::Call {
            callee: FuncId(0),
            args: vec![Operand::Reg(Reg(1))],
            rets: vec![Reg(2), Reg(3)],
        });
        assert_eq!(i.dsts(), vec![Reg(2), Reg(3)]);
        assert_eq!(i.src_regs(), vec![Reg(1)]);
        assert_eq!(i.class(), OpClass::Branch);
    }

    #[test]
    fn terminator_successors() {
        let b = instr(Op::Branch {
            pred: CmpPred::Lt,
            lhs: Operand::Reg(Reg(0)),
            rhs: Operand::Imm(10),
            taken: BlockId(1),
            not_taken: BlockId(2),
        });
        assert!(b.is_terminator());
        assert_eq!(b.successors(), vec![BlockId(1), BlockId(2)]);

        let r = instr(Op::Reuse {
            region: RegionId(0),
            body: BlockId(3),
            cont: BlockId(4),
        });
        assert!(r.is_terminator());
        assert_eq!(r.successors(), vec![BlockId(3), BlockId(4)]);
        assert_eq!(r.class(), OpClass::Reuse);

        let ret = instr(Op::Ret { values: vec![] });
        assert!(ret.is_terminator());
        assert!(ret.successors().is_empty());
    }

    #[test]
    fn map_successors_rewrites() {
        let mut j = instr(Op::Jump { target: BlockId(5) });
        j.map_successors(|b| BlockId(b.0 + 1));
        assert_eq!(j.successors(), vec![BlockId(6)]);
    }

    #[test]
    fn classes() {
        assert_eq!(
            instr(Op::Binary {
                kind: BinKind::Mul,
                dst: Reg(0),
                lhs: Operand::Imm(1),
                rhs: Operand::Imm(2)
            })
            .class(),
            OpClass::IntMul
        );
        assert_eq!(
            instr(Op::Binary {
                kind: BinKind::FAdd,
                dst: Reg(0),
                lhs: Operand::Imm(1),
                rhs: Operand::Imm(2)
            })
            .class(),
            OpClass::FpAlu
        );
        assert_eq!(
            instr(Op::Load {
                dst: Reg(0),
                object: MemObjectId(0),
                addr: Operand::Imm(0),
                offset: 0
            })
            .class(),
            OpClass::Load
        );
        assert_eq!(
            instr(Op::Invalidate {
                region: RegionId(0)
            })
            .class(),
            OpClass::Invalidate
        );
    }

    #[test]
    fn memory_accessors() {
        let l = instr(Op::Load {
            dst: Reg(0),
            object: MemObjectId(7),
            addr: Operand::Imm(0),
            offset: 0,
        });
        assert!(l.is_load());
        assert!(!l.is_store());
        assert_eq!(l.mem_object(), Some(MemObjectId(7)));
        let s = instr(Op::Store {
            object: MemObjectId(7),
            addr: Operand::Imm(0),
            offset: 1,
            value: Operand::Imm(9),
        });
        assert!(s.is_store());
        assert_eq!(s.src_operands().len(), 2);
    }
}
