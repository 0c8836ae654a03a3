//! The decoded instruction table.
//!
//! Simulation visits every dynamic instruction several times: the
//! emulator gathers its operands and memoization sets, the timing
//! pipeline needs its code address, functional-unit class, latency and
//! register dependences, and the value profilers need its source and
//! destination registers. [`Decoded`] works all of that out once per
//! program into one dense row per instruction, indexed by the raw
//! [`InstrId`], so the per-event consumers index a `Vec` instead of
//! hashing ids and allocating operand lists. [`crate::CodeLayout`]
//! builds the table when it lays the program out.

use crate::instr::{Instr, InstrId, Op, OpClass};
use crate::layout::INSTR_BYTES;
use crate::program::Program;
use crate::reg::{Operand, Reg};

/// Which of the machine's result latencies an instruction's
/// destination register waits for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Latency {
    /// No single register result (stores, control, CCR instructions,
    /// nops; a call's results arrive with its return).
    None,
    /// The integer ALU latency.
    Int,
    /// The integer multiply/divide latency.
    Mul,
    /// The floating-point latency.
    Fp,
    /// The load-use latency (plus any D-cache miss).
    Load,
}

/// A source register together with the position of its operand among
/// the instruction's source operands, which is also the index of its
/// value in [`Instr::src_operands`] order (the emulator's input list).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SrcReg {
    /// The register read.
    pub reg: Reg,
    /// Index of the operand in source-operand order.
    pub slot: u32,
}

/// Operand lists of calls and returns, which may exceed the two inline
/// source slots.
#[derive(Clone, Debug)]
struct Lists {
    srcs: Box<[SrcReg]>,
    rets: Box<[Reg]>,
}

/// One instruction, decoded.
#[derive(Clone, Debug)]
pub struct DecodedInstr {
    /// Code address in the linear code image.
    pub addr: u64,
    /// Functional-unit class.
    pub class: OpClass,
    /// Which machine latency the destination waits for.
    pub latency: Latency,
    n_srcs: u8,
    srcs: [SrcReg; 2],
    dst: Option<Reg>,
    lists: Option<Box<Lists>>,
}

impl DecodedInstr {
    fn new(instr: &Instr, addr: u64) -> DecodedInstr {
        let class = instr.class();
        let latency = match (&instr.op, class) {
            (Op::Load { .. }, _) => Latency::Load,
            (Op::Binary { .. } | Op::Unary { .. } | Op::Cmp { .. }, OpClass::IntMul) => {
                Latency::Mul
            }
            (Op::Binary { .. } | Op::Unary { .. } | Op::Cmp { .. }, OpClass::FpAlu) => Latency::Fp,
            (Op::Binary { .. } | Op::Unary { .. } | Op::Cmp { .. }, _) => Latency::Int,
            _ => Latency::None,
        };
        let mut regs = Vec::new();
        let mut slot = 0u32;
        instr.for_each_src_operand(|o| {
            if let Operand::Reg(reg) = o {
                regs.push(SrcReg { reg, slot });
            }
            slot += 1;
        });
        let mut row = DecodedInstr {
            addr,
            class,
            latency,
            n_srcs: 0,
            srcs: [SrcReg {
                reg: Reg(0),
                slot: 0,
            }; 2],
            dst: instr.dst(),
            lists: None,
        };
        match &instr.op {
            Op::Call { rets, .. } => {
                row.lists = Some(Box::new(Lists {
                    srcs: regs.into(),
                    rets: rets.clone().into(),
                }));
            }
            Op::Ret { .. } => {
                row.lists = Some(Box::new(Lists {
                    srcs: regs.into(),
                    rets: Box::default(),
                }));
            }
            _ => {
                row.n_srcs = regs.len() as u8;
                row.srcs[..regs.len()].copy_from_slice(&regs);
            }
        }
        row
    }

    /// Source registers read, immediates dropped, in operand order.
    #[inline]
    pub fn srcs(&self) -> &[SrcReg] {
        match &self.lists {
            None => &self.srcs[..self.n_srcs as usize],
            Some(lists) => &lists.srcs,
        }
    }

    /// Destination registers written (a call writes its return
    /// registers; everything else at most one).
    #[inline]
    pub fn dsts(&self) -> &[Reg] {
        match (&self.dst, &self.lists) {
            (Some(dst), _) => std::slice::from_ref(dst),
            (None, Some(lists)) => &lists.rets,
            (None, None) => &[],
        }
    }
}

/// One [`DecodedInstr`] row per instruction of a program, indexed by
/// raw [`InstrId`]. Ids the program does not use are empty rows.
#[derive(Clone, Debug, Default)]
pub struct Decoded {
    rows: Vec<Option<DecodedInstr>>,
    code_size: u64,
}

impl Decoded {
    /// Decodes `program`, assigning code addresses in layout order:
    /// functions in id order, blocks in id order, one
    /// [`INSTR_BYTES`]-byte slot per instruction.
    pub fn of(program: &Program) -> Decoded {
        let limit = program
            .iter_instrs()
            .map(|(_, i)| i.id.index() + 1)
            .max()
            .unwrap_or(0)
            .max(program.instr_id_limit() as usize);
        let mut rows = vec![None; limit];
        let mut pc = 0u64;
        for func in program.functions() {
            for (_, instr) in func.iter_instrs() {
                rows[instr.id.index()] = Some(DecodedInstr::new(instr, pc));
                pc += INSTR_BYTES;
            }
        }
        Decoded {
            rows,
            code_size: pc,
        }
    }

    /// The row of `id`.
    ///
    /// # Panics
    ///
    /// Panics if the instruction was not part of the decoded program
    /// (e.g. the table is stale after a transformation).
    #[inline]
    pub fn row(&self, id: InstrId) -> &DecodedInstr {
        self.rows
            .get(id.index())
            .and_then(Option::as_ref)
            .unwrap_or_else(|| panic!("no address for {id}; stale layout?"))
    }

    /// Total code image size in bytes.
    pub fn code_size(&self) -> u64 {
        self.code_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::instr::BinKind;

    #[test]
    fn rows_match_the_instruction_accessors() {
        let mut pb = ProgramBuilder::new();
        let g = pb.declare("g", 3, 2);
        let mut gb = pb.function_body(g);
        let (a, b, c) = (gb.param(0), gb.param(1), gb.param(2));
        let s = gb.add(a, b);
        let m = gb.mul(s, c);
        let f = gb.bin(BinKind::FAdd, m, 1);
        gb.ret(&[Operand::Reg(s), Operand::Reg(f)]);
        pb.finish_function(gb);
        let mut f = pb.function("main", 0, 1);
        let x = f.movi(3);
        let rs = f.call(g, &[Operand::Reg(x), Operand::Imm(4), Operand::Reg(x)], 2);
        let o = f.add(rs[0], 0);
        f.ret(&[Operand::Reg(o)]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        let p = pb.finish();
        let d = Decoded::of(&p);
        for (_, instr) in p.iter_instrs() {
            let row = d.row(instr.id);
            let regs: Vec<Reg> = row.srcs().iter().map(|s| s.reg).collect();
            assert_eq!(regs, instr.src_regs(), "{instr:?}");
            let ops = instr.src_operands();
            for s in row.srcs() {
                assert_eq!(ops[s.slot as usize], Operand::Reg(s.reg));
            }
            assert_eq!(row.dsts(), instr.dsts().as_slice());
            assert_eq!(row.class, instr.class());
        }
        let call = p
            .function(p.main())
            .iter_instrs()
            .find(|(_, i)| i.is_call())
            .unwrap()
            .1;
        let slots: Vec<u32> = d.row(call.id).srcs().iter().map(|s| s.slot).collect();
        assert_eq!(slots, vec![0, 2], "the immediate argument is dropped");
    }

    #[test]
    fn latencies_follow_the_result_kind() {
        let mut pb = ProgramBuilder::new();
        let t = pb.table("t", vec![1, 2]);
        let mut f = pb.function("main", 0, 1);
        let a = f.movi(1);
        let m = f.mul(a, a);
        let x = f.bin(BinKind::FMul, m, a);
        let v = f.load(t, x);
        f.store(t, 0, v);
        f.ret(&[Operand::Reg(v)]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        let p = pb.finish();
        let d = Decoded::of(&p);
        let lats: Vec<Latency> = p
            .function(id)
            .iter_instrs()
            .map(|(_, i)| d.row(i.id).latency)
            .collect();
        use Latency::*;
        assert_eq!(lats, vec![Int, Mul, Fp, Load, None, None]);
        // The timing model takes a timed row's result from its one
        // destination.
        for (_, i) in p.function(id).iter_instrs() {
            let row = d.row(i.id);
            if row.latency != Latency::None {
                assert_eq!(row.dsts(), [i.dst().expect("a result")], "{i:?}");
            }
        }
        assert_eq!(d.code_size(), 6 * INSTR_BYTES);
    }
}
