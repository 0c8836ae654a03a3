#![warn(missing_docs)]

//! # ccr-ir — the intermediate representation of the CCR framework
//!
//! This crate implements a low-level, register-machine intermediate
//! representation modeled after the IR a compiler back end (such as the
//! IMPACT compiler used by Connors & Hwu, MICRO-32 1999) would hand to
//! its code generator:
//!
//! * an infinite virtual register file of 64-bit integer / float values
//!   ([`Reg`], [`Value`]),
//! * *named memory objects* (globals and constant tables) addressed by
//!   element index ([`MemObject`]), which is what makes the paper's
//!   "determinable load" classification decidable,
//! * explicit basic blocks with compare-and-branch terminators
//!   ([`Block`], [`Op::Branch`]),
//! * functions with call/return ([`Function`]), and
//! * the CCR instruction-set extensions of the paper: the
//!   [`Op::Reuse`] and [`Op::Invalidate`] instructions plus the
//!   live-out / region-endpoint / region-exit instruction extensions
//!   ([`InstrExt`]).
//!
//! A [`ProgramBuilder`] / [`FunctionBuilder`] DSL is provided for
//! constructing programs (used heavily by `ccr-workloads`), together
//! with a structural [`verify`](verify::verify_program) pass and a
//! pretty-printer.
//!
//! ## Example
//!
//! ```
//! use ccr_ir::{ProgramBuilder, Operand};
//!
//! let mut pb = ProgramBuilder::new();
//! let mut f = pb.function("main", 0, 1);
//! let x = f.movi(4);
//! let t = f.add(x, Operand::Imm(2));
//! let y = f.mul(t, x);
//! f.ret(&[Operand::Reg(y)]);
//! let main = pb.finish_function(f);
//! pb.set_main(main);
//! let program = pb.finish();
//! assert_eq!(program.functions().len(), 1);
//! ccr_ir::verify::verify_program(&program).unwrap();
//! ```

pub mod block;
pub mod builder;
pub mod decode;
pub mod function;
pub mod instr;
pub mod layout;
pub mod object;
pub mod parse;
pub mod print;
pub mod program;
pub mod reg;
pub mod semantics;
pub mod verify;

pub use block::{Block, BlockId};
pub use builder::{FunctionBuilder, ProgramBuilder};
pub use decode::{Decoded, DecodedInstr, Latency, SrcReg};
pub use function::{FuncId, Function};
pub use instr::{BinKind, CmpPred, Instr, InstrExt, InstrId, Op, OpClass, RegionId, UnKind};
pub use layout::CodeLayout;
pub use object::{MemObject, MemObjectId, ObjectKind};
pub use parse::{parse_program, ParseError};
pub use program::Program;
pub use reg::{Operand, Reg, Value};
pub use verify::{verify_program, VerifyError};
