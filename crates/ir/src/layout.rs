//! Code and data layout.
//!
//! The timing simulator models instruction and data caches, which need
//! addresses. [`CodeLayout`] assigns every instruction a 4-byte slot in
//! a linear code image (functions laid out in id order, blocks in id
//! order) and every memory object an 8-byte-element region in a linear
//! data image (64-byte aligned, matching a cache-line-aligned loader).
//! Laying out the code also decodes it: the code addresses live in the
//! program's [`Decoded`] table, which the layout shares with the
//! emulator.

use std::sync::Arc;

use crate::decode::Decoded;
use crate::instr::InstrId;
use crate::object::MemObjectId;
use crate::program::Program;

/// Byte size of one instruction slot in the code image.
pub const INSTR_BYTES: u64 = 4;
/// Byte size of one memory-object element in the data image.
pub const ELEM_BYTES: u64 = 8;
/// Alignment of memory objects in the data image.
pub const OBJECT_ALIGN: u64 = 64;

/// Addresses assigned to a program's instructions and objects.
#[derive(Clone, Debug, Default)]
pub struct CodeLayout {
    decoded: Arc<Decoded>,
    object_base: Vec<u64>,
    data_size: u64,
}

impl CodeLayout {
    /// Computes the layout of `program`.
    pub fn of(program: &Program) -> CodeLayout {
        let mut object_base = Vec::with_capacity(program.objects().len());
        let mut data = 0u64;
        for obj in program.objects() {
            data = data.next_multiple_of(OBJECT_ALIGN);
            object_base.push(data);
            data += obj.size() as u64 * ELEM_BYTES;
        }
        CodeLayout {
            decoded: Arc::new(Decoded::of(program)),
            object_base,
            data_size: data,
        }
    }

    /// The program's decoded instruction table, which carries the code
    /// addresses.
    pub fn decoded(&self) -> &Arc<Decoded> {
        &self.decoded
    }

    /// The code address of an instruction.
    ///
    /// # Panics
    ///
    /// Panics if the instruction was not part of the laid-out program
    /// (e.g. the layout is stale after a transformation).
    pub fn code_addr(&self, id: InstrId) -> u64 {
        self.decoded.row(id).addr
    }

    /// The data address of `object[index]`.
    #[inline]
    pub fn data_addr(&self, object: MemObjectId, index: u64) -> u64 {
        self.object_base[object.index()] + index * ELEM_BYTES
    }

    /// Total code image size in bytes.
    pub fn code_size(&self) -> u64 {
        self.decoded.code_size()
    }

    /// Total data image size in bytes.
    pub fn data_size(&self) -> u64 {
        self.data_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::reg::Operand;

    #[test]
    fn layout_assigns_sequential_code_addresses() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0, 1);
        let a = f.movi(1);
        let b = f.add(a, 2);
        f.ret(&[Operand::Reg(b)]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        let p = pb.finish();
        let l = CodeLayout::of(&p);
        let addrs: Vec<u64> = p
            .function(id)
            .iter_instrs()
            .map(|(_, i)| l.code_addr(i.id))
            .collect();
        assert_eq!(addrs, vec![0, 4, 8]);
        assert_eq!(l.code_size(), 12);
    }

    #[test]
    fn objects_are_aligned_and_disjoint() {
        let mut pb = ProgramBuilder::new();
        let a = pb.object("a", 3);
        let b = pb.object("b", 10);
        let mut f = pb.function("main", 0, 0);
        f.ret(&[]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        let p = pb.finish();
        let l = CodeLayout::of(&p);
        assert_eq!(l.data_addr(a, 0) % OBJECT_ALIGN, 0);
        assert_eq!(l.data_addr(b, 0) % OBJECT_ALIGN, 0);
        // Object b starts past the end of a.
        assert!(l.data_addr(b, 0) >= l.data_addr(a, 2) + ELEM_BYTES);
        assert_eq!(l.data_addr(b, 1) - l.data_addr(b, 0), ELEM_BYTES);
        assert!(l.data_size() >= 64 + 80);
    }

    #[test]
    #[should_panic(expected = "no address")]
    fn stale_layout_panics() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0, 0);
        f.ret(&[]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        let p = pb.finish();
        let l = CodeLayout::of(&p);
        l.code_addr(InstrId(999));
    }
}
