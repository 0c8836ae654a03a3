//! Register sets shared by the emulator's memoization mode and the
//! profilers' live-in capture.

use ccr_ir::{Reg, Value};

/// A set of registers as a bitset indexed by [`Reg::index`]: the IR
/// numbers registers densely from zero, so membership is one shift
/// and mask instead of a hash. Iterates in ascending register order.
#[derive(Clone, Debug, Default)]
pub(crate) struct RegSet {
    words: Vec<u64>,
}

impl RegSet {
    #[inline]
    pub(crate) fn contains(&self, r: Reg) -> bool {
        let i = r.index();
        self.words
            .get(i / 64)
            .is_some_and(|w| w >> (i % 64) & 1 == 1)
    }

    /// Adds `r`; true if it was not already present.
    #[inline]
    pub(crate) fn insert(&mut self, r: Reg) -> bool {
        let i = r.index();
        if self.words.len() <= i / 64 {
            self.words.resize(i / 64 + 1, 0);
        }
        let word = &mut self.words[i / 64];
        let bit = 1 << (i % 64);
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    pub(crate) fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Register numbers in ascending order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(k, &w)| {
            (0..64u32)
                .filter(move |b| w >> b & 1 == 1)
                .map(move |b| k as u32 * 64 + b)
        })
    }

    /// Empties the set, keeping its storage.
    pub(crate) fn clear(&mut self) {
        self.words.fill(0);
    }
}

/// The live-in registers of a code segment: those read before the
/// segment writes them, each with the value of its first read, in
/// first-read order.
///
/// A register becomes an input when it is read while neither written
/// nor already an input. `seen` is exactly inputs ∪ written, so that
/// rule is one bit test.
#[derive(Clone, Debug, Default)]
pub(crate) struct LiveIns {
    pub(crate) inputs: Vec<(Reg, Value)>,
    seen: RegSet,
}

impl LiveIns {
    /// Records a read of `r` holding `v`.
    #[inline]
    pub(crate) fn read(&mut self, r: Reg, v: Value) {
        if self.seen.insert(r) {
            self.inputs.push((r, v));
        }
    }

    /// Records a write of `r`.
    #[inline]
    pub(crate) fn write(&mut self, r: Reg) {
        self.seen.insert(r);
    }

    /// Empties both lists, keeping their storage.
    pub(crate) fn clear(&mut self) {
        self.inputs.clear();
        self.seen.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_ins_keep_first_reads_of_unwritten_registers() {
        let mut l = LiveIns::default();
        l.read(Reg(3), Value::from_int(30));
        l.write(Reg(5));
        l.read(Reg(5), Value::from_int(50)); // written first: not an input
        l.read(Reg(3), Value::from_int(31)); // already an input
        l.read(Reg(70), Value::from_int(700));
        assert_eq!(
            l.inputs,
            vec![
                (Reg(3), Value::from_int(30)),
                (Reg(70), Value::from_int(700))
            ]
        );
        l.clear();
        assert!(l.inputs.is_empty());
        l.read(Reg(5), Value::from_int(1));
        assert_eq!(l.inputs, vec![(Reg(5), Value::from_int(1))]);
    }

    #[test]
    fn reg_set_iterates_in_ascending_order() {
        let mut s = RegSet::default();
        for r in [130, 2, 64, 2] {
            s.insert(Reg(r));
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![2, 64, 130]);
        assert_eq!(s.len(), 3);
        assert!(s.contains(Reg(64)) && !s.contains(Reg(63)));
        s.clear();
        assert_eq!(s.len(), 0);
    }
}
