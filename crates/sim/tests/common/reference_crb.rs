//! An independent reference model of the Computation Reuse Buffer.
//!
//! [`ReferenceCrb`] implements the paper's lookup rule (Section 3.1)
//! as directly as possible: each entry is a `Vec` of optional
//! instances, and an instance is reusable when every recorded
//! `(register, value)` pair still holds. It keeps no fingerprints and
//! shares no code with `ccr_sim::ReuseBuffer` beyond the public
//! configuration and statistics types, so the two stay independent
//! even though both now use a plain per-entry layout. It reproduces everything the
//! production buffer exposes: the clock, LRU/FIFO/Random replacement
//! (the same xorshift stream), nonuniform capacities and memory
//! capability, ghosts (twice as many as instance slots) and the five
//! miss causes. Tests drive both through identical command streams
//! and require identical lookups, miss causes and statistics.
//!
//! Shared by `crates/sim/tests/crb_properties.rs` and the root
//! package's `tests/crb_equivalence.rs` (via `#[path]`).

use std::collections::{HashSet, VecDeque};

use ccr_ir::{Reg, RegionId, Value};
use ccr_profile::{CrbModel, MissCause, RecordedInstance, ReuseLookup};
use ccr_sim::{CrbConfig, CrbStats, Replacement};

/// One recorded computation instance.
#[derive(Clone)]
struct Instance {
    inputs: Vec<(Reg, Value)>,
    outputs: Vec<(Reg, Value)>,
    accesses_memory: bool,
    body_instrs: u64,
    last_use: u64,
    inserted: u64,
}

/// The input bank of an instance that left its entry, and why.
struct Ghost {
    inputs: Vec<(Reg, Value)>,
    cause: MissCause,
}

struct Entry {
    tag: Option<RegionId>,
    /// One slot per instance the entry can hold; `None` is invalid.
    slots: Vec<Option<Instance>>,
    /// Oldest first.
    ghosts: VecDeque<Ghost>,
}

impl Entry {
    fn ghost(&mut self, inputs: Vec<(Reg, Value)>, cause: MissCause) {
        if self.ghosts.len() >= 2 * self.slots.len() {
            self.ghosts.pop_front();
        }
        self.ghosts.push_back(Ghost { inputs, cause });
    }
}

/// True when every recorded pair holds in the current register state.
fn holds(inputs: &[(Reg, Value)], read_reg: &mut dyn FnMut(Reg) -> Value) -> bool {
    inputs.iter().all(|&(r, v)| read_reg(r) == v)
}

/// The reference buffer. See the module documentation.
pub struct ReferenceCrb {
    config: CrbConfig,
    entries: Vec<Entry>,
    clock: u64,
    rng: u64,
    stats: CrbStats,
    ever_recorded: HashSet<RegionId>,
    last_miss_cause: Option<MissCause>,
}

impl ReferenceCrb {
    pub fn new(config: CrbConfig) -> ReferenceCrb {
        let entries = (0..config.entries)
            .map(|idx| {
                let slots = match config.nonuniform {
                    Some(nu) if idx % nu.boost_every == 0 => nu.boosted_instances,
                    _ => config.instances,
                };
                Entry {
                    tag: None,
                    slots: vec![None; slots],
                    ghosts: VecDeque::new(),
                }
            })
            .collect();
        ReferenceCrb {
            config,
            entries,
            clock: 0,
            rng: 0x9e37_79b9_7f4a_7c15,
            stats: CrbStats::default(),
            ever_recorded: HashSet::new(),
            last_miss_cause: None,
        }
    }

    pub fn stats(&self) -> CrbStats {
        self.stats
    }

    fn entry_index(&self, region: RegionId) -> usize {
        region.index() % self.config.entries
    }

    fn mem_capable(&self, idx: usize) -> bool {
        self.config
            .nonuniform
            .is_none_or(|nu| idx * 100 < self.config.entries * usize::from(nu.mem_capable_percent))
    }

    /// xorshift64*, seeded as the production buffer is.
    fn next_random(&mut self) -> u64 {
        self.rng ^= self.rng >> 12;
        self.rng ^= self.rng << 25;
        self.rng ^= self.rng >> 27;
        self.rng.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// The slot a new instance goes to: the first invalid one, else
    /// the replacement policy's choice (first minimum on ties).
    fn victim(&mut self, idx: usize) -> usize {
        let slots = &self.entries[idx].slots;
        if let Some(free) = slots.iter().position(Option::is_none) {
            return free;
        }
        let oldest = |key: fn(&Instance) -> u64| {
            (0..slots.len())
                .min_by_key(|&k| slots[k].as_ref().map(key))
                .expect("entries have at least one slot")
        };
        match self.config.replacement {
            Replacement::Lru => oldest(|i| i.last_use),
            Replacement::Fifo => oldest(|i| i.inserted),
            Replacement::Random => {
                let n = slots.len() as u64;
                (self.next_random() % n) as usize
            }
        }
    }

    fn miss(&mut self, cause: MissCause) -> Option<ReuseLookup> {
        self.stats.misses += 1;
        self.stats.count_miss_cause(cause);
        self.last_miss_cause = Some(cause);
        None
    }
}

impl CrbModel for ReferenceCrb {
    fn lookup(
        &mut self,
        region: RegionId,
        read_reg: &mut dyn FnMut(Reg) -> Value,
    ) -> Option<ReuseLookup> {
        self.stats.lookups += 1;
        self.clock += 1;
        let idx = self.entry_index(region);
        if self.entries[idx].tag != Some(region) {
            let cause = if self.ever_recorded.contains(&region) {
                MissCause::Conflict
            } else {
                MissCause::Cold
            };
            return self.miss(cause);
        }
        let clock = self.clock;
        let entry = &mut self.entries[idx];
        let hit = entry
            .slots
            .iter_mut()
            .flatten()
            .find(|i| holds(&i.inputs, read_reg));
        if let Some(inst) = hit {
            inst.last_use = clock;
            let found = ReuseLookup {
                outputs: inst.outputs.clone(),
                inputs: inst.inputs.iter().map(|&(r, _)| r).collect(),
                skipped_instrs: inst.body_instrs,
            };
            self.stats.hits += 1;
            self.last_miss_cause = None;
            return Some(found);
        }
        let ghost = entry
            .ghosts
            .iter()
            .rev()
            .find(|g| holds(&g.inputs, read_reg));
        let cause = match ghost {
            Some(g) => g.cause,
            None if entry.slots.iter().all(Option::is_none) => MissCause::Invalidated,
            None => MissCause::Mismatch,
        };
        self.miss(cause)
    }

    fn record(&mut self, region: RegionId, instance: RecordedInstance) {
        if instance.inputs.len() > self.config.input_bank
            || instance.outputs.len() > self.config.output_bank
        {
            return;
        }
        self.clock += 1;
        let idx = self.entry_index(region);
        if instance.accesses_memory && !self.mem_capable(idx) {
            return;
        }
        self.stats.records += 1;
        let entry = &mut self.entries[idx];
        if entry.tag != Some(region) {
            if entry.tag.is_some() {
                self.stats.entry_conflicts += 1;
            }
            entry.tag = Some(region);
            entry.slots.iter_mut().for_each(|s| *s = None);
            entry.ghosts.clear();
        }
        let same = entry
            .slots
            .iter()
            .position(|s| s.as_ref().is_some_and(|i| i.inputs == instance.inputs));
        let slot = match same {
            Some(k) => k,
            None => {
                let k = self.victim(idx);
                let entry = &mut self.entries[idx];
                if let Some(old) = entry.slots[k].take() {
                    entry.ghost(old.inputs, MissCause::Capacity);
                }
                k
            }
        };
        let entry = &mut self.entries[idx];
        entry.ghosts.retain(|g| g.inputs != instance.inputs);
        entry.slots[slot] = Some(Instance {
            inputs: instance.inputs,
            outputs: instance.outputs,
            accesses_memory: instance.accesses_memory,
            body_instrs: instance.body_instrs,
            last_use: self.clock,
            inserted: self.clock,
        });
        self.ever_recorded.insert(region);
    }

    fn invalidate(&mut self, region: RegionId) {
        self.stats.invalidations += 1;
        let idx = self.entry_index(region);
        let entry = &mut self.entries[idx];
        if entry.tag != Some(region) {
            return;
        }
        for k in 0..entry.slots.len() {
            if entry.slots[k].as_ref().is_some_and(|i| i.accesses_memory) {
                let killed = entry.slots[k].take().expect("checked above");
                entry.ghost(killed.inputs, MissCause::Invalidated);
            }
        }
    }

    fn input_capacity(&self) -> usize {
        self.config.input_bank
    }

    fn output_capacity(&self) -> usize {
        self.config.output_bank
    }

    fn last_miss_cause(&self) -> Option<MissCause> {
        self.last_miss_cause
    }
}
