//! The Computation Reuse Buffer (Section 3.1 of the paper).
//!
//! A direct-mapped array of *computation entries* indexed by the
//! region identifier carried in the `reuse` instruction. Each entry
//! holds the computation tag (the region id), a valid bit, an array of
//! *computation instances*, and LRU state for instance replacement.
//! Each instance has an input bank and an output bank of eight
//! register entries, a valid bit, and a memory-valid field. A
//! computation instance is reusable when its input register values
//! match the current architectural state and its memory state has not
//! been invalidated.
//!
//! Host layout: one plain `Instance` per slot, holding its banks as
//! `(register, value)` vectors, and a queue of `Ghost`s per entry. A
//! lookup takes the first valid instance whose recorded pairs all
//! still hold, exactly the paper's rule (DESIGN.md §9.3).

use std::collections::{HashSet, VecDeque};

use ccr_ir::{Reg, RegionId, Value};
use ccr_profile::{CrbModel, MissCause, RecordedInstance, ReuseLookup};

use crate::snapshot::{
    cause_from_index, cause_index, CrbEntrySnapshot, CrbGhostSnapshot, CrbInstanceSnapshot,
    CrbSnapshot,
};
use crate::stats::CrbStats;

/// FNV-1a fingerprint of a recorded input bank, folding whole
/// `(register, value)` words. Recorded with every instance and ghost
/// (snapshots and `fold_state` carry it); `record` compares it before
/// comparing whole banks.
fn fingerprint(inputs: &[(Reg, Value)]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    inputs.iter().fold(0xcbf2_9ce4_8422_2325, |h, &(r, v)| {
        let h = (h ^ u64::from(r.0)).wrapping_mul(PRIME);
        (h ^ v.0 as u64).wrapping_mul(PRIME)
    })
}

/// True when every recorded `(reg, value)` pair still holds in the
/// architectural state `read_reg` reads (stops at the first mismatch).
fn holds(inputs: &[(Reg, Value)], read_reg: &mut dyn FnMut(Reg) -> Value) -> bool {
    inputs.iter().all(|&(r, v)| read_reg(r) == v)
}

/// Snapshot form of a register bank.
fn bank_to_snapshot(bank: &[(Reg, Value)]) -> Vec<(u32, u64)> {
    bank.iter().map(|&(r, v)| (r.0, v.0 as u64)).collect()
}

/// Inverse of [`bank_to_snapshot`].
fn bank_from_snapshot(bank: &[(u32, u64)]) -> Vec<(Reg, Value)> {
    bank.iter()
        .map(|&(r, v)| (Reg(r), Value(v as i64)))
        .collect()
}

/// Instance replacement policy within a computation entry (the paper
/// specifies LRU; the alternatives support the ablation benches).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Replacement {
    /// Least-recently-used instance (the paper's policy).
    Lru,
    /// Oldest-inserted instance.
    Fifo,
    /// Uniformly random instance (deterministic xorshift stream).
    Random,
}

/// Nonuniform entry capacities (the paper's future-work item:
/// "reuse buffers with nonuniform capacities", and Section 5.2's
/// observation that "the CRB could be designed to have only a portion
/// of the computation entries with memory reuse capabilities").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NonuniformConfig {
    /// Every `boost_every`-th entry holds `boosted_instances`
    /// computation instances instead of the base count.
    pub boost_every: usize,
    /// Instance count of the boosted entries.
    pub boosted_instances: usize,
    /// Percentage of entries (from index 0 upward) capable of holding
    /// memory-dependent instances; the rest silently drop them.
    pub mem_capable_percent: u8,
}

/// Buffer geometry.
#[derive(Clone, Copy, Debug)]
pub struct CrbConfig {
    /// Number of computation entries (32 / 64 / 128 in the paper).
    pub entries: usize,
    /// Computation instances per entry (4 / 8 / 16 in the paper).
    pub instances: usize,
    /// Register entries in each instance's input bank.
    pub input_bank: usize,
    /// Register entries in each instance's output bank.
    pub output_bank: usize,
    /// Instance replacement policy.
    pub replacement: Replacement,
    /// Optional nonuniform entry capacities.
    pub nonuniform: Option<NonuniformConfig>,
}

impl CrbConfig {
    /// The paper's cost-effective configuration: 128 entries × 8
    /// instances, 8-entry banks, LRU.
    pub fn paper() -> CrbConfig {
        CrbConfig {
            entries: 128,
            instances: 8,
            input_bank: 8,
            output_bank: 8,
            replacement: Replacement::Lru,
            nonuniform: None,
        }
    }

    /// The paper's configuration with a different entry count.
    pub fn with_entries(entries: usize) -> CrbConfig {
        CrbConfig {
            entries,
            ..CrbConfig::paper()
        }
    }

    /// The paper's configuration with a different instance count.
    pub fn with_instances(instances: usize) -> CrbConfig {
        CrbConfig {
            instances,
            ..CrbConfig::paper()
        }
    }

    /// Canonical `(field, value)` enumeration of the buffer geometry,
    /// in declaration order (the optional nonuniform block flattened
    /// as `nonuniform.*`, `"-"` when absent).
    ///
    /// The experiment planner keys simulation units by hashing these
    /// pairs and labels sweep axes by diffing them, so the list must
    /// stay exhaustive — a missing field would alias two distinct
    /// buffer geometries.
    pub fn fields(&self) -> Vec<(&'static str, String)> {
        let (boost_every, boosted, mem_pct) = match self.nonuniform {
            None => ("-".to_string(), "-".to_string(), "-".to_string()),
            Some(nu) => (
                nu.boost_every.to_string(),
                nu.boosted_instances.to_string(),
                nu.mem_capable_percent.to_string(),
            ),
        };
        vec![
            ("entries", self.entries.to_string()),
            ("instances", self.instances.to_string()),
            ("input_bank", self.input_bank.to_string()),
            ("output_bank", self.output_bank.to_string()),
            (
                "replacement",
                match self.replacement {
                    Replacement::Lru => "lru",
                    Replacement::Fifo => "fifo",
                    Replacement::Random => "random",
                }
                .to_string(),
            ),
            ("nonuniform.boost_every", boost_every),
            ("nonuniform.boosted_instances", boosted),
            ("nonuniform.mem_capable_percent", mem_pct),
        ]
    }
}

/// Kind of a logged buffer event (see [`ReuseBuffer::set_event_logging`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CrbEventKind {
    /// A valid computation instance was overwritten by capacity
    /// replacement within its entry.
    Evict,
    /// An entry was reassigned to a different region (direct-mapped
    /// tag conflict), discarding the previous region's instances.
    Conflict,
    /// An `invalidate` killed one or more memory-dependent instances.
    Invalidate,
}

/// One logged buffer event. Recorded only while event logging is on;
/// the default-off log keeps the hot path allocation-free.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CrbEvent {
    /// Buffer clock at the event (advances on every lookup and record).
    pub clock: u64,
    /// What happened.
    pub kind: CrbEventKind,
    /// Region whose record or invalidate triggered the event.
    pub region: RegionId,
    /// Direct-mapped entry index involved.
    pub entry: usize,
    /// Valid instances in the entry after the event.
    pub occupancy: usize,
    /// Instances lost: 1 for an eviction, the cleared count for a
    /// conflict, the killed count for an invalidation.
    pub lost: usize,
}

/// One computation-instance slot.
///
/// An invalidated slot keeps the stale banks it last held: only a tag
/// conflict resets slots to the default. `fold_state` and snapshots
/// observe that stale data, so it is part of the simulated state
/// trajectory.
#[derive(Clone, Debug, Default)]
struct Instance {
    valid: bool,
    inputs: Vec<(Reg, Value)>,
    /// [`fingerprint`] of `inputs` (0 for a never-written slot).
    fp: u64,
    outputs: Vec<(Reg, Value)>,
    accesses_memory: bool,
    body_instrs: u64,
    last_use: u64,
    inserted: u64,
}

/// The input bank of an instance that left its entry while its region
/// kept the tag, and why it left. Ghosts let a later miss on the same
/// inputs be classified as a capacity or invalidation casualty instead
/// of a plain mismatch. Purely diagnostic: never consulted by hit or
/// replacement decisions.
#[derive(Clone, Debug)]
struct Ghost {
    inputs: Vec<(Reg, Value)>,
    fp: u64,
    cause: MissCause,
}

#[derive(Clone, Debug)]
struct Entry {
    tag: Option<RegionId>,
    slots: Vec<Instance>,
    /// Oldest first; misses are classified newest-first.
    ghosts: VecDeque<Ghost>,
}

impl Entry {
    /// The entry's ghost capacity: twice its instance count.
    fn ghost_cap(&self) -> usize {
        self.slots.len() * 2
    }

    /// Remembers slot `k`'s input bank, keeping at most
    /// [`ghost_cap`](Entry::ghost_cap) ghosts (oldest dropped first).
    fn ghost_from_slot(&mut self, k: usize, cause: MissCause) {
        if self.ghosts.len() >= self.ghost_cap() {
            self.ghosts.pop_front();
        }
        let slot = &self.slots[k];
        self.ghosts.push_back(Ghost {
            inputs: slot.inputs.clone(),
            fp: slot.fp,
            cause,
        });
    }
}

/// The hardware buffer. Implements [`CrbModel`] so the emulator can
/// consult it during execution-driven simulation.
///
/// ```
/// use ccr_ir::{Reg, RegionId, Value};
/// use ccr_profile::{CrbModel, RecordedInstance};
/// use ccr_sim::{CrbConfig, ReuseBuffer};
///
/// let mut buf = ReuseBuffer::new(CrbConfig::paper());
/// buf.record(RegionId(3), RecordedInstance {
///     inputs: vec![(Reg(1), Value::from_int(17))],
///     outputs: vec![(Reg(2), Value::from_int(289))],
///     accesses_memory: false,
///     body_instrs: 12,
/// });
/// // A lookup with r1 = 17 replays the recorded outputs.
/// let hit = buf.lookup(RegionId(3), &mut |_| Value::from_int(17)).unwrap();
/// assert_eq!(hit.outputs[0].1.as_int(), 289);
/// assert_eq!(hit.skipped_instrs, 12);
/// // A different input misses.
/// assert!(buf.lookup(RegionId(3), &mut |_| Value::from_int(18)).is_none());
/// ```
#[derive(Clone, Debug)]
pub struct ReuseBuffer {
    config: CrbConfig,
    entries: Vec<Entry>,
    clock: u64,
    rng: u64,
    stats: CrbStats,
    log_events: bool,
    events: Vec<CrbEvent>,
    /// Regions that ever had an instance actually inserted (dropped
    /// records — oversized banks, mem-incapable entries — don't
    /// count). Misses on regions outside this set are cold.
    ever_recorded: HashSet<RegionId>,
    /// Cause of the most recent miss; `None` after a hit.
    last_miss_cause: Option<MissCause>,
}

impl ReuseBuffer {
    /// Creates an empty buffer.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero entries or instances.
    pub fn new(config: CrbConfig) -> ReuseBuffer {
        assert!(config.entries > 0 && config.instances > 0);
        if let Some(nu) = config.nonuniform {
            assert!(nu.boost_every > 0 && nu.boosted_instances > 0);
            assert!(nu.mem_capable_percent <= 100);
        }
        ReuseBuffer {
            entries: (0..config.entries)
                .map(|idx| {
                    let count = match config.nonuniform {
                        Some(nu) if idx % nu.boost_every == 0 => nu.boosted_instances,
                        _ => config.instances,
                    };
                    Entry {
                        tag: None,
                        slots: vec![Instance::default(); count],
                        ghosts: VecDeque::new(),
                    }
                })
                .collect(),
            config,
            clock: 0,
            rng: 0x9e37_79b9_7f4a_7c15,
            stats: CrbStats::default(),
            log_events: false,
            events: Vec::new(),
            ever_recorded: HashSet::new(),
            last_miss_cause: None,
        }
    }

    /// The buffer's counters.
    pub fn stats(&self) -> CrbStats {
        self.stats.check();
        self.stats
    }

    /// Turns the eviction/conflict/invalidation event log on or off.
    /// Off by default: the log allocates, and most simulations never
    /// read it.
    pub fn set_event_logging(&mut self, on: bool) {
        self.log_events = on;
    }

    /// Drains the logged events, oldest first.
    pub fn take_events(&mut self) -> Vec<CrbEvent> {
        std::mem::take(&mut self.events)
    }

    /// Valid instances currently held by the entry at `idx`.
    fn occupancy(&self, idx: usize) -> usize {
        self.entries[idx].slots.iter().filter(|i| i.valid).count()
    }

    /// The buffer's geometry.
    pub fn config(&self) -> CrbConfig {
        self.config
    }

    fn entry_index(&self, region: RegionId) -> usize {
        region.index() % self.config.entries
    }

    /// True if the entry at `idx` may hold memory-dependent instances.
    fn mem_capable(&self, idx: usize) -> bool {
        match self.config.nonuniform {
            None => true,
            Some(nu) => idx * 100 < self.config.entries * nu.mem_capable_percent as usize,
        }
    }

    fn next_random(&mut self) -> u64 {
        // xorshift64*: deterministic, seedless-reproducible.
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Captures the complete buffer state as plain data.
    ///
    /// # Errors
    ///
    /// Event-logging buffers cannot be snapshotted: the event log is
    /// diagnostic state the snapshot format deliberately excludes.
    pub fn snapshot(&self) -> Result<CrbSnapshot, String> {
        if self.log_events {
            return Err("cannot snapshot a reuse buffer with event logging enabled".to_string());
        }
        let mut ever: Vec<u32> = self.ever_recorded.iter().map(|r| r.0).collect();
        ever.sort_unstable();
        Ok(CrbSnapshot {
            clock: self.clock,
            rng: self.rng,
            stats: self.stats,
            last_miss_cause: self.last_miss_cause.map(cause_index),
            ever_recorded: ever,
            entries: self
                .entries
                .iter()
                .map(|e| CrbEntrySnapshot {
                    tag: e.tag.map(|r| r.0),
                    instances: e
                        .slots
                        .iter()
                        .map(|i| CrbInstanceSnapshot {
                            valid: i.valid,
                            inputs: bank_to_snapshot(&i.inputs),
                            fp: i.fp,
                            outputs: bank_to_snapshot(&i.outputs),
                            accesses_memory: i.accesses_memory,
                            body_instrs: i.body_instrs,
                            last_use: i.last_use,
                            inserted: i.inserted,
                        })
                        .collect(),
                    ghosts: e
                        .ghosts
                        .iter()
                        .map(|g| CrbGhostSnapshot {
                            inputs: bank_to_snapshot(&g.inputs),
                            fp: g.fp,
                            cause: cause_index(g.cause),
                        })
                        .collect(),
                })
                .collect(),
        })
    }

    /// Rebuilds a mid-run buffer from a snapshot.
    ///
    /// # Errors
    ///
    /// Returns a one-line description when the snapshot geometry does
    /// not match `config`, a bank is wider than `config` lets `record`
    /// store, a miss-cause index is out of range, a valid instance's
    /// or a ghost's stored fingerprint is not the fingerprint of its
    /// inputs, or the clock or a counter is at `u64::MAX`, where its
    /// next increment would overflow.
    pub fn restore(config: CrbConfig, snap: &CrbSnapshot) -> Result<ReuseBuffer, String> {
        if snap.clock == u64::MAX {
            return Err("crb clock is at u64::MAX and would overflow on the next lookup".into());
        }
        let mut saturated = false;
        snap.stats.fold_state(&mut |n| saturated |= n == u64::MAX);
        if saturated {
            return Err("crb counter is at u64::MAX and would overflow".into());
        }
        let mut buf = ReuseBuffer::new(config);
        if snap.entries.len() != buf.entries.len() {
            return Err(format!(
                "crb snapshot has {} entries, config wants {}",
                snap.entries.len(),
                buf.entries.len()
            ));
        }
        let bank = |what: &str, bank: &[(u32, u64)], kind: &str, cap: usize| {
            if bank.len() > cap {
                return Err(format!(
                    "{what}: {} {kind}s exceed the {cap}-entry {kind} bank",
                    bank.len()
                ));
            }
            Ok(bank_from_snapshot(bank))
        };
        // `record` dedups by fingerprint before comparing banks, so a
        // stored fingerprint that disagrees with its inputs would let a
        // re-record duplicate a live instance. Invalid slots are never
        // compared (a never-written one keeps 0).
        let inputs = |what: &str, inputs: &[(u32, u64)], fp: Option<u64>| {
            let inputs = bank(what, inputs, "input", config.input_bank)?;
            match fp {
                Some(fp) if fp != fingerprint(&inputs) => Err(format!(
                    "{what}: fingerprint {fp:#x} does not match its inputs"
                )),
                _ => Ok(inputs),
            }
        };
        for (idx, (es, entry)) in snap.entries.iter().zip(buf.entries.iter_mut()).enumerate() {
            if es.instances.len() != entry.slots.len() {
                return Err(format!(
                    "crb entry {idx} has {} instances, config wants {}",
                    es.instances.len(),
                    entry.slots.len()
                ));
            }
            if es.ghosts.len() > entry.ghost_cap() {
                return Err(format!(
                    "crb entry {idx} has {} ghosts, capacity is {}",
                    es.ghosts.len(),
                    entry.ghost_cap()
                ));
            }
            entry.tag = es.tag.map(RegionId);
            for (k, (i, slot)) in es.instances.iter().zip(&mut entry.slots).enumerate() {
                let what = format!("crb entry {idx} instance {k}");
                *slot = Instance {
                    valid: i.valid,
                    inputs: inputs(&what, &i.inputs, i.valid.then_some(i.fp))?,
                    fp: i.fp,
                    outputs: bank(&what, &i.outputs, "output", config.output_bank)?,
                    accesses_memory: i.accesses_memory,
                    body_instrs: i.body_instrs,
                    last_use: i.last_use,
                    inserted: i.inserted,
                };
            }
            for (k, g) in es.ghosts.iter().enumerate() {
                entry.ghosts.push_back(Ghost {
                    inputs: inputs(&format!("crb entry {idx} ghost {k}"), &g.inputs, Some(g.fp))?,
                    fp: g.fp,
                    cause: cause_from_index(g.cause)?,
                });
            }
        }
        buf.clock = snap.clock;
        buf.rng = snap.rng;
        buf.stats = snap.stats;
        buf.last_miss_cause = snap.last_miss_cause.map(cause_from_index).transpose()?;
        buf.ever_recorded = snap.ever_recorded.iter().map(|r| RegionId(*r)).collect();
        Ok(buf)
    }

    /// Folds the full buffer state into `push` in a deterministic
    /// order (the `ever_recorded` set is sorted first; slots in slot
    /// order, ghosts oldest first). The event log is excluded: it
    /// never alters simulated outcomes.
    pub fn fold_state(&self, push: &mut dyn FnMut(u64)) {
        fn push_bank(push: &mut dyn FnMut(u64), bank: &[(Reg, Value)]) {
            push(bank.len() as u64);
            for &(r, v) in bank {
                push(u64::from(r.0));
                push(v.0 as u64);
            }
        }
        push(self.clock);
        push(self.rng);
        self.stats.fold_state(push);
        match self.last_miss_cause {
            None => push(0),
            Some(c) => {
                push(1);
                push(cause_index(c));
            }
        }
        let mut ever: Vec<u32> = self.ever_recorded.iter().map(|r| r.0).collect();
        ever.sort_unstable();
        push(ever.len() as u64);
        for r in ever {
            push(u64::from(r));
        }
        push(self.entries.len() as u64);
        for e in &self.entries {
            match e.tag {
                None => push(0),
                Some(r) => {
                    push(1);
                    push(u64::from(r.0));
                }
            }
            push(e.slots.len() as u64);
            for i in &e.slots {
                push(u64::from(i.valid));
                push_bank(push, &i.inputs);
                push(i.fp);
                push_bank(push, &i.outputs);
                push(u64::from(i.accesses_memory));
                push(i.body_instrs);
                push(i.last_use);
                push(i.inserted);
            }
            push(e.ghosts.len() as u64);
            for g in &e.ghosts {
                push_bank(push, &g.inputs);
                push(g.fp);
                push(cause_index(g.cause));
            }
        }
    }

    /// Test hook: XORs the replacement RNG stream with a constant,
    /// deterministically disturbing internal state so fingerprint
    /// divergence can be injected at a chosen point.
    #[doc(hidden)]
    pub fn perturb_for_tests(&mut self) {
        self.rng ^= 0xdead_beef_0bad_f00d;
    }

    /// The slot a new instance goes to: the first invalid one, else
    /// the replacement policy's choice (first minimum on ties).
    fn victim_slot(&mut self, idx: usize) -> usize {
        let slots = &self.entries[idx].slots;
        if let Some(free) = slots.iter().position(|i| !i.valid) {
            return free;
        }
        let first_min = |key: fn(&Instance) -> u64| {
            (0..slots.len())
                .min_by_key(|&k| key(&slots[k]))
                .expect("entries have at least one slot")
        };
        match self.config.replacement {
            Replacement::Lru => first_min(|i| i.last_use),
            Replacement::Fifo => first_min(|i| i.inserted),
            Replacement::Random => {
                let n = slots.len() as u64;
                (self.next_random() % n) as usize
            }
        }
    }

    /// Counts a miss with its cause.
    fn miss(&mut self, cause: MissCause) -> Option<ReuseLookup> {
        self.stats.misses += 1;
        self.stats.count_miss_cause(cause);
        self.last_miss_cause = Some(cause);
        None
    }
}

impl CrbModel for ReuseBuffer {
    fn lookup(
        &mut self,
        region: RegionId,
        read_reg: &mut dyn FnMut(Reg) -> Value,
    ) -> Option<ReuseLookup> {
        self.stats.lookups += 1;
        self.clock += 1;
        let idx = self.entry_index(region);
        let entry = &mut self.entries[idx];
        if entry.tag != Some(region) {
            // The tag only moves away from a recorded region via a
            // direct-mapped reassignment, so a tag miss on a known
            // region is a conflict casualty.
            return self.miss(if self.ever_recorded.contains(&region) {
                MissCause::Conflict
            } else {
                MissCause::Cold
            });
        }
        // The first valid instance in slot order whose inputs all hold.
        let Some(hit) = entry
            .slots
            .iter_mut()
            .find(|i| i.valid && holds(&i.inputs, read_reg))
        else {
            // The newest ghost that holds names the cause; else no
            // live instance means invalidation emptied the entry
            // (records always leave one), else a plain mismatch.
            let cause = match entry
                .ghosts
                .iter()
                .rev()
                .find(|g| holds(&g.inputs, read_reg))
            {
                Some(g) => g.cause,
                None if entry.slots.iter().all(|i| !i.valid) => MissCause::Invalidated,
                None => MissCause::Mismatch,
            };
            return self.miss(cause);
        };
        hit.last_use = self.clock;
        let hit = ReuseLookup {
            outputs: hit.outputs.clone(),
            inputs: hit.inputs.iter().map(|&(r, _)| r).collect(),
            skipped_instrs: hit.body_instrs,
        };
        self.stats.hits += 1;
        self.last_miss_cause = None;
        Some(hit)
    }

    fn record(&mut self, region: RegionId, instance: RecordedInstance) {
        if instance.inputs.len() > self.config.input_bank
            || instance.outputs.len() > self.config.output_bank
        {
            return; // exceeds bank capacity: drop (defensive)
        }
        self.clock += 1;
        let idx = self.entry_index(region);
        if instance.accesses_memory && !self.mem_capable(idx) {
            return; // this entry has no memory-validation hardware
        }
        self.stats.records += 1;
        if self.entries[idx].tag != Some(region) {
            if self.entries[idx].tag.is_some() {
                self.stats.entry_conflicts += 1;
                if self.log_events {
                    self.events.push(CrbEvent {
                        clock: self.clock,
                        kind: CrbEventKind::Conflict,
                        region,
                        entry: idx,
                        occupancy: 0,
                        lost: self.occupancy(idx),
                    });
                }
            }
            let entry = &mut self.entries[idx];
            entry.tag = Some(region);
            entry.slots.fill(Instance::default());
            entry.ghosts.clear();
        }
        // An instance with the identical input bank is refreshed in
        // place rather than duplicated (duplicates would waste
        // capacity and let a replacement evict live input sets).
        let fp = fingerprint(&instance.inputs);
        let existing = self.entries[idx]
            .slots
            .iter()
            .position(|i| i.valid && i.fp == fp && i.inputs == instance.inputs);
        let slot = match existing {
            Some(k) => k,
            None => {
                let k = self.victim_slot(idx);
                if self.entries[idx].slots[k].valid {
                    if self.log_events {
                        self.events.push(CrbEvent {
                            clock: self.clock,
                            kind: CrbEventKind::Evict,
                            region,
                            entry: idx,
                            // The victim is overwritten by the incoming
                            // instance, so occupancy is unchanged.
                            occupancy: self.occupancy(idx),
                            lost: 1,
                        });
                    }
                    self.entries[idx].ghost_from_slot(k, MissCause::Capacity);
                }
                k
            }
        };
        let entry = &mut self.entries[idx];
        entry
            .ghosts
            .retain(|g| !(g.fp == fp && g.inputs == instance.inputs));
        entry.slots[slot] = Instance {
            valid: true,
            inputs: instance.inputs,
            fp,
            outputs: instance.outputs,
            accesses_memory: instance.accesses_memory,
            body_instrs: instance.body_instrs,
            last_use: self.clock,
            inserted: self.clock,
        };
        self.ever_recorded.insert(region);
    }

    fn invalidate(&mut self, region: RegionId) {
        self.stats.invalidations += 1;
        let idx = self.entry_index(region);
        let entry = &mut self.entries[idx];
        let mut killed = 0;
        if entry.tag == Some(region) {
            for k in 0..entry.slots.len() {
                if entry.slots[k].valid && entry.slots[k].accesses_memory {
                    entry.slots[k].valid = false;
                    killed += 1;
                    entry.ghost_from_slot(k, MissCause::Invalidated);
                }
            }
        }
        if self.log_events && killed > 0 {
            self.events.push(CrbEvent {
                clock: self.clock,
                kind: CrbEventKind::Invalidate,
                region,
                entry: idx,
                occupancy: self.occupancy(idx),
                lost: killed,
            });
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
#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn inst(input: i64, output: i64, mem: bool) -> RecordedInstance {
        RecordedInstance {
            inputs: vec![(Reg(0), Value::from_int(input))],
            outputs: vec![(Reg(1), Value::from_int(output))],
            accesses_memory: mem,
            body_instrs: 10,
        }
    }

    fn lookup_with(buf: &mut ReuseBuffer, region: RegionId, r0: i64) -> Option<ReuseLookup> {
        buf.lookup(region, &mut |r| {
            assert_eq!(r, Reg(0));
            Value::from_int(r0)
        })
    }

    #[test]
    fn record_then_hit_on_matching_inputs() {
        let mut buf = ReuseBuffer::new(CrbConfig::paper());
        let r = RegionId(3);
        assert!(lookup_with(&mut buf, r, 5).is_none());
        buf.record(r, inst(5, 50, false));
        let hit = lookup_with(&mut buf, r, 5).expect("hit");
        assert_eq!(hit.outputs, vec![(Reg(1), Value::from_int(50))]);
        assert_eq!(hit.skipped_instrs, 10);
        assert!(lookup_with(&mut buf, r, 6).is_none(), "different input");
        let s = buf.stats();
        assert_eq!(s.lookups, 3);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert_eq!(s.records, 1);
    }

    #[test]
    fn instances_with_different_register_sequences_each_match_their_own_inputs() {
        // Two paths through one region read their inputs in different
        // orders and through different registers.
        let path = |inputs: [(u32, i64); 2], output: i64| RecordedInstance {
            inputs: inputs
                .iter()
                .map(|&(r, v)| (Reg(r), Value::from_int(v)))
                .collect(),
            outputs: vec![(Reg(9), Value::from_int(output))],
            accesses_memory: false,
            body_instrs: 10,
        };
        let mut buf = ReuseBuffer::new(CrbConfig::paper());
        let r = RegionId(0);
        buf.record(r, path([(1, 5), (2, 7)], 12));
        buf.record(r, path([(2, 9), (4, 1)], 10));
        let mut lookup = |regs: [i64; 5]| {
            buf.lookup(r, &mut |reg| Value::from_int(regs[reg.index()]))
                .map(|hit| hit.outputs[0].1.as_int())
        };
        // Each instance hits on its own registers' values, whatever
        // the registers only the other instance reads hold...
        assert_eq!(lookup([0, 5, 7, 0, 3]), Some(12));
        assert_eq!(lookup([0, 6, 9, 0, 1]), Some(10));
        // ...and misses when only the other instance's inputs match.
        assert_eq!(lookup([0, 5, 9, 0, 3]), None);
        assert_eq!(lookup([0, 5, 8, 0, 1]), None);
    }

    #[test]
    fn restore_rejects_fingerprints_that_disagree_with_their_inputs() {
        let config = CrbConfig::with_instances(2);
        let mut buf = ReuseBuffer::new(config);
        let r = RegionId(0);
        buf.record(r, inst(1, 10, true));
        buf.invalidate(r); // slot 0 invalid, one Invalidated ghost
        buf.record(r, inst(2, 20, false));
        let snap = buf.snapshot().unwrap();
        assert!(ReuseBuffer::restore(config, &snap).is_ok());

        // Slot 1 was never written; its fingerprint is not checked.
        let mut stale = snap.clone();
        stale.entries[0].instances[1].fp ^= 1;
        assert!(ReuseBuffer::restore(config, &stale).is_ok());

        let mut live = snap.clone();
        let valid = live.entries[0]
            .instances
            .iter()
            .position(|i| i.valid)
            .unwrap();
        live.entries[0].instances[valid].fp ^= 1;
        let err = ReuseBuffer::restore(config, &live).unwrap_err();
        assert!(
            err.starts_with(&format!("crb entry 0 instance {valid}: fingerprint ")),
            "{err}"
        );

        let mut ghost = snap;
        ghost.entries[0].ghosts[0].fp ^= 1;
        let err = ReuseBuffer::restore(config, &ghost).unwrap_err();
        assert!(
            err.starts_with("crb entry 0 ghost 0: fingerprint "),
            "{err}"
        );
    }

    #[test]
    fn restore_rejects_banks_wider_than_record_stores() {
        let config = CrbConfig {
            input_bank: 1,
            output_bank: 1,
            ..CrbConfig::with_instances(2)
        };
        let mut buf = ReuseBuffer::new(config);
        let r = RegionId(0);
        buf.record(r, inst(1, 10, true));
        buf.invalidate(r); // slot 0 invalid, one Invalidated ghost
        let snap = buf.snapshot().unwrap();
        assert!(ReuseBuffer::restore(config, &snap).is_ok());
        let extra = (7, 7);

        // Stale banks of an invalid slot are checked too.
        let mut wide = snap.clone();
        wide.entries[0].instances[0].inputs.push(extra);
        let err = ReuseBuffer::restore(config, &wide).unwrap_err();
        assert_eq!(
            err,
            "crb entry 0 instance 0: 2 inputs exceed the 1-entry input bank"
        );

        let mut wide = snap.clone();
        wide.entries[0].instances[1].outputs.extend([extra, extra]);
        let err = ReuseBuffer::restore(config, &wide).unwrap_err();
        assert_eq!(
            err,
            "crb entry 0 instance 1: 2 outputs exceed the 1-entry output bank"
        );

        let mut wide = snap;
        wide.entries[0].ghosts[0].inputs.push(extra);
        let err = ReuseBuffer::restore(config, &wide).unwrap_err();
        assert_eq!(
            err,
            "crb entry 0 ghost 0: 2 inputs exceed the 1-entry input bank"
        );
    }

    #[test]
    fn multiple_instances_capture_multiple_input_sets() {
        let mut buf = ReuseBuffer::new(CrbConfig::with_instances(4));
        let r = RegionId(0);
        for v in 0..4 {
            buf.record(r, inst(v, v * 10, false));
        }
        for v in 0..4 {
            let hit = lookup_with(&mut buf, r, v).expect("all four retained");
            assert_eq!(hit.outputs[0].1, Value::from_int(v * 10));
        }
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut buf = ReuseBuffer::new(CrbConfig {
            entries: 4,
            instances: 2,
            input_bank: 8,
            output_bank: 8,
            replacement: Replacement::Lru,
            nonuniform: None,
        });
        let r = RegionId(0);
        buf.record(r, inst(1, 10, false));
        buf.record(r, inst(2, 20, false));
        // Touch instance 1, making instance 2 the LRU.
        assert!(lookup_with(&mut buf, r, 1).is_some());
        buf.record(r, inst(3, 30, false));
        assert!(lookup_with(&mut buf, r, 1).is_some(), "recently used kept");
        assert!(lookup_with(&mut buf, r, 2).is_none(), "LRU evicted");
        assert!(lookup_with(&mut buf, r, 3).is_some());
    }

    #[test]
    fn fifo_evicts_oldest() {
        let mut buf = ReuseBuffer::new(CrbConfig {
            entries: 4,
            instances: 2,
            input_bank: 8,
            output_bank: 8,
            replacement: Replacement::Fifo,
            nonuniform: None,
        });
        let r = RegionId(0);
        buf.record(r, inst(1, 10, false));
        buf.record(r, inst(2, 20, false));
        assert!(lookup_with(&mut buf, r, 1).is_some()); // touch 1
        buf.record(r, inst(3, 30, false));
        // FIFO ignores the touch: instance 1 (oldest) is evicted.
        assert!(lookup_with(&mut buf, r, 1).is_none());
        assert!(lookup_with(&mut buf, r, 2).is_some());
    }

    #[test]
    fn entry_conflict_replaces_tag_and_clears_instances() {
        let mut buf = ReuseBuffer::new(CrbConfig {
            entries: 2,
            instances: 4,
            input_bank: 8,
            output_bank: 8,
            replacement: Replacement::Lru,
            nonuniform: None,
        });
        // Regions 0 and 2 collide on entry 0.
        buf.record(RegionId(0), inst(1, 10, false));
        assert!(lookup_with(&mut buf, RegionId(0), 1).is_some());
        buf.record(RegionId(2), inst(1, 99, false));
        assert!(
            lookup_with(&mut buf, RegionId(0), 1).is_none(),
            "tag conflict evicts the old region"
        );
        let hit = lookup_with(&mut buf, RegionId(2), 1).unwrap();
        assert_eq!(hit.outputs[0].1, Value::from_int(99));
        assert_eq!(buf.stats().entry_conflicts, 1);
    }

    #[test]
    fn invalidate_kills_only_memory_instances() {
        let mut buf = ReuseBuffer::new(CrbConfig::paper());
        let r = RegionId(7);
        buf.record(r, inst(1, 10, true)); // memory-dependent
        buf.record(r, inst(2, 20, false)); // stateless
        buf.invalidate(r);
        assert!(lookup_with(&mut buf, r, 1).is_none(), "md instance dead");
        assert!(lookup_with(&mut buf, r, 2).is_some(), "sl instance alive");
        assert_eq!(buf.stats().invalidations, 1);
    }

    #[test]
    fn oversized_banks_are_rejected() {
        let mut buf = ReuseBuffer::new(CrbConfig {
            entries: 2,
            instances: 2,
            input_bank: 1,
            output_bank: 8,
            replacement: Replacement::Lru,
            nonuniform: None,
        });
        let too_big = RecordedInstance {
            inputs: vec![(Reg(0), Value::from_int(1)), (Reg(1), Value::from_int(2))],
            outputs: vec![],
            accesses_memory: false,
            body_instrs: 5,
        };
        buf.record(RegionId(0), too_big);
        assert_eq!(buf.stats().records, 0);
    }

    #[test]
    fn nonuniform_boosted_entries_hold_more_instances() {
        let mut buf = ReuseBuffer::new(CrbConfig {
            entries: 8,
            instances: 2,
            input_bank: 8,
            output_bank: 8,
            replacement: Replacement::Lru,
            nonuniform: Some(NonuniformConfig {
                boost_every: 4,
                boosted_instances: 4,
                mem_capable_percent: 100,
            }),
        });
        // Region 0 maps to a boosted entry (4 instances): all four
        // input sets survive.
        for v in 0..4 {
            buf.record(RegionId(0), inst(v, v, false));
        }
        for v in 0..4 {
            assert!(lookup_with(&mut buf, RegionId(0), v).is_some(), "v={v}");
        }
        // Region 1 maps to a base entry (2 instances): only the two
        // most recent survive.
        for v in 0..4 {
            buf.record(RegionId(1), inst(v, v, false));
        }
        assert!(lookup_with(&mut buf, RegionId(1), 0).is_none());
        assert!(lookup_with(&mut buf, RegionId(1), 3).is_some());
    }

    #[test]
    fn nonuniform_mem_capability_partitions_entries() {
        let mut buf = ReuseBuffer::new(CrbConfig {
            entries: 4,
            instances: 2,
            input_bank: 8,
            output_bank: 8,
            replacement: Replacement::Lru,
            nonuniform: Some(NonuniformConfig {
                boost_every: 1,
                boosted_instances: 2,
                mem_capable_percent: 50,
            }),
        });
        // Entries 0-1 are memory-capable; entries 2-3 are not.
        buf.record(RegionId(0), inst(1, 10, true));
        assert!(lookup_with(&mut buf, RegionId(0), 1).is_some());
        buf.record(RegionId(3), inst(1, 10, true));
        assert!(
            lookup_with(&mut buf, RegionId(3), 1).is_none(),
            "memory instance dropped by a mem-incapable entry"
        );
        // Stateless instances are fine anywhere.
        buf.record(RegionId(3), inst(2, 20, false));
        assert!(lookup_with(&mut buf, RegionId(3), 2).is_some());
    }

    #[test]
    fn event_log_is_off_by_default() {
        let mut buf = ReuseBuffer::new(CrbConfig::with_instances(1));
        let r = RegionId(0);
        buf.record(r, inst(1, 10, false));
        buf.record(r, inst(2, 20, false)); // evicts instance 1
        assert!(buf.take_events().is_empty());
    }

    #[test]
    fn event_log_captures_evictions_conflicts_and_invalidations() {
        let mut buf = ReuseBuffer::new(CrbConfig {
            entries: 2,
            instances: 2,
            ..CrbConfig::paper()
        });
        buf.set_event_logging(true);
        // Fill entry 0 for region 0, then overflow it: one eviction.
        buf.record(RegionId(0), inst(1, 10, false));
        buf.record(RegionId(0), inst(2, 20, false));
        buf.record(RegionId(0), inst(3, 30, false));
        // Region 2 collides with region 0 on entry 0: one conflict.
        buf.record(RegionId(2), inst(4, 40, true));
        // Kill region 2's memory-dependent instance: one invalidation.
        buf.invalidate(RegionId(2));
        // A no-op invalidate (nothing memory-dependent left) logs nothing.
        buf.invalidate(RegionId(2));

        let events = buf.take_events();
        let kinds: Vec<CrbEventKind> = events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                CrbEventKind::Evict,
                CrbEventKind::Conflict,
                CrbEventKind::Invalidate
            ],
            "{events:?}"
        );
        let evict = &events[0];
        assert_eq!(evict.entry, 0);
        assert_eq!(evict.occupancy, 2, "entry stays full across an eviction");
        assert_eq!(evict.lost, 1);
        let conflict = &events[1];
        assert_eq!(conflict.region, RegionId(2));
        assert_eq!(conflict.occupancy, 0);
        assert_eq!(conflict.lost, 2, "both of region 0's instances cleared");
        let inval = &events[2];
        assert_eq!(inval.occupancy, 0);
        assert_eq!(inval.lost, 1);
        // Clocks are monotonically non-decreasing.
        assert!(events.windows(2).all(|w| w[0].clock <= w[1].clock));
        // The log drains.
        assert!(buf.take_events().is_empty());
    }

    fn assert_causes(buf: &ReuseBuffer, expected: &[(MissCause, u64)]) {
        let s = buf.stats();
        for &(cause, want) in expected {
            let got = match cause {
                MissCause::Cold => s.miss_cold,
                MissCause::Mismatch => s.miss_mismatch,
                MissCause::Capacity => s.miss_capacity,
                MissCause::Conflict => s.miss_conflict,
                MissCause::Invalidated => s.miss_invalidated,
            };
            assert_eq!(got, want, "{cause:?}: {s:?}");
        }
        assert_eq!(s.miss_cause_total(), s.misses, "{s:?}");
    }

    #[test]
    fn cold_miss_is_classified_cold() {
        let mut buf = ReuseBuffer::new(CrbConfig::paper());
        assert!(lookup_with(&mut buf, RegionId(3), 5).is_none());
        assert_eq!(buf.last_miss_cause(), Some(MissCause::Cold));
        assert_causes(&buf, &[(MissCause::Cold, 1)]);
    }

    #[test]
    fn input_mismatch_is_classified_mismatch() {
        let mut buf = ReuseBuffer::new(CrbConfig::paper());
        let r = RegionId(3);
        buf.record(r, inst(5, 50, false));
        assert!(lookup_with(&mut buf, r, 6).is_none());
        assert_eq!(buf.last_miss_cause(), Some(MissCause::Mismatch));
        assert!(lookup_with(&mut buf, r, 5).is_some());
        assert_eq!(buf.last_miss_cause(), None, "hits clear the cause");
        assert_causes(&buf, &[(MissCause::Mismatch, 1), (MissCause::Cold, 0)]);
    }

    #[test]
    fn capacity_eviction_is_classified_capacity() {
        let mut buf = ReuseBuffer::new(CrbConfig::with_instances(1));
        let r = RegionId(0);
        buf.record(r, inst(1, 10, false));
        buf.record(r, inst(2, 20, false)); // evicts input set 1
        assert!(lookup_with(&mut buf, r, 1).is_none());
        assert_eq!(buf.last_miss_cause(), Some(MissCause::Capacity));
        // Inputs never recorded at all are a mismatch, not capacity.
        assert!(lookup_with(&mut buf, r, 9).is_none());
        assert_eq!(buf.last_miss_cause(), Some(MissCause::Mismatch));
        assert_causes(&buf, &[(MissCause::Capacity, 1), (MissCause::Mismatch, 1)]);
    }

    #[test]
    fn entry_conflict_is_classified_conflict() {
        let mut buf = ReuseBuffer::new(CrbConfig {
            entries: 2,
            instances: 4,
            ..CrbConfig::paper()
        });
        // Regions 0 and 2 collide on entry 0.
        buf.record(RegionId(0), inst(1, 10, false));
        buf.record(RegionId(2), inst(1, 99, false));
        assert!(lookup_with(&mut buf, RegionId(0), 1).is_none());
        assert_eq!(buf.last_miss_cause(), Some(MissCause::Conflict));
        // A region that never recorded stays cold even when its entry
        // is held by someone else.
        assert!(lookup_with(&mut buf, RegionId(4), 1).is_none());
        assert_eq!(buf.last_miss_cause(), Some(MissCause::Cold));
        assert_causes(&buf, &[(MissCause::Conflict, 1), (MissCause::Cold, 1)]);
    }

    #[test]
    fn invalidation_is_classified_invalidated() {
        let mut buf = ReuseBuffer::new(CrbConfig::paper());
        let r = RegionId(7);
        buf.record(r, inst(1, 10, true));
        buf.invalidate(r);
        assert!(lookup_with(&mut buf, r, 1).is_none());
        assert_eq!(buf.last_miss_cause(), Some(MissCause::Invalidated));
        // With a stateless sibling alive, an unrelated input set is a
        // mismatch while the killed set still blames the invalidate.
        buf.record(r, inst(2, 20, false));
        assert!(lookup_with(&mut buf, r, 3).is_none());
        assert_eq!(buf.last_miss_cause(), Some(MissCause::Mismatch));
        assert!(lookup_with(&mut buf, r, 1).is_none());
        assert_eq!(buf.last_miss_cause(), Some(MissCause::Invalidated));
        assert_causes(
            &buf,
            &[(MissCause::Invalidated, 2), (MissCause::Mismatch, 1)],
        );
    }

    #[test]
    fn rerecorded_inputs_shed_their_ghost() {
        let mut buf = ReuseBuffer::new(CrbConfig::with_instances(1));
        let r = RegionId(0);
        buf.record(r, inst(1, 10, false));
        buf.record(r, inst(2, 20, false)); // ghost for input set 1
        buf.record(r, inst(1, 10, false)); // input set 1 live again, ghost gone
        buf.record(r, inst(3, 30, false)); // new ghost for input set 1
        assert!(lookup_with(&mut buf, r, 1).is_none());
        assert_eq!(buf.last_miss_cause(), Some(MissCause::Capacity));
        assert_causes(&buf, &[(MissCause::Capacity, 1)]);
    }

    #[test]
    fn cause_counters_sum_to_misses_across_a_mixed_history() {
        let mut buf = ReuseBuffer::new(CrbConfig {
            entries: 2,
            instances: 1,
            ..CrbConfig::paper()
        });
        let _ = lookup_with(&mut buf, RegionId(0), 1); // cold
        buf.record(RegionId(0), inst(1, 10, false));
        let _ = lookup_with(&mut buf, RegionId(0), 2); // mismatch
        buf.record(RegionId(0), inst(2, 20, false)); // evicts set 1
        let _ = lookup_with(&mut buf, RegionId(0), 1); // capacity
        buf.record(RegionId(2), inst(7, 70, true)); // conflict on entry 0
        let _ = lookup_with(&mut buf, RegionId(0), 2); // conflict
        buf.invalidate(RegionId(2));
        let _ = lookup_with(&mut buf, RegionId(2), 7); // invalidated
        let _ = lookup_with(&mut buf, RegionId(0), 1); // conflict again
        let s = buf.stats();
        assert_eq!(s.hits, 0);
        assert_eq!(s.misses, 6);
        assert_causes(
            &buf,
            &[
                (MissCause::Cold, 1),
                (MissCause::Mismatch, 1),
                (MissCause::Capacity, 1),
                (MissCause::Conflict, 2),
                (MissCause::Invalidated, 1),
            ],
        );
    }

    #[test]
    fn random_replacement_is_deterministic() {
        let run = || {
            let mut buf = ReuseBuffer::new(CrbConfig {
                entries: 2,
                instances: 2,
                input_bank: 8,
                output_bank: 8,
                replacement: Replacement::Random,
                nonuniform: None,
            });
            let r = RegionId(0);
            for v in 0..10 {
                buf.record(r, inst(v, v, false));
            }
            (0..10)
                .map(|v| lookup_with(&mut buf, r, v).is_some())
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(), run());
    }

    /// A register bank of up to four pairs.
    fn bank() -> impl Strategy<Value = Vec<(u32, u64)>> {
        prop::collection::vec((0u32..8, any::<u64>()), 0..5)
    }

    /// `bank`'s own fingerprint when `honest`, else `fp`.
    fn stored_fp(bank: &[(u32, u64)], honest: bool, fp: u64) -> u64 {
        if honest {
            fingerprint(&bank_from_snapshot(bank))
        } else {
            fp
        }
    }

    fn instance_snapshot() -> impl Strategy<Value = CrbInstanceSnapshot> {
        (
            any::<bool>(),
            bank(),
            (any::<bool>(), any::<u64>()),
            bank(),
            any::<bool>(),
            (any::<u64>(), any::<u64>(), any::<u64>()),
        )
            .prop_map(
                |(valid, inputs, (honest, fp), outputs, accesses_memory, times)| {
                    CrbInstanceSnapshot {
                        valid,
                        fp: stored_fp(&inputs, honest, fp),
                        inputs,
                        outputs,
                        accesses_memory,
                        body_instrs: times.0,
                        last_use: times.1,
                        inserted: times.2,
                    }
                },
            )
    }

    fn entry_snapshot() -> impl Strategy<Value = CrbEntrySnapshot> {
        let ghost = (bank(), (any::<bool>(), any::<u64>()), 0u64..7).prop_map(
            |(inputs, (honest, fp), cause)| CrbGhostSnapshot {
                fp: stored_fp(&inputs, honest, fp),
                inputs,
                cause,
            },
        );
        (
            prop::option::of(0u32..8),
            prop::collection::vec(instance_snapshot(), 0..7),
            prop::collection::vec(ghost, 0..9),
        )
            .prop_map(|(tag, instances, ghosts)| CrbEntrySnapshot {
                tag,
                instances,
                ghosts,
            })
    }

    fn any_config() -> impl Strategy<Value = CrbConfig> {
        (
            (1usize..5, 1usize..5, 0usize..4, 0usize..4, 0u8..3),
            prop::option::of((1usize..3, 1usize..5, 0u8..101)),
        )
            .prop_map(
                |((entries, instances, input_bank, output_bank, policy), nu)| CrbConfig {
                    entries,
                    instances,
                    input_bank,
                    output_bank,
                    replacement: [Replacement::Lru, Replacement::Fifo, Replacement::Random]
                        [usize::from(policy)],
                    nonuniform: nu.map(|(boost_every, boosted_instances, mem_capable_percent)| {
                        NonuniformConfig {
                            boost_every,
                            boosted_instances,
                            mem_capable_percent,
                        }
                    }),
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `restore` of an arbitrary snapshot (random geometry, cause
        /// indices, fingerprints and bank widths) returns a buffer or a
        /// one-line error, never a panic; a restored buffer's own
        /// snapshot restores to the same state. With `fit`, the entry
        /// and instance counts are made to match the config so the
        /// per-instance checks are reached.
        #[test]
        fn restore_of_arbitrary_snapshots_never_panics(
            config in any_config(),
            entries in prop::collection::vec(entry_snapshot(), 0..6),
            last_miss_cause in prop::option::of(0u64..7),
            extra in (any::<u64>(), any::<u64>(), any::<bool>()),
        ) {
            let (clock, rng, fit) = extra;
            let mut snap = CrbSnapshot {
                clock,
                rng,
                stats: CrbStats::default(),
                last_miss_cause,
                ever_recorded: entries.iter().filter_map(|e| e.tag).collect(),
                entries,
            };
            if fit {
                let empty = ReuseBuffer::new(config).snapshot().unwrap();
                snap.entries.resize(config.entries, empty.entries[0].clone());
                for (e, want) in snap.entries.iter_mut().zip(&empty.entries) {
                    e.instances.resize(want.instances.len(), want.instances[0].clone());
                    e.ghosts.truncate(2 * want.instances.len());
                }
            }
            match ReuseBuffer::restore(config, &snap) {
                Err(e) => prop_assert!(!e.contains('\n'), "multi-line error {e:?}"),
                Ok(buf) => {
                    let again = buf.snapshot().unwrap();
                    let back = ReuseBuffer::restore(config, &again);
                    prop_assert!(back.is_ok(), "{back:?}");
                    prop_assert_eq!(back.unwrap().snapshot().unwrap(), again);
                }
            }
        }
    }
}
