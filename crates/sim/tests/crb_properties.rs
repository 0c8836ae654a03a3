//! Model-based property tests for the Computation Reuse Buffer.
//!
//! A reference model tracks, for every region, the full history of
//! recorded instances. Against it we check the buffer's two safety
//! properties and its LRU liveness property:
//!
//! * **soundness** — a hit's outputs always equal some instance
//!   recorded earlier for exactly the matching inputs;
//! * **capacity liveness** — with enough entries and instances, a
//!   just-recorded instance is found by the next matching lookup;
//! * **LRU retention** — the `instances` most recently used input sets
//!   of a region are always retained (absent tag conflicts).
//!
//! A lockstep test then drives the buffer and the independent
//! [`ReferenceCrb`] through identical scripts and requires identical
//! lookups, miss causes and statistics after every command.

#[path = "common/reference_crb.rs"]
mod reference_crb;

use std::collections::HashMap;

use ccr_ir::{Reg, RegionId, Value};
use ccr_profile::{CrbModel, RecordedInstance, ReuseLookup};
use ccr_sim::snapshot::CrbSnapshot;
use ccr_sim::{CrbConfig, NonuniformConfig, Replacement, ReuseBuffer};
use proptest::prelude::*;
use reference_crb::ReferenceCrb;

/// The input register sequence a lockstep record uses.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// `r0` only.
    Narrow,
    /// `r0, r2, r5`.
    Wide,
    /// `r5, r3, r0`: a second path through the region, which reads
    /// its inputs in another order and through another register.
    Divergent,
}

impl Shape {
    /// A region's usual sequence by parity, or (draw 0 of 8) the
    /// divergent one, so some entries mix sequences and some do not.
    fn of(r: u8, draw: u8) -> Shape {
        match (draw, r % 2) {
            (0, _) => Shape::Divergent,
            (_, 0) => Shape::Narrow,
            _ => Shape::Wide,
        }
    }

    fn regs(self) -> &'static [u32] {
        match self {
            Shape::Narrow => &[0],
            Shape::Wide => &[0, 2, 5],
            Shape::Divergent => &[5, 3, 0],
        }
    }
}

#[derive(Debug, Clone)]
enum Cmd {
    /// Record an instance for region `r` with input value `v` and a
    /// derived output.
    Record {
        r: u8,
        v: i8,
        mem: bool,
        shape: Shape,
    },
    /// Look region `r` up with input value `v`; `skew` perturbs `r5`
    /// alone, so only instances that do not read it can match.
    Lookup { r: u8, v: i8, skew: bool },
    /// Invalidate region `r`.
    Invalidate { r: u8 },
    /// Replace the buffer with `ReuseBuffer::restore` of its own
    /// snapshot.
    Restore,
}

/// Input values: mostly a small range, whose repeats make hits, dedup
/// refreshes and ghost matches common, sometimes the full range.
fn value() -> impl Strategy<Value = i8> {
    prop_oneof![-4i8..4, -4i8..4, -4i8..4, any::<i8>()]
}

/// Scripts over four regions, weighted towards records and lookups.
fn cmds() -> impl Strategy<Value = Vec<Cmd>> {
    let record = || {
        (0u8..4, value(), any::<bool>(), 0u8..8).prop_map(|(r, v, mem, draw)| Cmd::Record {
            r,
            v,
            mem,
            shape: Shape::of(r, draw),
        })
    };
    let lookup =
        || (0u8..4, value(), 0u8..4).prop_map(|(r, v, s)| Cmd::Lookup { r, v, skew: s == 0 });
    prop::collection::vec(
        prop_oneof![
            record(),
            record(),
            record(),
            lookup(),
            lookup(),
            lookup(),
            lookup(),
            (0u8..4).prop_map(|r| Cmd::Invalidate { r }),
            Just(Cmd::Restore),
        ],
        1..120,
    )
}

fn config(entries: usize, instances: usize, policy: u8) -> CrbConfig {
    CrbConfig {
        entries,
        instances,
        input_bank: 8,
        output_bank: 8,
        replacement: match policy {
            0 => Replacement::Lru,
            1 => Replacement::Fifo,
            _ => Replacement::Random,
        },
        nonuniform: None,
    }
}

fn instance(r: u8, v: i8, mem: bool) -> RecordedInstance {
    RecordedInstance {
        inputs: vec![(Reg(0), Value::from_int(v as i64))],
        // Output derived from (region, input): lets soundness be
        // checked without tracking every record separately.
        outputs: vec![(Reg(1), Value::from_int(v as i64 * 1000 + r as i64))],
        accesses_memory: mem,
        body_instrs: 5,
    }
}

fn lookup(buf: &mut ReuseBuffer, r: u8, v: i8) -> Option<ReuseLookup> {
    buf.lookup(RegionId(r as u32), &mut |reg| {
        assert_eq!(reg, Reg(0));
        Value::from_int(v as i64)
    })
}

/// The value register `reg` holds for lookup value `v`.
fn live(reg: Reg, v: i8, skew: bool) -> Value {
    let v = v as i64;
    Value::from_int(match reg.0 {
        0 => v,
        2 => v.wrapping_mul(3),
        3 => v + 100,
        5 => (v ^ 7) + i64::from(skew),
        other => panic!("unexpected register read r{other}"),
    })
}

/// An instance whose inputs are `shape`'s registers holding `live`
/// values for `v`; the output tells shapes apart, so a hit on the
/// wrong slot shows.
fn shaped_instance(r: u8, v: i8, mem: bool, shape: Shape) -> RecordedInstance {
    RecordedInstance {
        inputs: shape
            .regs()
            .iter()
            .map(|&reg| (Reg(reg), live(Reg(reg), v, false)))
            .collect(),
        outputs: vec![(
            Reg(1),
            Value::from_int((v as i64 * 1000 + r as i64) * 4 + shape as i64),
        )],
        accesses_memory: mem,
        body_instrs: 5 + shape as u64,
    }
}

/// The buffer's `fold_state` stream.
fn folded(buf: &ReuseBuffer) -> Vec<u64> {
    let mut words = Vec::new();
    buf.fold_state(&mut |w| words.push(w));
    words
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Soundness under arbitrary geometry and command sequences.
    #[test]
    fn hits_are_always_sound(
        script in cmds(),
        entries in 1usize..8,
        instances in 1usize..6,
        policy in 0u8..3,
    ) {
        let config = config(entries, instances, policy);
        let mut buf = ReuseBuffer::new(config);
        // Reference: was (region, input) ever recorded (and not
        // memory-invalidated since)?
        let mut recorded: HashMap<(u8, i8), bool> = HashMap::new();
        for cmd in &script {
            match *cmd {
                Cmd::Record { r, v, mem, .. } => {
                    buf.record(RegionId(r as u32), instance(r, v, mem));
                    recorded.insert((r, v), mem);
                }
                Cmd::Lookup { r, v, .. } => {
                    if let Some(hit) = lookup(&mut buf, r, v) {
                        // Soundness: the outputs must be the derived
                        // value for exactly (r, v), and (r, v) must
                        // have been recorded at some point.
                        prop_assert!(recorded.contains_key(&(r, v)),
                            "hit on never-recorded ({r}, {v})");
                        prop_assert_eq!(
                            hit.outputs,
                            vec![(Reg(1), Value::from_int(v as i64 * 1000 + r as i64))]
                        );
                        prop_assert_eq!(hit.skipped_instrs, 5);
                    }
                }
                Cmd::Invalidate { r } => {
                    buf.invalidate(RegionId(r as u32));
                    // Memory instances of r are now dead in the model
                    // too (the buffer may also have evicted stateless
                    // ones; soundness only needs "was recorded").
                    let _ = r;
                }
                Cmd::Restore => {
                    let snap = buf.snapshot().expect("event logging is off");
                    buf = ReuseBuffer::restore(config, &snap).expect("own snapshot restores");
                }
            }
        }
    }

    /// With one entry per region and enough instances, a recorded
    /// instance is immediately findable.
    #[test]
    fn record_then_lookup_hits_when_capacity_suffices(
        values in prop::collection::vec(any::<i8>(), 1..6),
        r in 0u8..6,
    ) {
        let mut distinct = values.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let mut buf = ReuseBuffer::new(CrbConfig {
            entries: 8,
            instances: distinct.len().max(1),
            input_bank: 8,
            output_bank: 8,
            replacement: Replacement::Lru,
            nonuniform: None,
        });
        for &v in &values {
            buf.record(RegionId(r as u32), instance(r, v, false));
        }
        for &v in &distinct {
            prop_assert!(
                lookup(&mut buf, r, v).is_some(),
                "value {v} lost despite sufficient capacity"
            );
        }
    }

    /// The production buffer and the reference model agree on every
    /// lookup result, miss cause and counter, under every replacement
    /// policy and nonuniform capacities, with entries that mix register
    /// sequences and entries that do not, across snapshot/restore round
    /// trips, which leave `fold_state` unchanged.
    #[test]
    fn buffer_matches_reference_model(
        script in cmds(),
        entries in 1usize..8,
        instances in 1usize..6,
        policy in 0u8..3,
        nu in (any::<bool>(), 1usize..4, 1usize..6, 0u8..101),
    ) {
        let config = CrbConfig {
            nonuniform: nu.0.then_some(NonuniformConfig {
                boost_every: nu.1,
                boosted_instances: nu.2,
                mem_capable_percent: nu.3,
            }),
            ..config(entries, instances, policy)
        };
        let mut buf = ReuseBuffer::new(config);
        let mut reference = ReferenceCrb::new(config);
        for (step, cmd) in script.iter().enumerate() {
            match *cmd {
                Cmd::Record { r, v, mem, shape } => {
                    buf.record(RegionId(r as u32), shaped_instance(r, v, mem, shape));
                    reference.record(RegionId(r as u32), shaped_instance(r, v, mem, shape));
                }
                Cmd::Lookup { r, v, skew } => {
                    let got = buf.lookup(RegionId(r as u32), &mut |reg| live(reg, v, skew));
                    let want = reference.lookup(RegionId(r as u32), &mut |reg| live(reg, v, skew));
                    prop_assert_eq!(&got, &want, "step {}: lookup result", step);
                    prop_assert_eq!(buf.last_miss_cause(), reference.last_miss_cause(),
                        "step {}: miss cause", step);
                }
                Cmd::Invalidate { r } => {
                    buf.invalidate(RegionId(r as u32));
                    reference.invalidate(RegionId(r as u32));
                }
                Cmd::Restore => {
                    let snap = buf.snapshot().expect("event logging is off");
                    let before = folded(&buf);
                    buf = ReuseBuffer::restore(config, &snap).expect("own snapshot restores");
                    prop_assert_eq!(folded(&buf), before, "step {}: restore round trip", step);
                }
            }
            prop_assert_eq!(buf.stats(), reference.stats(), "step {}: stats", step);
        }
    }

    /// LRU retention: after interleaved records and lookups on one
    /// region, the `instances` most recently *touched* distinct inputs
    /// all hit.
    #[test]
    fn lru_retains_most_recent(
        touches in prop::collection::vec(any::<i8>(), 1..40),
        instances in 1usize..5,
    ) {
        let mut buf = ReuseBuffer::new(CrbConfig {
            entries: 4,
            instances,
            input_bank: 8,
            output_bank: 8,
            replacement: Replacement::Lru,
            nonuniform: None,
        });
        let r = 2u8;
        // Touch = lookup, record on miss (the hardware's actual use).
        let mut recency: Vec<i8> = Vec::new();
        for &v in &touches {
            if lookup(&mut buf, r, v).is_none() {
                buf.record(RegionId(r as u32), instance(r, v, false));
            }
            recency.retain(|x| *x != v);
            recency.push(v);
        }
        let recent: Vec<i8> = recency.iter().rev().take(instances).copied().collect();
        for v in recent {
            prop_assert!(
                lookup(&mut buf, r, v).is_some(),
                "recently used {v} evicted (window {instances})"
            );
        }
    }
}

/// xorshift64 step driving [`golden_script_state`] (a fixed stream, so
/// the script never moves with an RNG crate).
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// The value register `reg` holds for golden-script value `v`; `skew`
/// perturbs `r4` alone.
fn golden_live(reg: Reg, v: i8, skew: bool) -> Value {
    let v = i64::from(v);
    Value::from_int(v * (i64::from(reg.0) + 1) + i64::from(skew && reg.0 == 4))
}

/// FNV-1a over 64-bit words.
fn fnv_push(h: &mut u64, w: u64) {
    *h = (*h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
}

/// Folds every field of a buffer snapshot, in declaration order.
fn fold_snapshot(s: &CrbSnapshot, h: &mut u64) {
    let pairs = |h: &mut u64, ps: &[(u32, u64)]| {
        fnv_push(h, ps.len() as u64);
        for &(r, v) in ps {
            fnv_push(h, u64::from(r));
            fnv_push(h, v);
        }
    };
    fnv_push(h, s.clock);
    fnv_push(h, s.rng);
    s.stats.fold_state(&mut |w| fnv_push(h, w));
    fnv_push(h, s.last_miss_cause.map_or(u64::MAX, |c| c));
    fnv_push(h, s.ever_recorded.len() as u64);
    for &r in &s.ever_recorded {
        fnv_push(h, u64::from(r));
    }
    fnv_push(h, s.entries.len() as u64);
    for e in &s.entries {
        fnv_push(h, e.tag.map_or(u64::MAX, u64::from));
        fnv_push(h, e.instances.len() as u64);
        for i in &e.instances {
            fnv_push(h, u64::from(i.valid));
            pairs(h, &i.inputs);
            fnv_push(h, i.fp);
            pairs(h, &i.outputs);
            fnv_push(h, u64::from(i.accesses_memory));
            fnv_push(h, i.body_instrs);
            fnv_push(h, i.last_use);
            fnv_push(h, i.inserted);
        }
        fnv_push(h, e.ghosts.len() as u64);
        for g in &e.ghosts {
            pairs(h, &g.inputs);
            fnv_push(h, g.fp);
            fnv_push(h, g.cause);
        }
    }
}

/// Runs one fixed seeded script against a buffer of every policy,
/// with and without nonuniform capacities, and returns the FNV-1a
/// hashes of its `fold_state` stream (after every command) and of its
/// snapshots (every eighth command). The script mixes records of
/// several register sequences (some wider than the banks, so they are
/// dropped), lookups that hit, miss and match ghosts, invalidations,
/// and snapshot/restore round trips.
fn golden_script_state() -> (u64, u64) {
    const SEQS: [&[u32]; 6] = [&[0], &[0, 2, 5], &[5, 3, 0], &[1, 4], &[], &[0, 1, 2, 3, 4]];
    let (mut fold_hash, mut snap_hash) = (0xcbf2_9ce4_8422_2325u64, 0xcbf2_9ce4_8422_2325u64);
    let mut rng = 0x2545_f491_4f6c_dd1du64;
    for policy in 0u8..3 {
        for nonuniform in [false, true] {
            let config = CrbConfig {
                input_bank: 4,
                output_bank: 3,
                nonuniform: nonuniform.then_some(NonuniformConfig {
                    boost_every: 3,
                    boosted_instances: 5,
                    mem_capable_percent: 60,
                }),
                ..config(8, 3, policy)
            };
            let mut buf = ReuseBuffer::new(config);
            for step in 0..700u64 {
                let x = xorshift(&mut rng);
                let r = RegionId((x >> 8) as u32 % 12);
                let v = ((x >> 16) % 6) as i8 - 3;
                match x % 16 {
                    0..=5 => {
                        let seq = SEQS[((x >> 24) % SEQS.len() as u64) as usize];
                        let outputs = (0..(x >> 32) % 5)
                            .map(|k| (Reg(10 + k as u32), Value::from_int(k as i64 * 7 + v as i64)))
                            .collect();
                        buf.record(
                            r,
                            RecordedInstance {
                                inputs: seq
                                    .iter()
                                    .map(|&reg| (Reg(reg), golden_live(Reg(reg), v, false)))
                                    .collect(),
                                outputs,
                                accesses_memory: (x >> 40).is_multiple_of(3),
                                body_instrs: (x >> 44) % 50,
                            },
                        );
                    }
                    6..=12 => {
                        let skew = (x >> 24).is_multiple_of(4);
                        let got = buf.lookup(r, &mut |reg| golden_live(reg, v, skew));
                        if let Some(hit) = got {
                            fnv_push(&mut fold_hash, hit.skipped_instrs);
                        }
                    }
                    13 | 14 => buf.invalidate(r),
                    _ => {
                        let snap = buf.snapshot().expect("event logging is off");
                        buf = ReuseBuffer::restore(config, &snap).expect("own snapshot restores");
                    }
                }
                buf.fold_state(&mut |w| fnv_push(&mut fold_hash, w));
                if step % 8 == 7 {
                    fold_snapshot(
                        &buf.snapshot().expect("event logging is off"),
                        &mut snap_hash,
                    );
                }
            }
        }
    }
    (fold_hash, snap_hash)
}

/// Pins the buffer's full state stream: `fold_state` and snapshots
/// feed the fingerprint chains and `ccr snapshot`, so a host-layout
/// change to `ReuseBuffer` must leave both hashes unchanged.
#[test]
fn buffer_state_stream_matches_golden() {
    let (fold_hash, snap_hash) = golden_script_state();
    assert_eq!(fold_hash, 0x4ff7_e1dc_163e_1a35, "fold_state stream hash");
    assert_eq!(snap_hash, 0xabe3_966e_3d32_55cd, "snapshot stream hash");
}
