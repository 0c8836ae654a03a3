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
    /// sequences (the per-pair fallback) and entries that do not (the
    /// batched scan), across snapshot/restore round trips.
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
                    buf = ReuseBuffer::restore(config, &snap).expect("own snapshot restores");
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
