//! Timing-model sanity properties on random programs: the pipeline
//! can never report fewer cycles than its structural resources allow,
//! and relaxing a resource never makes a run slower in ways the model
//! forbids.

use ccr_ir::{BinKind, CmpPred, OpClass, Operand, Program, ProgramBuilder};
use ccr_profile::{EmuConfig, Emulator, ExecEvent, NullCrb, TraceSink};
use ccr_sim::{simulate, MachineConfig};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Spec {
    ops: Vec<(u8, u8)>,
    trips: i64,
}

fn spec() -> impl Strategy<Value = Spec> {
    (
        prop::collection::vec((0u8..12, any::<u8>()), 1..20),
        1i64..50,
    )
        .prop_map(|(ops, trips)| Spec { ops, trips })
}

fn build(s: &Spec) -> Program {
    let mut pb = ProgramBuilder::new();
    let t = pb.table("t", (0..16).collect());
    let mut f = pb.function("main", 0, 1);
    let acc = f.movi(0);
    let i = f.movi(0);
    let body = f.block();
    let done = f.block();
    f.jump(body);
    f.switch_to(body);
    let m = f.and(i, 15);
    let mut last = f.load(t, m);
    for &(k, sel) in &s.ops {
        last = match k % 6 {
            0 => f.add(last, i64::from(sel)),
            1 => f.mul(last, 3),
            2 => f.xor(last, acc),
            3 => f.bin(BinKind::FAdd, last, 7),
            4 => {
                let idx = f.and(last, 15);
                f.load(t, idx)
            }
            _ => f.sar(last, 1),
        };
    }
    f.bin_into(BinKind::Add, acc, acc, last);
    f.inc(i, 1);
    f.br(CmpPred::Lt, i, s.trips, body, done);
    f.switch_to(done);
    f.ret(&[Operand::Reg(acc)]);
    let id = pb.finish_function(f);
    pb.set_main(id);
    pb.finish()
}

/// Counts dynamic instructions by functional-unit class.
#[derive(Default)]
struct ClassCounter {
    int: u64,
    mem: u64,
    fp: u64,
    branch: u64,
    total: u64,
}

impl TraceSink for ClassCounter {
    fn on_exec(&mut self, e: &ExecEvent<'_>) {
        self.total += 1;
        match e.instr.class() {
            OpClass::IntAlu | OpClass::IntMul | OpClass::Invalidate => self.int += 1,
            OpClass::Load | OpClass::Store => self.mem += 1,
            OpClass::FpAlu => self.fp += 1,
            OpClass::Branch | OpClass::Reuse => self.branch += 1,
        }
    }
}

fn emu() -> EmuConfig {
    EmuConfig {
        max_instrs: 1_000_000,
        max_depth: 16,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Structural lower bounds: issue width and per-class unit counts.
    #[test]
    fn cycles_respect_structural_bounds(s in spec()) {
        let p = build(&s);
        let machine = MachineConfig::paper();
        let out = simulate(&p, &machine, None, emu()).unwrap();
        let mut counts = ClassCounter::default();
        Emulator::with_config(&p, emu())
            .run(&mut NullCrb, &mut counts)
            .unwrap();
        let width_bound = counts.total.div_ceil(u64::from(machine.issue_width));
        let int_bound = counts.int.div_ceil(u64::from(machine.int_alus));
        let mem_bound = counts.mem.div_ceil(u64::from(machine.mem_ports));
        let fp_bound = counts.fp.div_ceil(u64::from(machine.fp_alus));
        let br_bound = counts.branch.div_ceil(u64::from(machine.branch_units));
        for (name, bound) in [
            ("issue width", width_bound),
            ("int alus", int_bound),
            ("mem ports", mem_bound),
            ("fp alus", fp_bound),
            ("branch unit", br_bound),
        ] {
            prop_assert!(
                out.stats.cycles >= bound,
                "{}: {} cycles < bound {}",
                name,
                out.stats.cycles,
                bound
            );
        }
    }

    /// A wider machine is never slower than the paper machine, and a
    /// machine with a crippled branch unit is never faster.
    #[test]
    fn resource_monotonicity(s in spec()) {
        let p = build(&s);
        let paper = simulate(&p, &MachineConfig::paper(), None, emu()).unwrap();
        let wide = MachineConfig {
            issue_width: 12,
            int_alus: 8,
            mem_ports: 4,
            fp_alus: 4,
            branch_units: 2,
            ..MachineConfig::paper()
        };
        let wide_out = simulate(&p, &wide, None, emu()).unwrap();
        prop_assert!(
            wide_out.stats.cycles <= paper.stats.cycles,
            "wider machine slower: {} vs {}",
            wide_out.stats.cycles,
            paper.stats.cycles
        );
        // Identical functional results regardless of the machine.
        prop_assert_eq!(wide_out.run.returned, paper.run.returned);
    }

    /// Zero-penalty memory subsystem is a lower bound on the default
    /// machine.
    #[test]
    fn cache_penalties_only_add_cycles(s in spec()) {
        let p = build(&s);
        let paper = simulate(&p, &MachineConfig::paper(), None, emu()).unwrap();
        let mut free_mem = MachineConfig::paper();
        free_mem.icache.miss_penalty = 0;
        free_mem.dcache.miss_penalty = 0;
        free_mem.mispredict_penalty = 0;
        let free = simulate(&p, &free_mem, None, emu()).unwrap();
        prop_assert!(
            free.stats.cycles <= paper.stats.cycles,
            "penalty-free machine slower: {} vs {}",
            free.stats.cycles,
            paper.stats.cycles
        );
    }
}
