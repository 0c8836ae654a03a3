//! The invariant functional grouping relies on: neither the emulator
//! nor the reuse buffer reads the machine. On every workload, for the
//! optimized build and its region-annotated twin, a run on a random
//! machine must reach the paper machine's functional result — the
//! `RunOutcome` (memory digest included), the CRB statistics, the CRB
//! event log and the final CRB state — so sims that differ only in
//! machine knobs can share one emulation. A multi-machine session,
//! which runs that one emulation through one pipeline per machine,
//! must then give every machine exactly its one-machine outcome.

use ccr_ir::{CodeLayout, Program};
use ccr_opt::{optimize, OptConfig};
use ccr_profile::{EmuConfig, Emulator, NullCrb, RunOutcome, ValueProfiler};
use ccr_regions::{form_regions, transform, RegionConfig};
use ccr_sim::{
    simulate, CacheConfig, CrbConfig, CrbEvent, CrbStats, Fold, MachineConfig, Pipeline,
    Replacement, ReuseBuffer, SimSession,
};
use ccr_workloads::{build, InputSet, NAMES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random machines drawn per workload.
const DRAWS: usize = 4;

/// The optimized build of a workload and its region-annotated twin
/// (regions formed from its own profile).
fn builds(name: &str) -> (Program, Program) {
    let mut base = build(name, InputSet::Train, 1).expect("registered workload");
    optimize(&mut base, OptConfig::default());
    let mut profiler = ValueProfiler::for_program(&base);
    Emulator::new(&base)
        .run(&mut NullCrb, &mut profiler)
        .expect("within limits");
    let specs = form_regions(&base, &profiler.finish(), &RegionConfig::paper());
    let mut annotated = base.clone();
    transform::annotate(&mut annotated, specs);
    (base, annotated)
}

/// A machine with every knob drawn: width, unit counts, latencies,
/// cache geometry, BTB size, reuse penalties and speculative
/// validation.
fn draw(rng: &mut StdRng) -> MachineConfig {
    let mut cache = || CacheConfig {
        size_bytes: 1 << rng.random_range(10..17u32),
        line_bytes: 1 << rng.random_range(4..7u32),
        miss_penalty: rng.random_range(0..41u64),
    };
    let (icache, dcache) = (cache(), cache());
    MachineConfig {
        issue_width: rng.random_range(1..9u32),
        int_alus: rng.random_range(1..7u32),
        mem_ports: rng.random_range(1..4u32),
        fp_alus: rng.random_range(1..4u32),
        branch_units: rng.random_range(1..3u32),
        int_latency: rng.random_range(1..4u64),
        mul_latency: rng.random_range(1..9u64),
        fp_latency: rng.random_range(1..7u64),
        load_latency: rng.random_range(1..5u64),
        icache,
        dcache,
        btb_entries: 1 << rng.random_range(4..13u32),
        mispredict_penalty: rng.random_range(0..21u64),
        reuse_hit_latency: rng.random_range(0..9u64),
        reuse_miss_penalty: rng.random_range(0..21u64),
        speculative_validation: rng.random_bool(0.5),
    }
}

/// What the functional half of a simulation produces: the run's
/// outcome and, with a buffer, its statistics, event log and the
/// digest of its final state.
#[derive(Debug, PartialEq)]
struct Functional {
    run: RunOutcome,
    crb: Option<(CrbStats, Vec<CrbEvent>, u64)>,
}

/// Runs `program` on `machine`'s pipeline, assembled by hand so the
/// buffer stays inspectable after the run.
fn functional(program: &Program, machine: &MachineConfig, crb: Option<CrbConfig>) -> Functional {
    let mut pipeline = Pipeline::new(*machine, CodeLayout::of(program));
    let emulator = Emulator::with_config(program, EmuConfig::default());
    match crb {
        None => Functional {
            run: emulator
                .run(&mut NullCrb, &mut pipeline)
                .expect("within limits"),
            crb: None,
        },
        Some(config) => {
            let mut buffer = ReuseBuffer::new(config);
            buffer.set_event_logging(true);
            let run = emulator
                .run(&mut buffer, &mut pipeline)
                .expect("within limits");
            let mut fold = Fold::new();
            buffer.fold_state(&mut |w| fold.push(w));
            let crb = (buffer.stats(), buffer.take_events(), fold.0);
            Functional {
                run,
                crb: Some(crb),
            }
        }
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow in debug builds; run with --release")]
fn functional_runs_ignore_the_machine() {
    let paper = MachineConfig::paper();
    let random = CrbConfig {
        replacement: Replacement::Random,
        ..CrbConfig::paper()
    };
    let mut rng = StdRng::seed_from_u64(0x00f0_0d5e_ed00);
    let mut logged = 0;
    for name in NAMES {
        let (base, annotated) = builds(name);
        let machines: Vec<MachineConfig> = (0..DRAWS).map(|_| draw(&mut rng)).collect();
        for (build, program, crb) in [
            ("base", &base, None),
            ("annotated", &annotated, Some(CrbConfig::paper())),
            ("annotated, random replacement", &annotated, Some(random)),
        ] {
            let expected = functional(program, &paper, crb);
            if let Some((stats, events, _)) = &expected.crb {
                assert!(stats.lookups > 0, "{name}: the annotated build reuses");
                logged += events.len();
            }
            for machine in &machines {
                let got = functional(program, machine, crb);
                assert_eq!(got, expected, "{name} ({build}) under {machine:?}");
            }
        }
    }
    assert!(
        logged > 0,
        "the event logs record evictions or invalidations"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow in debug builds; run with --release")]
fn a_multi_machine_session_gives_each_machine_its_own_outcome() {
    let emu = EmuConfig::default();
    let mut rng = StdRng::seed_from_u64(0x5e55_1045);
    for name in NAMES {
        let (base, annotated) = builds(name);
        let mut machines = vec![MachineConfig::paper()];
        machines.extend((0..DRAWS).map(|_| draw(&mut rng)));
        // A repeated machine gets its own pipeline and its own outcome.
        machines.push(machines[1]);
        for (program, crb) in [(&base, None), (&annotated, Some(CrbConfig::paper()))] {
            let mut session =
                SimSession::with_machines(program, &machines, crb, emu, None).expect("starts");
            session.run_to_end().expect("within limits");
            let outcomes = session.into_outcomes();
            assert_eq!(outcomes.len(), machines.len());
            for (machine, got) in machines.iter().zip(&outcomes) {
                let want = simulate(program, machine, crb, emu).expect("within limits");
                assert_eq!(got.run, want.run, "{name} under {machine:?}");
                assert_eq!(got.stats, want.stats, "{name} under {machine:?}");
            }
        }
    }
}
