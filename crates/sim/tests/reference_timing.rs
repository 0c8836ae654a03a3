//! Lockstep check of the timing model against the independent
//! `ReferencePipeline` (`common/reference_pipeline.rs`): one emulation
//! drives both through a tee sink, every instruction must issue in the
//! same cycle in both, and the final statistics must agree. Covered:
//! all workloads at scale 1, baseline and CCR builds, on the paper
//! machine and with each timing knob moved (speculative validation,
//! reuse hit latency, reuse miss penalty, issue width). The same builds
//! pin the decoded-row invariant the timing model's dispatch relies on.

#[path = "common/reference_pipeline.rs"]
mod reference_pipeline;

use ccr_ir::{CodeLayout, Latency, Program};
use ccr_opt::{optimize, OptConfig};
use ccr_profile::{Emulator, NullCrb, ValueProfiler};
use ccr_regions::{form_regions, transform, RegionConfig};
use ccr_sim::{CrbConfig, MachineConfig};
use ccr_workloads::{build, InputSet, NAMES};
use reference_pipeline::lockstep;

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

fn machines() -> Vec<(&'static str, MachineConfig)> {
    let paper = MachineConfig::paper();
    vec![
        ("paper", paper),
        ("speculative", MachineConfig::with_speculative_validation()),
        (
            "hit latency 0",
            MachineConfig {
                reuse_hit_latency: 0,
                ..paper
            },
        ),
        (
            "hit latency 5",
            MachineConfig {
                reuse_hit_latency: 5,
                ..paper
            },
        ),
        (
            "miss penalty 0",
            MachineConfig {
                reuse_miss_penalty: 0,
                ..paper
            },
        ),
        (
            "miss penalty 20",
            MachineConfig {
                reuse_miss_penalty: 20,
                ..paper
            },
        ),
        (
            "width 2",
            MachineConfig {
                issue_width: 2,
                ..paper
            },
        ),
        (
            "width 8",
            MachineConfig {
                issue_width: 8,
                int_alus: 6,
                mem_ports: 3,
                fp_alus: 3,
                branch_units: 2,
                ..paper
            },
        ),
    ]
}

/// Every decoded row with a result latency has exactly one
/// destination: the pipeline times such an instruction from its row
/// alone.
fn assert_timed_rows_have_one_destination(program: &Program, what: &str) {
    let layout = CodeLayout::of(program);
    for (_, instr) in program.iter_instrs() {
        let row = layout.decoded().row(instr.id);
        if row.latency != Latency::None {
            assert_eq!(row.dsts().len(), 1, "{what}: {instr:?}");
        }
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow in debug builds; run with --release")]
fn pipeline_issues_every_instruction_when_the_reference_does() {
    for name in NAMES {
        let (base, annotated) = builds(name);
        assert_timed_rows_have_one_destination(&base, &format!("{name} base"));
        assert_timed_rows_have_one_destination(&annotated, &format!("{name} annotated"));
        for (label, machine) in machines() {
            lockstep(&base, machine, None, &format!("{name} baseline, {label}"));
            let hits = lockstep(
                &annotated,
                machine,
                Some(CrbConfig::paper()),
                &format!("{name} CCR, {label}"),
            );
            assert!(hits > 0, "{name} CCR, {label}: no reuse hit exercised");
        }
    }
}
