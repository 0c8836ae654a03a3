//! Lockstep check of the timing model against the independent
//! [`ReferencePipeline`]: one emulation drives both through a tee
//! sink, every instruction must issue in the same cycle in both, and
//! the final statistics must agree. Covered: all workloads at scale 1,
//! baseline and CCR builds, on the paper machine and with each timing
//! knob moved (speculative validation, reuse hit latency, reuse miss
//! penalty, issue width).

#[path = "common/reference_pipeline.rs"]
mod reference_pipeline;

use ccr_ir::{CodeLayout, Program};
use ccr_opt::{optimize, OptConfig};
use ccr_profile::{EmuConfig, Emulator, ExecEvent, NullCrb, TraceSink, ValueProfiler};
use ccr_regions::{form_regions, transform, RegionConfig};
use ccr_sim::{CrbConfig, MachineConfig, Pipeline, ReuseBuffer};
use ccr_workloads::{build, InputSet, NAMES};
use reference_pipeline::ReferencePipeline;

/// Feeds every event to the pipeline and the reference, comparing
/// issue cycles after each instruction.
struct Tee {
    pipe: Pipeline,
    reference: ReferencePipeline,
    executed: u64,
}

impl TraceSink for Tee {
    fn on_exec(&mut self, e: &ExecEvent<'_>) {
        self.pipe.on_exec(e);
        self.reference.on_exec(e);
        self.executed += 1;
        assert_eq!(
            self.pipe.last_issue(),
            self.reference.last_issue,
            "issue cycle of dynamic instruction {} ({:?})",
            self.executed,
            e.instr
        );
    }
    fn on_block_enter(&mut self, func: ccr_ir::FuncId, block: ccr_ir::BlockId) {
        self.pipe.on_block_enter(func, block);
        self.reference.on_block_enter(func, block);
    }
    fn on_call(&mut self, caller: ccr_ir::FuncId, callee: ccr_ir::FuncId) {
        self.pipe.on_call(caller, callee);
        self.reference.on_call(caller, callee);
    }
    fn on_ret(&mut self, from: ccr_ir::FuncId) {
        self.pipe.on_ret(from);
        self.reference.on_ret(from);
    }
}

/// Runs one simulation in lockstep and returns its reuse hits.
fn lockstep(program: &Program, machine: MachineConfig, crb: Option<CrbConfig>, what: &str) -> u64 {
    let mut tee = Tee {
        pipe: Pipeline::new(machine, CodeLayout::of(program)),
        reference: ReferencePipeline::new(machine, program),
        executed: 0,
    };
    let emulator = Emulator::with_config(program, EmuConfig::default());
    match crb {
        Some(config) => emulator.run(&mut ReuseBuffer::new(config), &mut tee),
        None => emulator.run(&mut NullCrb, &mut tee),
    }
    .unwrap_or_else(|e| panic!("{what}: {e}"));
    let stats = tee.pipe.into_stats();
    assert_eq!(stats, tee.reference.stats(), "{what}");
    stats.reuse_hits
}

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

#[test]
#[cfg_attr(debug_assertions, ignore = "slow in debug builds; run with --release")]
fn pipeline_issues_every_instruction_when_the_reference_does() {
    for name in NAMES {
        let (base, annotated) = builds(name);
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
