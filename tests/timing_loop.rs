//! The timing model inside the simulation loop. `Pipeline::on_exec` is
//! inlined into every instantiation of the emulator's step, so each
//! session loop carries its own copy of the model. This checks those
//! copies on the smallest workload at scale 1, baseline and CCR:
//! `Pipeline` against the independent reference model of
//! `crates/sim/tests/common/reference_pipeline.rs` in lockstep, and the
//! three session loops (plain `simulate`, each member of a two-machine
//! session, a narrated run) against each other.

#[path = "../crates/sim/tests/common/reference_pipeline.rs"]
mod reference_pipeline;

use ccr::workloads::{build, InputSet};
use ccr::{compile_ccr, CompileConfig, CompiledWorkload};
use ccr_profile::EmuConfig;
use ccr_sim::{simulate, CrbConfig, MachineConfig, SimSession, TraceConfig};
use ccr_telemetry::SummarySink;
use reference_pipeline::lockstep;

/// The workload with the fewest simulated cycles at scale 1.
const SMALLEST: &str = "099.go";

fn compiled(name: &str) -> CompiledWorkload {
    let program = build(name, InputSet::Train, 1).expect("registered workload");
    compile_ccr(&program, &program, &CompileConfig::paper()).expect("within limits")
}

/// The paper machine, speculative validation, and the width study's
/// 2-wide machine.
fn machines() -> [(&'static str, MachineConfig); 3] {
    let paper = MachineConfig::paper();
    [
        ("paper", paper),
        ("speculative", MachineConfig::with_speculative_validation()),
        (
            "2-wide",
            MachineConfig {
                issue_width: 2,
                int_alus: 1,
                mem_ports: 1,
                fp_alus: 1,
                branch_units: 1,
                ..paper
            },
        ),
    ]
}

#[test]
fn the_inlined_pipeline_matches_the_reference_and_every_session_loop() {
    let compiled = compiled(SMALLEST);
    let emu = EmuConfig::default();
    let builds = [
        ("baseline", &compiled.base, None),
        ("CCR", &compiled.annotated, Some(CrbConfig::paper())),
    ];
    for (build, program, crb) in builds {
        for (label, machine) in machines() {
            let what = format!("{SMALLEST} {build}, {label}");
            let hits = lockstep(program, machine, crb, &what);
            assert_eq!(hits > 0, crb.is_some(), "{what}: reuse hits {hits}");
        }

        let [(_, paper), (_, other), _] = machines();
        let plain = |m: &MachineConfig| simulate(program, m, crb, emu).expect("within limits");
        let mut pair = SimSession::with_machines(program, &[paper, other], crb, emu, None)
            .expect("two machines");
        pair.run_to_end().expect("within limits");
        for (k, (machine, got)) in [paper, other].iter().zip(pair.into_outcomes()).enumerate() {
            assert_eq!(got.stats, plain(machine).stats, "{build}: machine {k} of 2");
        }

        let mut sink = SummarySink::new();
        let mut narrated = SimSession::new(program, &paper, crb, emu, None);
        narrated
            .narrate(&mut sink, &TraceConfig::default())
            .expect("one machine");
        narrated.run_to_end().expect("within limits");
        assert_eq!(
            narrated.into_outcome().stats,
            plain(&paper).stats,
            "{build}: narrated"
        );
        assert_eq!(
            sink.count("sim_summary"),
            1,
            "{build}: the run was narrated"
        );
    }
}
