//! The emulator is generic over its buffer and trace sink, so the same
//! run can be driven with concrete types (what `simulate` and the
//! value profiler do) or through `&mut dyn` trait objects (what
//! `MultiSink` and fault-injection harnesses do). Both dispatch paths
//! must produce identical functional outcomes, timing statistics and
//! value profiles: covered here on every workload at scale 1, baseline
//! and CCR builds with the paper buffer.

use ccr_ir::{CodeLayout, Program};
use ccr_opt::{optimize, OptConfig};
use ccr_profile::{
    CrbModel, EmuConfig, Emulator, NullCrb, ReuseProfile, RunOutcome, TraceSink, ValueProfiler,
};
use ccr_regions::{form_regions, transform, RegionConfig};
use ccr_sim::{simulate, CrbConfig, MachineConfig, Pipeline, ReuseBuffer, SimStats};
use ccr_workloads::{build, InputSet, NAMES};

/// `program` simulated through `&mut dyn` references to the buffer and
/// the pipeline, assembled exactly as `simulate` assembles them.
fn simulate_dyn(program: &Program, crb: Option<CrbConfig>) -> (RunOutcome, SimStats) {
    let layout = CodeLayout::of(program);
    let emulator = Emulator::with_decoded(program, EmuConfig::default(), layout.decoded().clone());
    let mut pipeline = Pipeline::new(MachineConfig::paper(), layout);
    let mut buffer = crb.map(ReuseBuffer::new);
    let run = {
        let sink: &mut dyn TraceSink = &mut pipeline;
        let model: &mut dyn CrbModel = match buffer.as_mut() {
            Some(buffer) => buffer,
            None => &mut NullCrb,
        };
        emulator.run(model, sink).expect("within limits")
    };
    let mut stats = pipeline.into_stats();
    if let Some(buffer) = buffer {
        stats.crb = buffer.stats();
    }
    (run, stats)
}

fn assert_same_sim(program: &Program, crb: Option<CrbConfig>, what: &str) {
    let direct = simulate(program, &MachineConfig::paper(), crb, EmuConfig::default())
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    let (run, stats) = simulate_dyn(program, crb);
    assert_eq!(run, direct.run, "{what}: run outcome");
    assert_eq!(stats, direct.stats, "{what}: statistics");
}

/// Every public observation of a value profile, in a deterministic
/// order (the profile's own maps iterate in hash order).
fn profile_view(program: &Program, profile: &ReuseProfile) -> Vec<String> {
    let mut view = vec![format!("total {}", profile.total_dyn_instrs)];
    for (_, instr) in program.iter_instrs() {
        let id = instr.id;
        view.push(format!(
            "{id}: exec {} inv1 {} inv4 {} recent {} mem {} taken {} distinct {:?}",
            profile.exec(id),
            profile.invariance_ratio(id, 1),
            profile.invariance_ratio(id, 4),
            profile.recent_ratio(id),
            profile.mem_unchanged_ratio(id),
            profile.taken_ratio(id),
            profile.instr_profile(id).map(|p| p.distinct_vectors()),
        ));
    }
    let mut cyclic: Vec<String> = profile
        .iter_cyclic()
        .map(|(key, c)| {
            format!(
                "{key:?}: {} {} {} {}",
                c.invocations, c.multi_iteration, c.reuse_opportunities, c.total_iterations
            )
        })
        .collect();
    cyclic.sort();
    view.extend(cyclic);
    view
}

#[test]
fn static_and_dyn_dispatch_agree_on_every_workload() {
    for name in NAMES {
        let mut base = build(name, InputSet::Train, 1).expect("registered workload");
        optimize(&mut base, OptConfig::default());

        let mut direct = ValueProfiler::for_program(&base);
        Emulator::new(&base)
            .run(&mut NullCrb, &mut direct)
            .expect("within limits");
        let direct = direct.finish();
        let mut erased = ValueProfiler::for_program(&base);
        {
            let (model, sink): (&mut dyn CrbModel, &mut dyn TraceSink) =
                (&mut NullCrb, &mut erased);
            Emulator::new(&base)
                .run(model, sink)
                .expect("within limits");
        }
        let erased = erased.finish();
        assert_eq!(
            profile_view(&base, &erased),
            profile_view(&base, &direct),
            "{name}: value profile"
        );

        let specs = form_regions(&base, &direct, &RegionConfig::paper());
        assert_eq!(
            form_regions(&base, &erased, &RegionConfig::paper()),
            specs,
            "{name}: regions"
        );
        let mut annotated = base.clone();
        transform::annotate(&mut annotated, specs);

        assert_same_sim(&base, None, &format!("{name} baseline"));
        assert_same_sim(&annotated, Some(CrbConfig::paper()), &format!("{name} CCR"));
    }
}
