//! The emulator is generic over its buffer and trace sink, so the same
//! run can be driven with concrete types (what `simulate` and the
//! value profiler do) or through `&mut dyn` trait objects (what
//! `MultiSink` and fault-injection harnesses do). Both dispatch paths
//! must produce identical functional outcomes, timing statistics and
//! value profiles: covered here on every workload at scale 1, baseline
//! and CCR builds with the paper buffer.
//!
//! The hand-assembled `&mut dyn` run is also the independent reference
//! for the one simulation driver, `SimSession`: every mode it runs in
//! (plain, fingerprinted, narrated to a disabled or a JSONL sink, and
//! profiled) must give the reference's outcome and statistics.

use ccr_ir::{CodeLayout, Program};
use ccr_opt::{optimize, OptConfig};
use ccr_profile::{
    CrbModel, EmuConfig, Emulator, NullCrb, ReuseProfile, RunOutcome, TraceSink, ValueProfiler,
};
use ccr_regions::{form_regions, transform, RegionConfig};
use ccr_sim::{
    simulate, CrbConfig, MachineConfig, Pipeline, ReuseBuffer, SimOutcome, SimSession, SimStats,
    TraceConfig,
};
use ccr_telemetry::{JsonlSink, NullSink, TelemetrySink};
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

/// `program` run to the end through a paper-machine session narrated
/// to `sink` under `cfg`.
fn narrated(
    program: &Program,
    crb: Option<CrbConfig>,
    cfg: &TraceConfig,
    sink: &mut dyn TelemetrySink,
) -> SimOutcome {
    let machine = MachineConfig::paper();
    let mut session = SimSession::new(program, &machine, crb, EmuConfig::default(), None);
    session
        .narrate(sink, cfg)
        .expect("a one-machine session narrates");
    session.run_to_end().expect("within limits");
    session.into_outcome()
}

/// Checks every `SimSession` mode against the hand-assembled reference.
fn assert_every_mode_matches(program: &Program, crb: Option<CrbConfig>, what: &str) {
    let (run, stats) = simulate_dyn(program, crb);
    let check = |mode: &str, out: SimOutcome| {
        assert_eq!(out.run, run, "{what} {mode}: run outcome");
        assert_eq!(out.stats, stats, "{what} {mode}: statistics");
    };
    let (machine, emu) = (MachineConfig::paper(), EmuConfig::default());
    check("plain", simulate(program, &machine, crb, emu).unwrap());

    let mut session = SimSession::new(program, &machine, crb, emu, Some(65536));
    session.run_to_end().expect("within limits");
    assert!(session.final_hash().is_some(), "{what}: fingerprinted");
    check("fingerprinted", session.into_outcome());

    let cfg = TraceConfig::default();
    check(
        "narrated (null)",
        narrated(program, crb, &cfg, &mut NullSink),
    );
    let mut jsonl = JsonlSink::new(Vec::new());
    check("narrated (jsonl)", narrated(program, crb, &cfg, &mut jsonl));
    let text = String::from_utf8(jsonl.into_inner()).unwrap();
    let last = text.lines().last().unwrap_or_default();
    assert!(last.contains("\"ev\":\"sim_summary\""), "{what}: {last}");

    let profiled = TraceConfig {
        profile: true,
        ..TraceConfig::default()
    };
    let mut out = narrated(program, crb, &profiled, &mut JsonlSink::new(Vec::new()));
    let attribution = out.stats.attribution.take().expect("profiled stats");
    assert_eq!(
        attribution.total.total(),
        out.stats.cycles,
        "{what}: attribution"
    );
    check("profiled", out);
}

/// `name` at scale 1, optimized.
fn optimized(name: &str) -> Program {
    let mut base = build(name, InputSet::Train, 1).expect("registered workload");
    optimize(&mut base, OptConfig::default());
    base
}

/// `base` annotated with the paper's regions for `profile`.
fn annotated(base: &Program, profile: &ReuseProfile) -> Program {
    let mut annotated = base.clone();
    transform::annotate(
        &mut annotated,
        form_regions(base, profile, &RegionConfig::paper()),
    );
    annotated
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
        let base = optimized(name);
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

        assert_eq!(
            form_regions(&base, &erased, &RegionConfig::paper()),
            form_regions(&base, &direct, &RegionConfig::paper()),
            "{name}: regions"
        );
        let annotated = annotated(&base, &direct);

        assert_same_sim(&base, None, &format!("{name} baseline"));
        assert_same_sim(&annotated, Some(CrbConfig::paper()), &format!("{name} CCR"));
    }
}

#[test]
fn every_session_mode_matches_the_reference_on_every_workload() {
    for name in NAMES {
        let base = optimized(name);
        let mut profiler = ValueProfiler::for_program(&base);
        Emulator::new(&base)
            .run(&mut NullCrb, &mut profiler)
            .expect("within limits");
        let annotated = annotated(&base, &profiler.finish());

        assert_every_mode_matches(&base, None, &format!("{name} baseline"));
        let crb = Some(CrbConfig::paper());
        assert_every_mode_matches(&annotated, crb, &format!("{name} CCR"));
    }
}
