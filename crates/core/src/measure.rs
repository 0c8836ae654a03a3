//! The measure half of the pipeline: baseline vs CCR simulation.

use ccr_ir::Program;
use ccr_profile::{EmuConfig, EmuError, Emulator, NullCrb, PotentialStudy, ReusePotential};
use ccr_sim::{CrbConfig, MachineConfig, SimOutcome, SimSession, TraceConfig};
use ccr_telemetry::{emit, NullSink, RecordSink, TelemetrySink};

use crate::compile::CompiledWorkload;

/// Baseline-vs-CCR measurement of one compiled workload.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Baseline machine running the unannotated program.
    pub base: SimOutcome,
    /// CCR machine running the annotated program.
    pub ccr: SimOutcome,
}

impl Measurement {
    /// Pairs a baseline and a CCR run of the same program: the one
    /// soundness check every measurement passes through.
    ///
    /// # Panics
    ///
    /// Panics if the two runs return different values or leave
    /// different final memory images — reuse must never change
    /// architectural state.
    pub fn checked(base: SimOutcome, ccr: SimOutcome) -> Measurement {
        assert_eq!(
            base.run.returned, ccr.run.returned,
            "computation reuse changed architectural results"
        );
        assert_eq!(
            base.run.memory_digest, ccr.run.memory_digest,
            "computation reuse changed the final memory image"
        );
        Measurement { base, ccr }
    }

    /// Cycle-time speedup (the paper's Figures 8 and 11 metric).
    pub fn speedup(&self) -> f64 {
        self.ccr.speedup_over(self.base.stats.cycles)
    }

    /// Reuse hit ratio of the CCR run: hits over lookups, 0.0 when no
    /// lookup ran.
    pub fn hit_rate(&self) -> f64 {
        let stats = &self.ccr.stats;
        let lookups = stats.reuse_hits + stats.reuse_misses;
        if lookups == 0 {
            0.0
        } else {
            stats.reuse_hits as f64 / lookups as f64
        }
    }

    /// The CCR run's CRB misses by cause, in
    /// [`ccr_profile::MissCause::ALL`] order.
    pub fn miss_causes(&self) -> [u64; 5] {
        let crb = &self.ccr.stats.crb;
        [
            crb.miss_cold,
            crb.miss_mismatch,
            crb.miss_capacity,
            crb.miss_conflict,
            crb.miss_invalidated,
        ]
    }

    /// Fraction of the baseline's dynamic instructions the CCR run
    /// eliminated.
    pub fn eliminated_fraction(&self) -> f64 {
        if self.base.run.dyn_instrs == 0 {
            0.0
        } else {
            self.ccr.run.skipped_instrs as f64 / self.base.run.dyn_instrs as f64
        }
    }
}

/// Simulates a compiled workload on the baseline machine and on the
/// same machine extended with a CRB, serially and unobserved: the
/// [`measure_with`] defaults.
///
/// # Errors
///
/// Returns [`EmuError`] if either simulation exceeds emulator limits.
///
/// # Panics
///
/// Panics if the two runs disagree architecturally (see
/// [`Measurement::checked`]).
pub fn measure(
    compiled: &CompiledWorkload,
    machine: &MachineConfig,
    crb: CrbConfig,
    emu: EmuConfig,
) -> Result<Measurement, EmuError> {
    measure_with(
        compiled,
        machine,
        crb,
        emu,
        1,
        &TraceConfig::default(),
        &mut NullSink,
    )
}

/// [`measure`] with every knob: `jobs`, tracing and profiling.
///
/// - Each phase is one [`SimSession`] asked to narrate to `sink` (see
///   [`SimSession::narrate`]): a `sim_begin` marker (`base`, then
///   `ccr`), then the run's reuse timeline, interval IPC windows, CRB
///   events and summaries. With a disabled `sink` and `cfg.profile`
///   off the session runs plain. With `cfg.profile` on, the stats
///   carry [`ccr_sim::Attribution`] blocks and the stream gains
///   `cycle_sample` and per-miss `cause` events.
/// - With `jobs > 1` the two phases run on scoped threads. Each
///   narrates into its own [`RecordSink`], and the recordings are
///   replayed into `sink` in serial order afterwards, so the delivered
///   stream is byte-identical to a serial run's.
///
/// The statistics are identical to [`measure`]'s either way —
/// telemetry and threads observe the simulation, they never steer it.
///
/// # Errors
///
/// Returns [`EmuError`] if either simulation exceeds emulator limits.
///
/// # Panics
///
/// Panics if the two runs disagree architecturally (see
/// [`Measurement::checked`]).
pub fn measure_with(
    compiled: &CompiledWorkload,
    machine: &MachineConfig,
    crb: CrbConfig,
    emu: EmuConfig,
    jobs: usize,
    cfg: &TraceConfig,
    sink: &mut dyn TelemetrySink,
) -> Result<Measurement, EmuError> {
    let phase = |name: &'static str, program: &Program, crb, sink: &mut dyn TelemetrySink| {
        emit!(sink, "sim_begin", phase: name);
        let mut session = SimSession::new(program, machine, crb, emu, None);
        session
            .narrate(sink, cfg)
            .expect("a one-machine session narrates");
        session.run_to_end()?;
        Ok(session.into_outcome())
    };
    let (base, ccr) = if jobs <= 1 {
        let base = phase("base", &compiled.base, None, &mut *sink)?;
        (base, phase("ccr", &compiled.annotated, Some(crb), sink)?)
    } else {
        let record = sink.enabled();
        let recorded = |name, program, crb| {
            let mut rec = RecordSink::new();
            let sink: &mut dyn TelemetrySink = if record { &mut rec } else { &mut NullSink };
            (phase(name, program, crb, sink), rec)
        };
        let ((base, base_rec), (ccr, ccr_rec)) = std::thread::scope(|scope| {
            let base = scope.spawn(|| recorded("base", &compiled.base, None));
            let ccr = recorded("ccr", &compiled.annotated, Some(crb));
            (base.join().expect("baseline simulation panicked"), ccr)
        });
        let (base, ccr) = (base?, ccr?);
        base_rec.replay_into(sink);
        ccr_rec.replay_into(sink);
        (base, ccr)
    };
    Ok(Measurement::checked(base, ccr))
}

/// Runs the Figure 4 limit study on a program.
///
/// # Errors
///
/// Returns [`EmuError`] if emulation exceeds limits.
pub fn reuse_potential(program: &Program, emu: EmuConfig) -> Result<ReusePotential, EmuError> {
    let mut study = PotentialStudy::for_program(program);
    Emulator::with_config(program, emu).run(&mut NullCrb, &mut study)?;
    Ok(study.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile_ccr, CompileConfig};
    use ccr_sim::simulate;
    use ccr_workloads::{build, InputSet};

    fn measured(name: &str) -> Measurement {
        let p = build(name, InputSet::Train, 1).unwrap();
        let cw = compile_ccr(&p, &p, &CompileConfig::paper()).unwrap();
        measure(
            &cw,
            &MachineConfig::paper(),
            CrbConfig::paper(),
            EmuConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn m88ksim_shows_substantial_speedup() {
        let m = measured("124.m88ksim");
        assert!(
            m.speedup() > 1.2,
            "m88ksim is the paper's best case: {:.3}",
            m.speedup()
        );
        assert!(m.ccr.stats.reuse_hits > 0);
        assert!(m.eliminated_fraction() > 0.1);
    }

    #[test]
    fn go_shows_little_speedup_but_no_slowdown_catastrophe() {
        let m = measured("099.go");
        assert!(
            m.speedup() < 1.25,
            "go is the paper's worst case: {:.3}",
            m.speedup()
        );
        assert!(
            m.speedup() > 0.9,
            "reuse must not wreck go: {:.3}",
            m.speedup()
        );
    }

    #[test]
    fn espresso_benefits_from_block_level_reuse() {
        let m = measured("008.espresso");
        assert!(m.speedup() > 1.05, "espresso: {:.3}", m.speedup());
    }

    #[test]
    fn traced_measurement_is_identical_to_untraced() {
        let p = build("124.m88ksim", InputSet::Train, 1).unwrap();
        let cw = compile_ccr(&p, &p, &CompileConfig::paper()).unwrap();
        let machine = MachineConfig::paper();
        let plain = measure(&cw, &machine, CrbConfig::paper(), EmuConfig::default()).unwrap();
        let traced = TraceConfig::default();
        // Profiling (cycle attribution + stack sampling), with the
        // sink disabled or fully materialized, must be just as inert.
        let profiled = TraceConfig {
            profile: true,
            ..TraceConfig::default()
        };
        let run = |jobs, cfg: &TraceConfig, sink: &mut dyn TelemetrySink| {
            measure_with(
                &cw,
                &machine,
                CrbConfig::paper(),
                EmuConfig::default(),
                jobs,
                cfg,
                sink,
            )
            .unwrap()
        };
        for jobs in [1, 2] {
            let a = run(jobs, &traced, &mut NullSink);
            let mut jsonl = ccr_telemetry::JsonlSink::new(Vec::new());
            let b = run(jobs, &traced, &mut jsonl);
            let c = run(jobs, &profiled, &mut NullSink);
            let mut profiled_jsonl = ccr_telemetry::JsonlSink::new(Vec::new());
            let d = run(jobs, &profiled, &mut profiled_jsonl);
            // Telemetry — disabled or fully materialized — must not
            // move a single counter.
            for m in [&a, &b, &c, &d] {
                assert_eq!(plain.base.stats.cycles, m.base.stats.cycles);
                assert_eq!(plain.base.stats.dyn_instrs, m.base.stats.dyn_instrs);
                assert_eq!(plain.ccr.stats.cycles, m.ccr.stats.cycles);
                assert_eq!(plain.ccr.stats.dyn_instrs, m.ccr.stats.dyn_instrs);
                assert_eq!(plain.ccr.stats.skipped_instrs, m.ccr.stats.skipped_instrs);
                assert_eq!(plain.ccr.stats.reuse_hits, m.ccr.stats.reuse_hits);
                assert_eq!(plain.ccr.stats.reuse_misses, m.ccr.stats.reuse_misses);
                assert_eq!(plain.ccr.stats.crb, m.ccr.stats.crb);
                assert_eq!(plain.ccr.stats.regions, m.ccr.stats.regions);
                assert_eq!(plain.ccr.run.returned, m.ccr.run.returned);
            }
            // The JSONL stream is well-formed: one versioned event per line.
            let text = String::from_utf8(jsonl.into_inner()).unwrap();
            assert!(text.lines().count() > 4, "expected a real event stream");
            assert!(
                text.lines().all(|l| l.starts_with("{\"v\":1,\"ev\":\"")),
                "every event carries the schema version"
            );
            assert!(text.contains("\"ev\":\"sim_begin\""));
            assert!(text.contains("\"ev\":\"reuse\""));
            assert!(text.contains("\"ev\":\"ipc_window\""));
            assert!(text.contains("\"ev\":\"sim_summary\""));
            // The profiled stream stays at event schema v1 (additive) and
            // carries the attribution extras.
            let ptext = String::from_utf8(profiled_jsonl.into_inner()).unwrap();
            assert!(
                ptext.lines().all(|l| l.starts_with("{\"v\":1,\"ev\":\"")),
                "profiled events stay at v1"
            );
            assert!(ptext.contains("\"ev\":\"cycle_sample\""));
            assert!(ptext.contains("\"cause\":\""));
            // And the profiled measurements carry conserved attributions,
            // whether or not the sink materializes events.
            for outcome in [&c.base, &c.ccr, &d.base, &d.ccr] {
                let attr = outcome.stats.attribution.as_ref().expect("profiled");
                assert_eq!(attr.total.total(), outcome.stats.cycles);
            }
            for m in [&a, &b] {
                assert!(
                    m.base.stats.attribution.is_none(),
                    "tracing alone does not attribute"
                );
            }
        }
    }

    #[test]
    fn parallel_measure_matches_serial_stats_and_stream() {
        let p = build("124.m88ksim", InputSet::Train, 1).unwrap();
        let cw = compile_ccr(&p, &p, &CompileConfig::paper()).unwrap();
        let machine = MachineConfig::paper();
        let run = |jobs, cfg: &TraceConfig, sink: &mut dyn TelemetrySink| {
            measure_with(
                &cw,
                &machine,
                CrbConfig::paper(),
                EmuConfig::default(),
                jobs,
                cfg,
                sink,
            )
            .unwrap()
        };
        let serial = measure(&cw, &machine, CrbConfig::paper(), EmuConfig::default()).unwrap();
        let par = run(2, &TraceConfig::default(), &mut NullSink);
        for (s, p) in [(&serial.base, &par.base), (&serial.ccr, &par.ccr)] {
            assert_eq!(s.stats.cycles, p.stats.cycles);
            assert_eq!(s.stats.dyn_instrs, p.stats.dyn_instrs);
            assert_eq!(s.stats.skipped_instrs, p.stats.skipped_instrs);
            assert_eq!(s.stats.reuse_hits, p.stats.reuse_hits);
            assert_eq!(s.stats.reuse_misses, p.stats.reuse_misses);
            assert_eq!(s.stats.crb, p.stats.crb);
            assert_eq!(s.stats.regions, p.stats.regions);
            assert_eq!(s.run.returned, p.run.returned);
        }
        // Traced runs must deliver a byte-identical JSONL stream, plain
        // and profiled: per-phase recordings replayed in serial order.
        for profile in [false, true] {
            let cfg = TraceConfig {
                profile,
                ..TraceConfig::default()
            };
            let mut serial_sink = ccr_telemetry::JsonlSink::new(Vec::new());
            run(1, &cfg, &mut serial_sink);
            let mut par_sink = ccr_telemetry::JsonlSink::new(Vec::new());
            let m = run(2, &cfg, &mut par_sink);
            assert_eq!(serial_sink.into_inner(), par_sink.into_inner());
            if profile {
                for outcome in [&m.base, &m.ccr] {
                    let attr = outcome.stats.attribution.as_ref().expect("profiled");
                    assert_eq!(attr.total.total(), outcome.stats.cycles);
                }
            }
        }
    }

    /// One real run of the smoke workload; each soundness test clones
    /// it into both sides of a measurement and corrupts one field.
    fn smoke_outcome() -> SimOutcome {
        let p = build("bitcount", InputSet::Train, 1).unwrap();
        simulate(&p, &MachineConfig::paper(), None, EmuConfig::default()).unwrap()
    }

    #[test]
    #[should_panic(expected = "final memory image")]
    fn checked_rejects_a_changed_memory_image_alone() {
        let base = smoke_outcome();
        Measurement::checked(base.clone(), base.clone());
        let mut ccr = base.clone();
        ccr.run.memory_digest ^= 1;
        Measurement::checked(base, ccr);
    }

    #[test]
    #[should_panic(expected = "architectural results")]
    fn checked_rejects_changed_return_values() {
        let base = smoke_outcome();
        let mut ccr = base.clone();
        ccr.run.returned.push(ccr_ir::Value::from_int(1));
        Measurement::checked(base, ccr);
    }

    #[test]
    fn potential_study_runs_on_workloads() {
        let p = build("132.ijpeg", InputSet::Train, 1).unwrap();
        let pot = reuse_potential(&p, EmuConfig::default()).unwrap();
        assert!(pot.total_instrs > 10_000);
        assert!(pot.region_ratio() >= pot.block_ratio() * 0.5);
    }
}
