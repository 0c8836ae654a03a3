//! The measure half of the pipeline: baseline vs CCR simulation.

use ccr_ir::Program;
use ccr_profile::{EmuConfig, EmuError, Emulator, NullCrb, PotentialStudy, ReusePotential};
use ccr_sim::{CrbConfig, MachineConfig, SimOutcome, SimSession, TraceConfig};
use ccr_telemetry::{emit, NullSink, TelemetrySink};

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
/// same machine extended with a CRB, unobserved: the [`measure_with`]
/// defaults.
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
        &TraceConfig::default(),
        &mut NullSink,
    )
}

/// [`measure`] with tracing and profiling: runs the baseline, then
/// CCR, each as one [`SimSession`] asked to narrate to `sink` (see
/// [`SimSession::narrate`]): a `sim_begin` marker (`base`, then
/// `ccr`), then the run's reuse timeline, interval IPC windows, CRB
/// events and summaries. With a disabled `sink` and `cfg.profile` off
/// the session runs plain. With `cfg.profile` on, the stats carry
/// [`ccr_sim::Attribution`] blocks and the stream gains
/// `cycle_sample` and per-miss `cause` events.
///
/// The statistics are identical to [`measure`]'s either way —
/// telemetry observes the simulation, it never steers it.
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
    let base = phase("base", &compiled.base, None, &mut *sink)?;
    let ccr = phase("ccr", &compiled.annotated, Some(crb), sink)?;
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
        let run = |cfg: &TraceConfig, sink: &mut dyn TelemetrySink| {
            measure_with(
                &cw,
                &machine,
                CrbConfig::paper(),
                EmuConfig::default(),
                cfg,
                sink,
            )
            .unwrap()
        };
        let a = run(&traced, &mut NullSink);
        let mut jsonl = ccr_telemetry::JsonlSink::new(Vec::new());
        let b = run(&traced, &mut jsonl);
        let c = run(&profiled, &mut NullSink);
        let mut profiled_jsonl = ccr_telemetry::JsonlSink::new(Vec::new());
        let d = run(&profiled, &mut profiled_jsonl);
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
