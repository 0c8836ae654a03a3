//! The one simulation driver.
//!
//! [`SimSession`] is the only code that puts a simulation together:
//! the functional [`Emulator`] and the [`ReuseBuffer`] decide *what*
//! runs, and the timing [`Pipeline`] decides *when*. Everything else
//! is a mode of a session:
//!
//! - **plain** — [`SimSession::new`] with no fingerprint window, run
//!   with [`SimSession::run_to_end`]: the same monomorphised
//!   [`EmuRun::step`] loop [`Emulator::run`] drives. [`simulate`] is
//!   exactly this.
//! - **fingerprinted** — with a window, the same loop checks after
//!   every step whether a window boundary was crossed and folds the
//!   full architectural, pipeline and CRB state into a
//!   [`FingerprintStream`] there, one stream per machine, and [`SimSession::snapshot`] can capture a
//!   one-machine run at an exact instruction boundary.
//! - **narrated** — [`SimSession::narrate`] reports the run to a
//!   telemetry sink (see [`crate::telemetry`]), and with
//!   [`TraceConfig::profile`] attributes every cycle.
//! - **resumed** — [`SimSession::restore`] rebuilds a fingerprinted
//!   session from a [`SimSnapshot`].
//! - **multi-machine** — [`SimSession::with_machines`] given several
//!   machines runs one functional execution (emulator plus buffer)
//!   and feeds its events through a fan-out tee to one [`Pipeline`]
//!   per machine; [`SimSession::into_outcomes`] returns one
//!   [`SimOutcome`] per machine. Neither the emulator nor the buffer
//!   reads the machine, so each outcome is bit-identical to a
//!   one-machine session's. A fingerprinted multi-machine session
//!   folds each machine's chain at that machine's own window
//!   boundaries, where the shared emulator and buffer hold exactly
//!   what a one-machine run holds at the same dynamic instruction, so
//!   each chain is that machine's one-machine chain too
//!   (`crates/sim/tests/functional_runs.rs` pins both). Narrated,
//!   snapshotted and restored sessions stay one-machine: asking a
//!   multi-machine session for any of them is a one-line error.
//!
//! Every mode produces **bit-identical** [`crate::SimStats`], and a
//! session restored from a mid-run snapshot completes with
//! bit-identical stats and an identical fingerprint chain to the
//! uninterrupted run — the replay contract the `ccr fingerprint` and
//! `ccr snapshot` commands are built on.

use std::collections::HashMap;

use ccr_ir::{BlockId, CodeLayout, FuncId, Function, Op, Program};
use ccr_profile::{
    CrbModel, EmuConfig, EmuError, EmuRun, Emulator, ExecEvent, NullCrb, RunOutcome, TraceSink,
};
use ccr_telemetry::TelemetrySink;

use crate::crb::{CrbConfig, ReuseBuffer};
use crate::fingerprint::{FingerprintStream, WindowDigest};
use crate::machine::MachineConfig;
use crate::pipeline::Pipeline;
use crate::snapshot::{CrbSnapshot, FingerprintSnapshot, SimSnapshot};
use crate::stats::SimStats;
use crate::telemetry::{function_names, Narrated, Narrator, TraceConfig};

/// Result of a simulated run: functional outcome plus timing.
#[derive(Clone, Debug)]
pub struct SimOutcome {
    /// Functional result (returned values, dynamic counts).
    pub run: RunOutcome,
    /// Timing and microarchitectural statistics.
    pub stats: SimStats,
}

impl SimOutcome {
    /// Speedup of this run relative to a baseline cycle count.
    pub fn speedup_over(&self, baseline_cycles: u64) -> f64 {
        if self.stats.cycles == 0 {
            0.0
        } else {
            baseline_cycles as f64 / self.stats.cycles as f64
        }
    }
}

/// Simulates `program` on `machine`: a plain [`SimSession`] run to
/// the end. With `crb = Some(config)` the CCR hardware is present;
/// with `None` every reuse instruction misses and nothing is recorded
/// (this also serves as the baseline when the program carries no
/// annotations at all).
///
/// ```
/// use ccr_ir::{Operand, ProgramBuilder};
/// use ccr_profile::EmuConfig;
/// use ccr_sim::{simulate, MachineConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut pb = ProgramBuilder::new();
/// let mut f = pb.function("main", 0, 1);
/// let a = f.movi(20);
/// let b = f.add(a, 22);
/// f.ret(&[Operand::Reg(b)]);
/// let id = pb.finish_function(f);
/// pb.set_main(id);
/// let program = pb.finish();
///
/// let out = simulate(&program, &MachineConfig::paper(), None, EmuConfig::default())?;
/// assert_eq!(out.run.returned[0].as_int(), 42);
/// assert!(out.stats.cycles >= 1);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Propagates emulator limit violations ([`EmuError`]).
pub fn simulate(
    program: &Program,
    machine: &MachineConfig,
    crb: Option<CrbConfig>,
    emu: EmuConfig,
) -> Result<SimOutcome, EmuError> {
    let mut session = SimSession::new(program, machine, crb, emu, None);
    session.run_to_end()?;
    Ok(session.into_outcome())
}

/// A simulation run, to a cycle or to the end. See the module docs for
/// its modes and the replay contract.
pub struct SimSession<'p> {
    program: &'p Program,
    run: EmuRun<'p>,
    /// One pipeline per machine, in the order the session was given
    /// them; never empty.
    pipelines: Vec<Pipeline>,
    buffer: Option<ReuseBuffer>,
    /// One fingerprint stream per pipeline, or none on a plain run.
    streams: Vec<FingerprintStream>,
    narrator: Option<Narrator<'p>>,
    outcome: Option<RunOutcome>,
    /// One final chain hash per stream, once the run has completed.
    final_hashes: Vec<u64>,
}

impl<'p> SimSession<'p> {
    /// Starts a fresh session of `program` on `machine`. With
    /// `crb = Some(config)` the CCR hardware is present; with `None`
    /// every reuse instruction misses and nothing is recorded. With
    /// `window = Some(cycles)` the session folds the determinism
    /// fingerprint every that many cycles
    /// ([`crate::fingerprint::DEFAULT_FINGERPRINT_WINDOW`] is the
    /// conventional choice); with `None` it runs plain.
    ///
    /// # Panics
    ///
    /// Panics when `window` is `Some(0)`.
    pub fn new(
        program: &'p Program,
        machine: &MachineConfig,
        crb: Option<CrbConfig>,
        emu: EmuConfig,
        window: Option<u64>,
    ) -> SimSession<'p> {
        SimSession::with_machines(program, std::slice::from_ref(machine), crb, emu, window)
            .expect("a one-machine session always starts")
    }

    /// [`SimSession::new`] on several machines at once: one functional
    /// run whose events reach one pipeline per machine, finished with
    /// [`SimSession::into_outcomes`]. With a window, each machine keeps
    /// its own fingerprint chain ([`SimSession::windows_of`],
    /// [`SimSession::final_hash_of`]). With one machine this is exactly
    /// [`SimSession::new`].
    ///
    /// # Errors
    ///
    /// Returns a one-line description when `machines` is empty.
    ///
    /// # Panics
    ///
    /// Panics when `window` is `Some(0)`.
    pub fn with_machines(
        program: &'p Program,
        machines: &[MachineConfig],
        crb: Option<CrbConfig>,
        emu: EmuConfig,
        window: Option<u64>,
    ) -> Result<SimSession<'p>, String> {
        if machines.is_empty() {
            return Err("a session needs at least one machine".to_string());
        }
        let mut session = SimSession::build(program, machines, crb, emu, None)?;
        if let Some(window) = window {
            session.streams = vec![FingerprintStream::new(window); machines.len()];
        }
        Ok(session)
    }

    /// Rebuilds a session from a mid-run snapshot, fingerprinted under
    /// the snapshot's window. The caller supplies the same program and
    /// configuration the snapshot was taken under; structural
    /// mismatches are rejected with one-line errors.
    ///
    /// # Errors
    ///
    /// Returns a one-line description when any component of the
    /// snapshot is inconsistent with `program`, `machine`, or `crb`
    /// (including a CRB record present/absent mismatch, and a CRB
    /// instance or ghost naming a register outside its region's
    /// function).
    pub fn restore(
        program: &'p Program,
        machine: &MachineConfig,
        crb: Option<CrbConfig>,
        emu: EmuConfig,
        snap: &SimSnapshot,
    ) -> Result<SimSession<'p>, String> {
        SimSession::build(program, std::slice::from_ref(machine), crb, emu, Some(snap))
    }

    /// The one composition of emulator, pipelines and buffer: fresh
    /// from cycle 0 on every machine, or from `snap` (with its
    /// fingerprint stream) on the one machine [`SimSession::restore`]
    /// passes.
    fn build(
        program: &'p Program,
        machines: &[MachineConfig],
        crb: Option<CrbConfig>,
        emu: EmuConfig,
        snap: Option<&SimSnapshot>,
    ) -> Result<SimSession<'p>, String> {
        let layout = CodeLayout::of(program);
        let emulator = Emulator::with_decoded(program, emu, layout.decoded().clone());
        let (run, pipelines, buffer, streams) = match snap {
            None => {
                let mut pipelines: Vec<Pipeline> = machines
                    .iter()
                    .map(|m| Pipeline::new(*m, layout.clone()))
                    .collect();
                let run = match pipelines.as_mut_slice() {
                    [pipeline] => emulator.start(pipeline),
                    all => emulator.start(&mut Tee(all)),
                };
                (run, pipelines, crb.map(ReuseBuffer::new), Vec::new())
            }
            Some(snap) => {
                let pipeline = Pipeline::restore(machines[0], layout, &snap.pipeline)?;
                let run = emulator.resume(&snap.emu)?;
                let buffer = match (crb, &snap.crb) {
                    (Some(config), Some(cs)) => {
                        check_crb_registers(program, cs)?;
                        Some(ReuseBuffer::restore(config, cs)?)
                    }
                    (None, None) => None,
                    (config, _) => {
                        let (has, does) = match config {
                            Some(_) => ("no", "enables"),
                            None => ("a", "disables"),
                        };
                        return Err(format!(
                            "snapshot has {has} crb record but the configuration {does} the CCR"
                        ));
                    }
                };
                let fp = &snap.fingerprint;
                let stream = FingerprintStream::restore(fp.window, fp.hash, fp.windows.clone())?;
                (run, vec![pipeline], buffer, vec![stream])
            }
        };
        Ok(SimSession {
            program,
            run,
            pipelines,
            buffer,
            streams,
            narrator: None,
            outcome: None,
            final_hashes: Vec::new(),
        })
    }

    /// Narrates the run to `sink`: the reuse timeline and interval IPC
    /// (one `ipc_window` per `cfg.window` dynamic instructions) during
    /// execution, then the CRB event log and per-region / whole-run
    /// summaries when the run is finished into its outcome. With
    /// `cfg.profile` on, the pipeline also attributes every cycle
    /// (surfaced as [`crate::SimStats::attribution`]) and the stream
    /// gains `cycle_sample` call-stack events and per-miss `cause`
    /// fields on `reuse` events. With a disabled sink (e.g.
    /// [`ccr_telemetry::NullSink`]) and profiling off this does
    /// nothing, so the run stays plain.
    ///
    /// Timing is identical either way: the narrator only observes what
    /// the pipeline has already seen.
    ///
    /// # Errors
    ///
    /// Returns a one-line description on a multi-machine session (the
    /// narration follows one pipeline).
    ///
    /// # Panics
    ///
    /// Panics unless called before a fresh session has run,
    /// or if `cfg.window` (or, profiled, `cfg.sample_period`) is zero.
    pub fn narrate(
        &mut self,
        sink: &'p mut dyn TelemetrySink,
        cfg: &TraceConfig,
    ) -> Result<(), String> {
        let [pipeline] = self.pipelines.as_mut_slice() else {
            return Err(format!(
                "a narrated session simulates one machine, not {}",
                self.pipelines.len()
            ));
        };
        assert_eq!(self.run.dyn_instrs(), 0, "narration starts with the run");
        if cfg.profile {
            pipeline.enable_profiling(function_names(self.program));
        }
        if !sink.enabled() && !cfg.profile {
            return Ok(());
        }
        if let Some(buffer) = self.buffer.as_mut() {
            buffer.set_event_logging(sink.enabled());
        }
        self.narrator = Some(Narrator::new(self.program, sink, cfg));
        Ok(())
    }

    /// True once the program has returned.
    pub fn finished(&self) -> bool {
        self.outcome.is_some()
    }

    /// Simulated cycles so far (the quantity window boundaries are
    /// measured against), on the session's first machine.
    pub fn cycles_so_far(&self) -> u64 {
        self.pipelines[0].cycles_so_far()
    }

    /// The sealed window chain so far (empty without a fingerprint
    /// window), on the session's first machine.
    pub fn windows(&self) -> &[WindowDigest] {
        self.windows_of(0)
    }

    /// The final chain hash, once a fingerprinted run has completed, on
    /// the session's first machine.
    pub fn final_hash(&self) -> Option<u64> {
        self.final_hash_of(0)
    }

    /// [`SimSession::windows`] on the `machine`-th machine the session
    /// was given.
    pub fn windows_of(&self, machine: usize) -> &[WindowDigest] {
        self.streams
            .get(machine)
            .map_or(&[][..], FingerprintStream::windows)
    }

    /// [`SimSession::final_hash`] on the `machine`-th machine the
    /// session was given.
    pub fn final_hash_of(&self, machine: usize) -> Option<u64> {
        self.final_hashes.get(machine).copied()
    }

    /// Runs to completion: one uninterrupted emulator loop, which
    /// seals the fingerprint windows as it crosses them.
    ///
    /// # Errors
    ///
    /// Propagates emulator limit violations ([`EmuError`]).
    pub fn run_to_end(&mut self) -> Result<(), EmuError> {
        self.run_until_cycle(u64::MAX)
    }

    /// Runs until the simulated cycle count reaches `cycle` (or the
    /// program finishes first): the [`SimSession::run_to_end`] loop,
    /// stopped after the first instruction that reaches `cycle`. Each
    /// fingerprint window `n` is sealed by the first instruction on or
    /// past cycle `n * window`, so running to that cycle leaves exactly
    /// `n` windows sealed.
    ///
    /// # Errors
    ///
    /// Propagates emulator limit violations ([`EmuError`]).
    pub fn run_until_cycle(&mut self, cycle: u64) -> Result<(), EmuError> {
        if !self.finished() && self.cycles_so_far() < cycle {
            self.outcome = self.advance(cycle)?;
        }
        Ok(())
    }

    /// Runs the emulator until the program returns or the first
    /// machine reaches cycle `until`, with the buffer (or [`NullCrb`])
    /// as its reuse model. One pipeline, narrated when asked, is the
    /// trace sink itself; several are fed through the fan-out [`Tee`].
    fn advance(&mut self, until: u64) -> Result<Option<RunOutcome>, EmuError> {
        let run = &mut self.run;
        let folds = &mut Folds {
            streams: &mut self.streams,
            final_hashes: &mut self.final_hashes,
        };
        match (
            self.buffer.as_mut(),
            self.narrator.as_mut(),
            self.pipelines.as_mut_slice(),
        ) {
            (Some(buffer), None, [pipeline]) => drive(run, buffer, pipeline, until, folds),
            (None, None, [pipeline]) => drive(run, &mut NullCrb, pipeline, until, folds),
            (Some(buffer), Some(narrator), [pipeline]) => drive(
                run,
                buffer,
                &mut Narrated { pipeline, narrator },
                until,
                folds,
            ),
            (None, Some(narrator), [pipeline]) => drive(
                run,
                &mut NullCrb,
                &mut Narrated { pipeline, narrator },
                until,
                folds,
            ),
            (Some(buffer), _, all) => drive(run, buffer, &mut Tee(all), until, folds),
            (None, _, all) => drive(run, &mut NullCrb, &mut Tee(all), until, folds),
        }
    }

    /// Captures the complete session state as a [`SimSnapshot`],
    /// labelled with the producing `workload` and `config_hash` (which
    /// a restore preflight-checks).
    ///
    /// # Errors
    ///
    /// Returns a one-line description for a finished run (there is no
    /// state left to resume), a run without a fingerprint window (a
    /// snapshot carries the chain so far), a multi-machine run, or a
    /// profiled run.
    pub fn snapshot(&self, workload: &str, config_hash: &str) -> Result<SimSnapshot, String> {
        if self.finished() {
            return Err("cannot snapshot a finished run".to_string());
        }
        let ([pipeline], [stream]) = (self.pipelines.as_slice(), self.streams.as_slice()) else {
            return Err(match self.streams.len() {
                0 => "cannot snapshot a run without a fingerprint window".to_string(),
                n => format!("a snapshotted session simulates one machine, not {n}"),
            });
        };
        Ok(SimSnapshot {
            workload: workload.to_string(),
            config_hash: config_hash.to_string(),
            cycle: pipeline.cycles_so_far(),
            emu: self.run.snapshot(),
            pipeline: pipeline.snapshot()?,
            crb: self
                .buffer
                .as_ref()
                .map(ReuseBuffer::snapshot)
                .transpose()?,
            fingerprint: FingerprintSnapshot {
                window: stream.window(),
                hash: stream.hash(),
                windows: stream.windows().to_vec(),
            },
        })
    }

    /// Finalizes a completed one-machine run into its [`SimOutcome`],
    /// ending the narration (the CRB event log and the summaries) if
    /// one is on.
    ///
    /// # Panics
    ///
    /// Panics if the run has not completed, or if the session has
    /// several machines (use [`SimSession::into_outcomes`]).
    pub fn into_outcome(self) -> SimOutcome {
        assert_eq!(self.pipelines.len(), 1, "one outcome per machine");
        let mut outcomes = self.into_outcomes();
        outcomes.pop().expect("one machine")
    }

    /// Finalizes a completed run into one [`SimOutcome`] per machine,
    /// in the order the session was given them: the functional outcome
    /// and the buffer's statistics are shared, the timing is each
    /// machine's own.
    ///
    /// # Panics
    ///
    /// Panics if the run has not completed.
    pub fn into_outcomes(self) -> Vec<SimOutcome> {
        let run = self.outcome.expect("run completed");
        let mut buffer = self.buffer;
        let outcomes: Vec<SimOutcome> = (self.pipelines.into_iter())
            .map(|pipeline| {
                let mut stats = pipeline.into_stats();
                if let Some(buffer) = &buffer {
                    stats.crb = buffer.stats();
                }
                SimOutcome {
                    run: run.clone(),
                    stats,
                }
            })
            .collect();
        if let Some(narrator) = self.narrator {
            let events = buffer.as_mut().map(ReuseBuffer::take_events);
            narrator.finish(events.unwrap_or_default(), &outcomes[0].stats);
        }
        outcomes
    }

    /// Test hook: deterministically disturbs reuse-buffer state so
    /// fingerprint-divergence machinery can be exercised. Returns
    /// `false` (and does nothing) on a baseline session without CCR
    /// hardware.
    #[doc(hidden)]
    pub fn perturb_for_tests(&mut self) -> bool {
        match self.buffer.as_mut() {
            Some(b) => {
                b.perturb_for_tests();
                true
            }
            None => false,
        }
    }
}

/// The fan-out tee of a multi-machine session: every event reaches
/// each machine's pipeline, in machine order.
struct Tee<'a>(&'a mut [Pipeline]);

impl TraceSink for Tee<'_> {
    fn on_exec(&mut self, event: &ExecEvent<'_>) {
        for pipeline in self.0.iter_mut() {
            pipeline.on_exec(event);
        }
    }

    fn on_block_enter(&mut self, func: FuncId, block: BlockId) {
        for pipeline in self.0.iter_mut() {
            pipeline.on_block_enter(func, block);
        }
    }

    fn on_call(&mut self, caller: FuncId, callee: FuncId) {
        for pipeline in self.0.iter_mut() {
            pipeline.on_call(caller, callee);
        }
    }

    fn on_ret(&mut self, from: FuncId) {
        for pipeline in self.0.iter_mut() {
            pipeline.on_ret(from);
        }
    }
}

/// The reuse model of a session's loop, as the fingerprint folds see
/// it: the buffer, or nothing on a baseline run.
trait SessionCrb: CrbModel {
    fn buffer(&self) -> Option<&ReuseBuffer>;
}

impl SessionCrb for ReuseBuffer {
    fn buffer(&self) -> Option<&ReuseBuffer> {
        Some(self)
    }
}

impl SessionCrb for NullCrb {
    fn buffer(&self) -> Option<&ReuseBuffer> {
        None
    }
}

/// The trace sink of a session's loop, as the fingerprint folds see
/// it: the pipelines it feeds, in machine order.
trait SessionSink: TraceSink {
    fn pipelines(&self) -> &[Pipeline];
}

impl SessionSink for Pipeline {
    fn pipelines(&self) -> &[Pipeline] {
        std::slice::from_ref(self)
    }
}

impl SessionSink for Tee<'_> {
    fn pipelines(&self) -> &[Pipeline] {
        self.0
    }
}

impl SessionSink for Narrated<'_, '_> {
    fn pipelines(&self) -> &[Pipeline] {
        std::slice::from_ref(self.pipeline)
    }
}

/// A session's fingerprint streams, one per pipeline (none on a plain
/// run), and the final hashes they give once the run completes.
struct Folds<'a> {
    streams: &'a mut [FingerprintStream],
    final_hashes: &'a mut Vec<u64>,
}

impl Folds<'_> {
    /// Seals each machine's windows crossed by the step just taken,
    /// and on the last step folds each machine's final state.
    fn after_step(
        &mut self,
        run: &EmuRun<'_>,
        buffer: Option<&ReuseBuffer>,
        pipelines: &[Pipeline],
        done: bool,
    ) {
        for (stream, pipeline) in self.streams.iter_mut().zip(pipelines) {
            let fold_state = |push: &mut dyn FnMut(u64)| {
                run.fold_state(push);
                pipeline.fold_state(push);
                if let Some(b) = buffer {
                    b.fold_state(push);
                }
            };
            let cycle = pipeline.cycles_so_far();
            if stream.due(cycle) {
                stream.observe(cycle, fold_state);
            }
            if done {
                self.final_hashes.push(stream.finalize(fold_state));
            }
        }
    }
}

/// Steps `run` until the program returns (the loop [`Emulator::run`]
/// runs) or the first pipeline reaches cycle `until`, sealing
/// fingerprint windows after every step when the session has streams.
/// Each step's result is tested in place: moving it out of the
/// `Result` would copy the outcome's bytes on every dynamic
/// instruction. A plain run to the end skips the fold call and the
/// cycle test: making the call over no streams on every step cost
/// about 7% of the `design-space` benchmark's wall time.
fn drive<C: SessionCrb, S: SessionSink>(
    run: &mut EmuRun<'_>,
    crb: &mut C,
    sink: &mut S,
    until: u64,
    folds: &mut Folds<'_>,
) -> Result<Option<RunOutcome>, EmuError> {
    let watched = !folds.streams.is_empty() || until < u64::MAX;
    loop {
        let out = run.step(crb, sink);
        let done = match out {
            Ok(None) => false,
            Ok(Some(_)) => true,
            Err(_) => return out,
        };
        if watched {
            folds.after_step(run, crb.buffer(), sink.pipelines(), done);
            if sink.pipelines()[0].cycles_so_far() >= until {
                return out;
            }
        }
        if done {
            return out;
        }
    }
}

/// Checks that every register a restored CRB instance or ghost names
/// lies inside the frame of the function holding its region's `reuse`
/// instruction: a lookup reads, and a hit writes, those registers in
/// that frame.
fn check_crb_registers(program: &Program, snap: &CrbSnapshot) -> Result<(), String> {
    let mut home: HashMap<u32, &Function> = HashMap::new();
    for func in program.functions() {
        for (_, instr) in func.iter_instrs() {
            if let Op::Reuse { region, .. } = instr.op {
                home.insert(region.0, func);
            }
        }
    }
    for (i, entry) in snap.entries.iter().enumerate() {
        let Some(tag) = entry.tag else {
            continue;
        };
        let func = home
            .get(&tag)
            .ok_or_else(|| format!("crb entry {i}: region {tag} has no reuse instruction"))?;
        let limit = func.reg_limit();
        let check = |what: String, bank: &[(u32, u64)]| match bank.iter().find(|(r, _)| *r >= limit)
        {
            Some((r, _)) => Err(format!(
                "crb entry {i} {what}: register r{r} is outside {}'s {limit} registers",
                func.name()
            )),
            None => Ok(()),
        };
        for (k, inst) in entry.instances.iter().enumerate() {
            check(format!("instance {k}"), &inst.inputs)?;
            check(format!("instance {k}"), &inst.outputs)?;
        }
        for (k, ghost) in entry.ghosts.iter().enumerate() {
            check(format!("ghost {k}"), &ghost.inputs)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{parse_snapshot, write_snapshot, CrbEntrySnapshot, CrbGhostSnapshot};
    use ccr_ir::{BinKind, CmpPred, InstrExt, Op, Operand, ProgramBuilder};

    /// A hand-annotated reusing loop: one region, `trips` iterations,
    /// an input that changes every 8 trips so the CRB sees both hits
    /// and mismatch misses.
    fn annotated_program(trips: i64) -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0, 1);
        let x = f.movi(17);
        let count = f.movi(0);
        let acc = f.movi(0);
        let y = f.fresh();
        let reuse_blk = f.block();
        let body = f.block();
        let cont = f.block();
        let done = f.block();
        f.jump(reuse_blk);
        f.switch_to(reuse_blk);
        f.jump(body);
        f.switch_to(body);
        f.bin_into(BinKind::Mul, y, x, x);
        for _ in 0..10 {
            f.bin_into(BinKind::Add, y, y, 1);
        }
        f.jump(cont);
        f.switch_to(cont);
        f.bin_into(BinKind::Add, acc, acc, y);
        f.inc(count, 1);
        let shifted = f.div(count, 8);
        f.bin_into(BinKind::Add, x, x, 0);
        f.bin_into(BinKind::Add, x, shifted, 17);
        f.br(CmpPred::Lt, count, trips, reuse_blk, done);
        f.switch_to(done);
        f.ret(&[Operand::Reg(acc)]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        let mut p = pb.finish();
        let region = p.fresh_region_id();
        let func = p.function_mut(id);
        func.block_mut(ccr_ir::BlockId(1)).instrs[0].op = Op::Reuse {
            region,
            body: ccr_ir::BlockId(2),
            cont: ccr_ir::BlockId(3),
        };
        let blen = func.block(ccr_ir::BlockId(2)).len();
        for k in 0..blen - 1 {
            func.block_mut(ccr_ir::BlockId(2)).instrs[k].ext = InstrExt::LIVE_OUT;
        }
        func.block_mut(ccr_ir::BlockId(2)).instrs[blen - 1].ext = InstrExt::REGION_END;
        ccr_ir::verify_program(&p).unwrap();
        p
    }

    fn paper() -> (MachineConfig, Option<CrbConfig>, EmuConfig) {
        (
            MachineConfig::paper(),
            Some(CrbConfig::paper()),
            EmuConfig::default(),
        )
    }

    #[test]
    fn fingerprints_are_deterministic_across_runs() {
        let p = annotated_program(200);
        let (m, crb, emu) = paper();
        let mut a = SimSession::new(&p, &m, crb, emu, Some(64));
        let mut b = SimSession::new(&p, &m, crb, emu, Some(64));
        a.run_to_end().unwrap();
        b.run_to_end().unwrap();
        assert_eq!(a.windows(), b.windows());
        assert_eq!(a.final_hash(), b.final_hash());
    }

    #[test]
    fn snapshot_restore_replays_bit_identically() {
        let p = annotated_program(300);
        let (m, crb, emu) = paper();

        // Cold reference run.
        let mut cold = SimSession::new(&p, &m, crb, emu, Some(64));
        cold.run_to_end().unwrap();
        let cold_windows = cold.windows().to_vec();
        let cold_final = cold.final_hash().unwrap();
        let cold_out = cold.into_outcome();

        // Interrupted run: snapshot mid-flight, round-trip the
        // serialized form, resume, and finish.
        let mut first = SimSession::new(&p, &m, crb, emu, Some(64));
        first.run_until_cycle(cold_out.stats.cycles / 2).unwrap();
        assert!(!first.finished(), "must interrupt mid-run");
        let snap = first.snapshot("annotated", "cfg").unwrap();
        let snap = parse_snapshot("mem", &write_snapshot(&snap)).unwrap();
        assert_eq!(snap.workload, "annotated");

        let mut resumed = SimSession::restore(&p, &m, crb, emu, &snap).unwrap();
        resumed.run_to_end().unwrap();
        assert_eq!(resumed.windows(), &cold_windows[..]);
        assert_eq!(resumed.final_hash().unwrap(), cold_final);
        let out = resumed.into_outcome();
        assert_eq!(out.stats, cold_out.stats);
        assert_eq!(out.run.returned, cold_out.run.returned);
    }

    #[test]
    fn restore_rejects_configuration_mismatches() {
        let p = annotated_program(50);
        let (m, crb, emu) = paper();
        let mut s = SimSession::new(&p, &m, crb, emu, Some(64));
        s.run_until_cycle(100).unwrap();
        let snap = s.snapshot("", "").unwrap();
        let err = SimSession::restore(&p, &m, None, emu, &snap)
            .err()
            .expect("restore must fail");
        assert!(err.contains("configuration disables the CCR"), "{err}");
        let small_crb = CrbConfig::with_entries(32);
        let err = SimSession::restore(&p, &m, Some(small_crb), emu, &snap)
            .err()
            .expect("restore must fail");
        assert!(err.contains("entries"), "{err}");
    }

    /// A mid-run snapshot of the reusing loop and the index of an
    /// entry holding a recorded instance, for hand edits.
    fn mid_run_snapshot(p: &Program) -> (SimSnapshot, usize) {
        let (m, crb, emu) = paper();
        let mut s = SimSession::new(p, &m, crb, emu, Some(64));
        s.run_until_cycle(1000).unwrap();
        let snap = s.snapshot("", "").unwrap();
        let idx = snap
            .crb
            .as_ref()
            .unwrap()
            .entries
            .iter()
            .position(|e| e.instances.iter().any(|i| i.valid));
        (snap, idx.expect("a recorded instance"))
    }

    #[test]
    fn restore_rejects_registers_outside_the_region_function() {
        let p = annotated_program(300);
        let (m, crb, emu) = paper();
        let limit = p.function(p.main()).reg_limit();
        let (snap, idx) = mid_run_snapshot(&p);
        let restore = |edit: &dyn Fn(&mut CrbEntrySnapshot)| {
            let mut bad = snap.clone();
            edit(&mut bad.crb.as_mut().unwrap().entries[idx]);
            SimSession::restore(&p, &m, crb, emu, &bad)
                .err()
                .expect("restore must fail")
        };
        let k = snap.crb.as_ref().unwrap().entries[idx]
            .instances
            .iter()
            .position(|i| i.valid)
            .unwrap();
        let outside = format!("register r{limit} is outside main's {limit} registers");

        let err = restore(&|e| e.instances[k].inputs[0].0 = limit);
        assert_eq!(err, format!("crb entry {idx} instance {k}: {outside}"));
        let err = restore(&|e| e.instances[k].outputs[0].0 = limit);
        assert_eq!(err, format!("crb entry {idx} instance {k}: {outside}"));
        let err = restore(&|e| {
            e.ghosts.push(CrbGhostSnapshot {
                inputs: vec![(0, 0), (limit, 0)],
                fp: 0,
                cause: 0,
            })
        });
        let g = snap.crb.as_ref().unwrap().entries[idx].ghosts.len();
        assert_eq!(err, format!("crb entry {idx} ghost {g}: {outside}"));
        let err = restore(&|e| e.tag = Some(999));
        assert_eq!(
            err,
            format!("crb entry {idx}: region 999 has no reuse instruction")
        );

        // The unedited snapshot restores and runs to the end.
        let mut resumed = SimSession::restore(&p, &m, crb, emu, &snap).unwrap();
        resumed.run_to_end().unwrap();
    }

    #[test]
    fn restore_rejects_a_clock_or_counter_about_to_overflow() {
        let p = annotated_program(300);
        let (m, crb, emu) = paper();
        let (snap, _) = mid_run_snapshot(&p);
        let mut bad = snap.clone();
        bad.crb.as_mut().unwrap().clock = u64::MAX;
        let err = SimSession::restore(&p, &m, crb, emu, &bad)
            .err()
            .expect("restore must fail");
        assert!(err.contains("clock is at u64::MAX"), "{err}");
        let mut bad = snap.clone();
        bad.crb.as_mut().unwrap().stats.lookups = u64::MAX;
        let err = SimSession::restore(&p, &m, crb, emu, &bad)
            .err()
            .expect("restore must fail");
        assert!(err.contains("counter is at u64::MAX"), "{err}");
    }

    #[test]
    fn finished_runs_cannot_be_snapshotted() {
        let p = annotated_program(20);
        let (m, crb, emu) = paper();
        let mut s = SimSession::new(&p, &m, crb, emu, Some(64));
        s.run_to_end().unwrap();
        let err = s.snapshot("", "").unwrap_err();
        assert_eq!(err, "cannot snapshot a finished run");
        let mut plain = SimSession::new(&p, &m, crb, emu, None);
        plain.run_until_cycle(10).unwrap();
        let err = plain.snapshot("", "").unwrap_err();
        assert_eq!(err, "cannot snapshot a run without a fingerprint window");
    }

    #[test]
    fn multi_machine_sessions_refuse_one_machine_modes() {
        let p = annotated_program(50);
        let (m, crb, emu) = paper();
        let two = [m, MachineConfig::with_speculative_validation()];
        let err = SimSession::with_machines(&p, &[], crb, emu, None).err();
        assert_eq!(err.as_deref(), Some("a session needs at least one machine"));
        let mut s = SimSession::with_machines(&p, &two, crb, emu, None).unwrap();
        let mut sink = ccr_telemetry::NullSink;
        let err = s.narrate(&mut sink, &TraceConfig::default()).unwrap_err();
        assert_eq!(err, "a narrated session simulates one machine, not 2");
        s.run_until_cycle(100).unwrap();
        let err = s.snapshot("", "").unwrap_err();
        assert_eq!(err, "cannot snapshot a run without a fingerprint window");
        // A window is a mode of a multi-machine session; a snapshot is
        // not.
        let mut fp = SimSession::with_machines(&p, &two, crb, emu, Some(64)).unwrap();
        fp.run_until_cycle(100).unwrap();
        let err = fp.snapshot("", "").unwrap_err();
        assert_eq!(err, "a snapshotted session simulates one machine, not 2");
        s.run_to_end().unwrap();
        fp.run_to_end().unwrap();
        for (k, machine) in two.iter().enumerate() {
            let mut solo = SimSession::new(&p, machine, crb, emu, Some(64));
            solo.run_to_end().unwrap();
            assert_eq!(fp.windows_of(k), solo.windows(), "machine {k}");
            assert_eq!(fp.final_hash_of(k), solo.final_hash(), "machine {k}");
        }
        assert_ne!(fp.final_hash_of(0), fp.final_hash_of(1));
        assert_eq!(fp.final_hash(), fp.final_hash_of(0));
        let fingerprinted = fp.into_outcomes();
        let outcomes = s.into_outcomes();
        assert_eq!(outcomes.len(), 2);
        for ((machine, got), fp) in two.iter().zip(&outcomes).zip(&fingerprinted) {
            let want = simulate(&p, machine, crb, emu).unwrap();
            assert_eq!(got.stats, want.stats);
            assert_eq!(got.run, want.run);
            assert_eq!(fp.stats, want.stats);
        }
        assert!(outcomes[1].stats.cycles <= outcomes[0].stats.cycles);
    }

    /// The invariant window-by-window replay rests on: running to a
    /// cycle seals exactly the windows below it, on one machine and on
    /// several.
    #[test]
    fn running_to_a_cycle_seals_every_window_below_it() {
        let p = annotated_program(300);
        let (m, crb, emu) = paper();
        let window = 64;
        let machines = [m, MachineConfig::with_speculative_validation()];
        for n in [1, 2] {
            let end = {
                let mut s = SimSession::with_machines(&p, &machines[..n], crb, emu, None).unwrap();
                s.run_to_end().unwrap();
                s.cycles_so_far()
            };
            assert!(end > 3 * window);
            for c in [0, 1, window - 1, window, 3 * window, end + 1] {
                let mut s =
                    SimSession::with_machines(&p, &machines[..n], crb, emu, Some(window)).unwrap();
                s.run_until_cycle(c).unwrap();
                let at = s.cycles_so_far();
                assert_eq!(
                    s.windows().len() as u64,
                    at / window,
                    "{n} machine(s), cycle {c}"
                );
                assert!(s.finished() || at >= c, "{n} machine(s), cycle {c}");
                assert_eq!(s.finished(), c > end, "{n} machine(s), cycle {c}");
            }
        }
    }

    #[test]
    fn perturbation_pins_the_first_divergent_window() {
        let p = annotated_program(400);
        let (m, crb, emu) = paper();
        let mut cold = SimSession::new(&p, &m, crb, emu, Some(64));
        cold.run_to_end().unwrap();

        let mut twin = SimSession::new(&p, &m, crb, emu, Some(64));
        twin.run_until_cycle(cold.cycles_so_far() / 2).unwrap();
        let sealed_before = twin.windows().len();
        assert!(twin.perturb_for_tests(), "CCR session must perturb");
        twin.run_to_end().unwrap();

        assert_eq!(twin.windows().len(), cold.windows().len());
        let first_divergent = cold
            .windows()
            .iter()
            .zip(twin.windows())
            .position(|(a, b)| a.hash != b.hash)
            .expect("the chains must diverge");
        assert_eq!(
            first_divergent, sealed_before,
            "divergence must surface in the first window sealed after the perturbation"
        );
        assert_ne!(cold.final_hash(), twin.final_hash());
    }

    fn sum_loop(n: i64) -> Program {
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
        let v = f.load(t, m);
        f.bin_into(BinKind::Add, acc, acc, v);
        f.inc(i, 1);
        f.br(CmpPred::Lt, i, n, body, done);
        f.switch_to(done);
        f.ret(&[Operand::Reg(acc)]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        pb.finish()
    }

    #[test]
    fn baseline_simulation_reports_consistent_counts() {
        let p = sum_loop(1000);
        let out = simulate(&p, &MachineConfig::paper(), None, EmuConfig::default()).unwrap();
        assert_eq!(out.run.dyn_instrs, out.stats.dyn_instrs);
        assert!(out.stats.cycles > 0);
        assert!(out.stats.cycles <= out.stats.dyn_instrs * 4);
        assert_eq!(out.stats.reuse_hits, 0);
        assert_eq!(out.stats.skipped_instrs, 0);
    }

    #[test]
    fn simulation_is_deterministic() {
        let p = sum_loop(500);
        let a = simulate(&p, &MachineConfig::paper(), None, EmuConfig::default()).unwrap();
        let b = simulate(&p, &MachineConfig::paper(), None, EmuConfig::default()).unwrap();
        assert_eq!(a.stats.cycles, b.stats.cycles);
        assert_eq!(a.run.returned, b.run.returned);
    }

    #[test]
    fn crb_presence_does_not_change_architectural_results() {
        let p = sum_loop(800);
        let base = simulate(&p, &MachineConfig::paper(), None, EmuConfig::default()).unwrap();
        let ccr = simulate(
            &p,
            &MachineConfig::paper(),
            Some(CrbConfig::paper()),
            EmuConfig::default(),
        )
        .unwrap();
        // No annotations: identical timing, identical results.
        assert_eq!(base.run.returned, ccr.run.returned);
        assert_eq!(base.stats.cycles, ccr.stats.cycles);
        assert_eq!(ccr.stats.crb.lookups, 0);
    }

    #[test]
    fn speculative_validation_never_slows_a_run() {
        // Build a hand-annotated reusing program and compare timing
        // with and without validation speculation.
        let mut pb = ccr_ir::ProgramBuilder::new();
        let mut f = pb.function("main", 0, 1);
        let x = f.movi(9);
        let count = f.movi(0);
        let acc = f.movi(0);
        let y = f.fresh();
        let reuse_blk = f.block();
        let body = f.block();
        let cont = f.block();
        let done = f.block();
        f.jump(reuse_blk);
        f.switch_to(reuse_blk);
        f.jump(body);
        f.switch_to(body);
        f.bin_into(BinKind::Mul, y, x, x);
        for _ in 0..10 {
            f.bin_into(BinKind::Add, y, y, 3);
        }
        f.jump(cont);
        f.switch_to(cont);
        f.bin_into(BinKind::Add, acc, acc, y);
        f.inc(count, 1);
        f.br(ccr_ir::CmpPred::Lt, count, 200, reuse_blk, done);
        f.switch_to(done);
        f.ret(&[Operand::Reg(acc)]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        let mut p = pb.finish();
        let region = p.fresh_region_id();
        let func = p.function_mut(id);
        func.block_mut(ccr_ir::BlockId(1)).instrs[0].op = Op::Reuse {
            region,
            body: ccr_ir::BlockId(2),
            cont: ccr_ir::BlockId(3),
        };
        let blen = func.block(ccr_ir::BlockId(2)).len();
        func.block_mut(ccr_ir::BlockId(2)).instrs[0].ext = InstrExt::LIVE_OUT;
        func.block_mut(ccr_ir::BlockId(2)).instrs[blen - 1].ext = InstrExt::REGION_END;
        ccr_ir::verify_program(&p).unwrap();

        let normal = simulate(
            &p,
            &MachineConfig::paper(),
            Some(CrbConfig::paper()),
            EmuConfig::default(),
        )
        .unwrap();
        let spec = simulate(
            &p,
            &MachineConfig::with_speculative_validation(),
            Some(CrbConfig::paper()),
            EmuConfig::default(),
        )
        .unwrap();
        assert_eq!(normal.run.returned, spec.run.returned);
        assert!(spec.stats.reuse_hits > 100);
        assert!(
            spec.stats.cycles <= normal.stats.cycles,
            "speculation must not slow the run: {} vs {}",
            spec.stats.cycles,
            normal.stats.cycles
        );
    }

    #[test]
    fn speedup_over_computes_ratio() {
        let p = sum_loop(100);
        let out = simulate(&p, &MachineConfig::paper(), None, EmuConfig::default()).unwrap();
        let s = out.speedup_over(out.stats.cycles * 2);
        assert!((s - 2.0).abs() < 1e-9);
    }
}
