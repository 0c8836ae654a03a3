//! Resumable, observable simulation sessions.
//!
//! [`SimSession`] is the stepwise form of [`crate::simulate`]: the
//! same emulator/pipeline/reuse-buffer composition, driven one dynamic
//! instruction at a time so a driver can interleave state
//! fingerprinting ([`crate::fingerprint::FingerprintStream`]) and
//! snapshotting ([`crate::snapshot::SimSnapshot`]) at exact
//! instruction boundaries. A session run to completion produces
//! **bit-identical** [`SimStats`] to [`crate::simulate`], and a
//! session restored from a mid-run snapshot completes with
//! bit-identical stats and an identical fingerprint chain to the
//! uninterrupted run — the replay contract the `ccr fingerprint` and
//! `ccr snapshot` commands are built on.

use std::collections::HashMap;

use ccr_ir::{CodeLayout, Function, Op, Program};
use ccr_profile::{EmuConfig, EmuError, EmuRun, Emulator, NullCrb, RunOutcome};

use crate::crb::{CrbConfig, ReuseBuffer};
use crate::fingerprint::{FingerprintStream, WindowDigest};
use crate::machine::MachineConfig;
use crate::pipeline::Pipeline;
use crate::simulator::SimOutcome;
use crate::snapshot::{CrbSnapshot, FingerprintSnapshot, SimSnapshot};

/// A stepwise simulation with streaming fingerprints and snapshot
/// support. See the module docs for the replay contract.
pub struct SimSession<'p> {
    run: EmuRun<'p>,
    pipeline: Pipeline,
    buffer: Option<ReuseBuffer>,
    stream: FingerprintStream,
    workload: String,
    config_hash: String,
    outcome: Option<RunOutcome>,
    final_hash: Option<u64>,
}

impl<'p> SimSession<'p> {
    /// Starts a fresh session — the stepwise equivalent of
    /// [`crate::simulate`] with the same first three arguments, plus
    /// the fingerprint window in cycles
    /// ([`crate::fingerprint::DEFAULT_FINGERPRINT_WINDOW`] is the
    /// conventional choice).
    ///
    /// # Panics
    ///
    /// Panics when `window` is zero.
    pub fn new(
        program: &'p Program,
        machine: &MachineConfig,
        crb: Option<CrbConfig>,
        emu: EmuConfig,
        window: u64,
    ) -> SimSession<'p> {
        let layout = CodeLayout::of(program);
        let emulator = Emulator::with_decoded(program, emu, layout.decoded().clone());
        let mut pipeline = Pipeline::new(*machine, layout);
        let run = emulator.start(&mut pipeline);
        SimSession {
            run,
            pipeline,
            buffer: crb.map(ReuseBuffer::new),
            stream: FingerprintStream::new(window),
            workload: String::new(),
            config_hash: String::new(),
            outcome: None,
            final_hash: None,
        }
    }

    /// Rebuilds a session from a mid-run snapshot. The caller supplies
    /// the same program and configuration the snapshot was taken
    /// under; structural mismatches are rejected with one-line errors.
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
        let layout = CodeLayout::of(program);
        let emulator = Emulator::with_decoded(program, emu, layout.decoded().clone());
        let pipeline = Pipeline::restore(*machine, layout, &snap.pipeline)?;
        let run = emulator.resume(&snap.emu)?;
        let buffer = match (crb, &snap.crb) {
            (Some(config), Some(cs)) => {
                check_crb_registers(program, cs)?;
                Some(ReuseBuffer::restore(config, cs)?)
            }
            (None, None) => None,
            (Some(_), None) => {
                return Err(
                    "snapshot has no crb record but the configuration enables the CCR".to_string(),
                )
            }
            (None, Some(_)) => {
                return Err(
                    "snapshot has a crb record but the configuration disables the CCR".to_string(),
                )
            }
        };
        let stream = FingerprintStream::restore(
            snap.fingerprint.window,
            snap.fingerprint.hash,
            snap.fingerprint.windows.clone(),
        )?;
        Ok(SimSession {
            run,
            pipeline,
            buffer,
            stream,
            workload: snap.workload.clone(),
            config_hash: snap.config_hash.clone(),
            outcome: None,
            final_hash: None,
        })
    }

    /// Labels future snapshots with the producing workload and config
    /// hash (preflight checks on restore; both default to empty).
    pub fn set_provenance(&mut self, workload: &str, config_hash: &str) {
        self.workload = workload.to_string();
        self.config_hash = config_hash.to_string();
    }

    /// True once the program has returned.
    pub fn finished(&self) -> bool {
        self.outcome.is_some()
    }

    /// Simulated cycles so far (the quantity window boundaries are
    /// measured against).
    pub fn cycles_so_far(&self) -> u64 {
        self.pipeline.cycles_so_far()
    }

    /// Dynamic instructions executed so far.
    pub fn dyn_instrs(&self) -> u64 {
        self.run.dyn_instrs()
    }

    /// The running fingerprint chain hash.
    pub fn fingerprint_hash(&self) -> u64 {
        self.stream.hash()
    }

    /// The sealed window chain so far.
    pub fn windows(&self) -> &[WindowDigest] {
        self.stream.windows()
    }

    /// The final chain hash, once the run has completed.
    pub fn final_hash(&self) -> Option<u64> {
        self.final_hash
    }

    /// Executes one dynamic instruction, sealing any crossed
    /// fingerprint windows; on completion, folds the final state.
    ///
    /// # Errors
    ///
    /// Propagates emulator limit violations ([`EmuError`]).
    ///
    /// # Panics
    ///
    /// Panics if called after the run finished.
    pub fn step(&mut self) -> Result<(), EmuError> {
        assert!(!self.finished(), "step after the run finished");
        let out = match self.buffer.as_mut() {
            Some(buf) => self.run.step(buf, &mut self.pipeline)?,
            None => self.run.step(&mut NullCrb, &mut self.pipeline)?,
        };
        let cycle = self.pipeline.cycles_so_far();
        if self.stream.due(cycle) {
            let (run, pipeline, buffer) = (&self.run, &self.pipeline, &self.buffer);
            self.stream.observe(cycle, |push| {
                run.fold_state(push);
                pipeline.fold_state(push);
                if let Some(b) = buffer {
                    b.fold_state(push);
                }
            });
        }
        if let Some(out) = out {
            let (run, pipeline, buffer) = (&self.run, &self.pipeline, &self.buffer);
            let hash = self.stream.finalize(|push| {
                run.fold_state(push);
                pipeline.fold_state(push);
                if let Some(b) = buffer {
                    b.fold_state(push);
                }
            });
            self.final_hash = Some(hash);
            self.outcome = Some(out);
        }
        Ok(())
    }

    /// Runs to completion.
    ///
    /// # Errors
    ///
    /// Propagates emulator limit violations ([`EmuError`]).
    pub fn run_to_end(&mut self) -> Result<(), EmuError> {
        while !self.finished() {
            self.step()?;
        }
        Ok(())
    }

    /// Runs until the simulated cycle count reaches `cycle` (or the
    /// program finishes first).
    ///
    /// # Errors
    ///
    /// Propagates emulator limit violations ([`EmuError`]).
    pub fn run_until_cycle(&mut self, cycle: u64) -> Result<(), EmuError> {
        while !self.finished() && self.pipeline.cycles_so_far() < cycle {
            self.step()?;
        }
        Ok(())
    }

    /// Captures the complete session state as a [`SimSnapshot`].
    ///
    /// # Errors
    ///
    /// Returns a one-line description for a finished run (there is no
    /// state left to resume).
    pub fn snapshot(&self) -> Result<SimSnapshot, String> {
        if self.finished() {
            return Err("cannot snapshot a finished run".to_string());
        }
        Ok(SimSnapshot {
            workload: self.workload.clone(),
            config_hash: self.config_hash.clone(),
            cycle: self.pipeline.cycles_so_far(),
            emu: self.run.snapshot(),
            pipeline: self.pipeline.snapshot()?,
            crb: self
                .buffer
                .as_ref()
                .map(ReuseBuffer::snapshot)
                .transpose()?,
            fingerprint: FingerprintSnapshot {
                window: self.stream.window(),
                hash: self.stream.hash(),
                windows: self.stream.windows().to_vec(),
            },
        })
    }

    /// Finalizes a completed run into the same [`SimOutcome`] that
    /// [`crate::simulate`] returns (bit-identical stats).
    ///
    /// # Panics
    ///
    /// Panics if the run has not completed.
    pub fn into_outcome(self) -> SimOutcome {
        let run = self.outcome.expect("run completed");
        let mut stats = self.pipeline.into_stats();
        if let Some(buffer) = self.buffer {
            stats.crb = buffer.stats();
        }
        SimOutcome { run, stats }
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
    use crate::simulator::simulate;
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
    fn session_matches_simulate_bit_for_bit() {
        let p = annotated_program(300);
        let (m, crb, emu) = paper();
        let direct = simulate(&p, &m, crb, emu).unwrap();
        let mut s = SimSession::new(&p, &m, crb, emu, 64);
        s.run_to_end().unwrap();
        assert!(s.final_hash().is_some());
        assert!(!s.windows().is_empty(), "the run must cross windows");
        let out = s.into_outcome();
        assert_eq!(out.stats, direct.stats);
        assert_eq!(out.run.returned, direct.run.returned);
        assert_eq!(out.run.dyn_instrs, direct.run.dyn_instrs);
    }

    #[test]
    fn baseline_session_matches_simulate() {
        let p = annotated_program(100);
        let (m, _, emu) = paper();
        let direct = simulate(&p, &m, None, emu).unwrap();
        let mut s = SimSession::new(&p, &m, None, emu, 128);
        s.run_to_end().unwrap();
        let out = s.into_outcome();
        assert_eq!(out.stats, direct.stats);
    }

    #[test]
    fn fingerprints_are_deterministic_across_runs() {
        let p = annotated_program(200);
        let (m, crb, emu) = paper();
        let mut a = SimSession::new(&p, &m, crb, emu, 64);
        let mut b = SimSession::new(&p, &m, crb, emu, 64);
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
        let mut cold = SimSession::new(&p, &m, crb, emu, 64);
        cold.run_to_end().unwrap();
        let cold_windows = cold.windows().to_vec();
        let cold_final = cold.final_hash().unwrap();
        let cold_out = cold.into_outcome();

        // Interrupted run: snapshot mid-flight, round-trip the
        // serialized form, resume, and finish.
        let mut first = SimSession::new(&p, &m, crb, emu, 64);
        first.set_provenance("annotated", "cfg");
        first.run_until_cycle(cold_out.stats.cycles / 2).unwrap();
        assert!(!first.finished(), "must interrupt mid-run");
        let snap = first.snapshot().unwrap();
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
        let mut s = SimSession::new(&p, &m, crb, emu, 64);
        s.run_until_cycle(100).unwrap();
        let snap = s.snapshot().unwrap();
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
        let mut s = SimSession::new(p, &m, crb, emu, 64);
        s.run_until_cycle(1000).unwrap();
        let snap = s.snapshot().unwrap();
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
        let mut s = SimSession::new(&p, &m, crb, emu, 64);
        s.run_to_end().unwrap();
        let err = s.snapshot().unwrap_err();
        assert_eq!(err, "cannot snapshot a finished run");
    }

    #[test]
    fn perturbation_pins_the_first_divergent_window() {
        let p = annotated_program(400);
        let (m, crb, emu) = paper();
        let mut cold = SimSession::new(&p, &m, crb, emu, 64);
        cold.run_to_end().unwrap();

        let mut twin = SimSession::new(&p, &m, crb, emu, 64);
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
}
