//! The top-level simulator: execution-driven timing of a program with
//! or without CCR hardware.

use ccr_ir::{CodeLayout, Program};
use ccr_profile::{EmuConfig, EmuError, Emulator, NullCrb, RunOutcome};

use crate::crb::{CrbConfig, ReuseBuffer};
use crate::machine::MachineConfig;
use crate::pipeline::Pipeline;
use crate::stats::SimStats;

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

/// Simulates `program` on `machine`. With `crb = Some(config)` the CCR
/// hardware is present; with `None` every reuse instruction misses
/// and nothing is recorded (this also serves as the baseline when the
/// program carries no annotations at all).
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
    let layout = CodeLayout::of(program);
    let mut pipeline = Pipeline::new(*machine, layout);
    let emulator = Emulator::with_config(program, emu);
    let run = match crb {
        Some(config) => {
            let mut buffer = ReuseBuffer::new(config);
            let run = emulator.run(&mut buffer, &mut pipeline)?;
            let mut stats = pipeline.into_stats();
            stats.crb = buffer.stats();
            return Ok(SimOutcome { run, stats });
        }
        None => emulator.run(&mut NullCrb, &mut pipeline)?,
    };
    Ok(SimOutcome {
        run,
        stats: pipeline.into_stats(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccr_ir::{BinKind, CmpPred, Operand, ProgramBuilder};

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
        use ccr_ir::{BinKind, InstrExt, Op};
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
