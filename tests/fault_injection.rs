//! Failure-injection tests: the framework's safety nets must actually
//! catch misbehaving reuse hardware. A faulty buffer that corrupts
//! output banks, fabricates hits, or resurrects invalidated memory
//! state must produce observably wrong results (caught by the
//! architectural-equality check) — these tests pin down that the
//! checks are not vacuous.

use ccr::ir::{Reg, RegionId, Value};
use ccr::profile::{
    CrbModel, EmuConfig, Emulator, NullCrb, NullSink, RecordedInstance, ReuseLookup,
};
use ccr::sim::{CrbConfig, ReuseBuffer};
use ccr::workloads::{build, InputSet};
use ccr::{compile_ccr, CompileConfig};

fn emu() -> EmuConfig {
    EmuConfig {
        max_instrs: 50_000_000,
        max_depth: 256,
    }
}

fn compiled_m88ksim() -> ccr::compile::CompiledWorkload {
    let p = build("124.m88ksim", InputSet::Train, 1).unwrap();
    compile_ccr(
        &p,
        &p,
        &CompileConfig {
            emu: emu(),
            ..CompileConfig::paper()
        },
    )
    .unwrap()
}

fn run_with(crb: &mut dyn CrbModel, p: &ccr::ir::Program) -> Vec<i64> {
    Emulator::with_config(p, emu())
        .run(crb, &mut NullSink)
        .unwrap()
        .returned
        .iter()
        .map(|v| v.as_int())
        .collect()
}

/// Wraps a real buffer but flips a bit in every hit's first output.
struct OutputCorruptor(ReuseBuffer);

impl CrbModel for OutputCorruptor {
    fn lookup(
        &mut self,
        region: RegionId,
        read_reg: &mut dyn FnMut(Reg) -> Value,
    ) -> Option<ReuseLookup> {
        let mut hit = self.0.lookup(region, read_reg)?;
        if let Some((_, v)) = hit.outputs.first_mut() {
            *v = Value::from_int(v.as_int() ^ 1);
        }
        Some(hit)
    }
    fn record(&mut self, region: RegionId, instance: RecordedInstance) {
        self.0.record(region, instance);
    }
    fn invalidate(&mut self, region: RegionId) {
        self.0.invalidate(region);
    }
}

/// Drops every invalidation: stale memory-dependent instances live on.
struct InvalidationDropper(ReuseBuffer);

impl CrbModel for InvalidationDropper {
    fn lookup(
        &mut self,
        region: RegionId,
        read_reg: &mut dyn FnMut(Reg) -> Value,
    ) -> Option<ReuseLookup> {
        self.0.lookup(region, read_reg)
    }
    fn record(&mut self, region: RegionId, instance: RecordedInstance) {
        self.0.record(region, instance);
    }
    fn invalidate(&mut self, _region: RegionId) {
        // Dropped: the hardware "forgets" to invalidate.
    }
}

#[test]
fn corrupted_outputs_change_architectural_results() {
    let cw = compiled_m88ksim();
    let expect = run_with(&mut NullCrb, &cw.base);
    let mut faulty = OutputCorruptor(ReuseBuffer::new(CrbConfig::paper()));
    let got = run_with(&mut faulty, &cw.annotated);
    assert_ne!(
        got, expect,
        "output corruption must be architecturally visible (otherwise the \
         equality safety net is vacuous)"
    );
    // And the honest buffer passes, on the same inputs.
    let mut honest = ReuseBuffer::new(CrbConfig::paper());
    assert_eq!(run_with(&mut honest, &cw.annotated), expect);
}

/// A hand-annotated memory-dependent region whose input structure is
/// rewritten (with a matching `invalidate`) every iteration: any
/// dropped invalidation is guaranteed to surface in the checksum.
fn md_program() -> ccr::ir::Program {
    use ccr::ir::{BinKind, BlockId, CmpPred, InstrExt, Op, Operand, ProgramBuilder};
    let mut pb = ProgramBuilder::new();
    let tbl = pb.object("tbl", 1);
    let mut f = pb.function("main", 0, 1);
    let acc = f.movi(0);
    let i = f.movi(0);
    let v = f.fresh();
    let reuse_blk = f.block();
    let body = f.block();
    let cont = f.block();
    let done = f.block();
    f.jump(reuse_blk);
    f.switch_to(reuse_blk);
    f.jump(body); // patched to reuse
    f.switch_to(body);
    f.load_into(v, tbl, 0, 0);
    f.jump(cont);
    f.switch_to(cont);
    f.bin_into(BinKind::Add, acc, acc, v);
    // Rewrite the table and invalidate, every iteration.
    f.store(tbl, 0, i);
    f.nop(); // patched to invalidate
    f.inc(i, 1);
    f.br(CmpPred::Lt, i, 100, reuse_blk, done);
    f.switch_to(done);
    f.ret(&[Operand::Reg(acc)]);
    let id = pb.finish_function(f);
    pb.set_main(id);
    let mut p = pb.finish();
    let region = p.fresh_region_id();
    let func = p.function_mut(id);
    func.block_mut(BlockId(1)).instrs[0].op = Op::Reuse {
        region,
        body: BlockId(2),
        cont: BlockId(3),
    };
    func.block_mut(BlockId(2)).instrs[0].ext = InstrExt::LIVE_OUT;
    func.block_mut(BlockId(2)).instrs[1].ext = InstrExt::REGION_END;
    func.block_mut(BlockId(3)).instrs[2].op = Op::Invalidate { region };
    ccr::ir::verify_program(&p).unwrap();
    p
}

#[test]
fn dropped_invalidations_change_results_on_md_regions() {
    let p = md_program();
    let expect = run_with(&mut NullCrb, &p);
    // An honest buffer agrees with plain execution.
    let mut honest = ReuseBuffer::new(CrbConfig::paper());
    assert_eq!(run_with(&mut honest, &p), expect);
    // A buffer that drops invalidations serves stale loads forever.
    let mut faulty = InvalidationDropper(ReuseBuffer::new(CrbConfig::paper()));
    let got = run_with(&mut faulty, &p);
    assert_ne!(
        got, expect,
        "ignoring invalidations must be architecturally visible"
    );
}

#[test]
fn measure_panics_on_faulty_hardware() {
    // The public measure() API carries the equality assertion; verify
    // it fires by simulating the corrupted buffer by hand and
    // comparing to what measure() checks.
    let cw = compiled_m88ksim();
    let base = run_with(&mut NullCrb, &cw.base);
    let mut faulty = OutputCorruptor(ReuseBuffer::new(CrbConfig::paper()));
    let corrupted = run_with(&mut faulty, &cw.annotated);
    // measure() asserts base == ccr; with this hardware it would
    // panic. (We assert the precondition rather than catching the
    // panic, keeping the test deterministic and message-independent.)
    assert_ne!(base, corrupted);
}

/// A reusable region whose only live-out is stored to memory and never
/// read back: the returned value cannot see a corrupted output, only
/// the final memory image can.
fn store_only_program() -> ccr::ir::Program {
    use ccr::ir::{BinKind, BlockId, CmpPred, InstrExt, Op, Operand, ProgramBuilder};
    let mut pb = ProgramBuilder::new();
    let out = pb.object("out", 4);
    let mut f = pb.function("main", 0, 1);
    let x = f.movi(7);
    let i = f.movi(0);
    let y = f.fresh();
    let reuse_blk = f.block();
    let body = f.block();
    let cont = f.block();
    let done = f.block();
    f.jump(reuse_blk);
    f.switch_to(reuse_blk);
    f.jump(body); // patched to reuse
    f.switch_to(body);
    f.bin_into(BinKind::Mul, y, x, x);
    f.jump(cont);
    f.switch_to(cont);
    let slot = f.and(i, 3);
    f.store(out, slot, y);
    f.inc(i, 1);
    f.br(CmpPred::Lt, i, 50, reuse_blk, done);
    f.switch_to(done);
    f.ret(&[Operand::Reg(i)]);
    let id = pb.finish_function(f);
    pb.set_main(id);
    let mut p = pb.finish();
    let region = p.fresh_region_id();
    let func = p.function_mut(id);
    func.block_mut(BlockId(1)).instrs[0].op = Op::Reuse {
        region,
        body: BlockId(2),
        cont: BlockId(3),
    };
    func.block_mut(BlockId(2)).instrs[0].ext = InstrExt::LIVE_OUT;
    func.block_mut(BlockId(2)).instrs[1].ext = InstrExt::REGION_END;
    ccr::ir::verify_program(&p).unwrap();
    p
}

#[test]
fn corruption_reaching_only_memory_changes_the_memory_digest() {
    let p = store_only_program();
    let run = |crb: &mut dyn CrbModel| {
        Emulator::with_config(&p, emu())
            .run(crb, &mut NullSink)
            .unwrap()
    };
    let plain = run(&mut NullCrb);
    let mut honest = ReuseBuffer::new(CrbConfig::paper());
    let honest = run(&mut honest);
    assert!(honest.reuse_hits > 0);
    assert_eq!(honest.returned, plain.returned);
    assert_eq!(honest.memory_digest, plain.memory_digest);

    let mut faulty = OutputCorruptor(ReuseBuffer::new(CrbConfig::paper()));
    let corrupted = run(&mut faulty);
    assert!(corrupted.reuse_hits > 0);
    assert_eq!(
        corrupted.returned, plain.returned,
        "the corrupted live-out only reaches a store"
    );
    assert_ne!(
        corrupted.memory_digest, plain.memory_digest,
        "a corrupted store must change the final memory image"
    );
}
