//! Bridging the timing simulation into the telemetry event stream.
//!
//! [`TelemetryBridge`] wraps the [`Pipeline`] as a
//! [`ccr_profile::TraceSink`], forwarding every trace callback
//! unchanged — the pipeline sees the identical event sequence with or
//! without telemetry, so cycle counts cannot drift — while emitting:
//!
//! * a per-region reuse timeline (`reuse` events: region, hit or miss,
//!   instructions skipped, and the pipeline cycle after the lookup),
//! * interval IPC samples (`ipc_window` events, one per window of
//!   dynamic instructions), exposing phase behaviour that the run-wide
//!   mean hides.
//!
//! [`simulate_traced`] runs a full simulation through the bridge and
//! additionally drains the buffer's eviction/conflict/invalidation log
//! (`crb_evict` / `crb_conflict` / `crb_invalidate` events), per-region
//! totals (`region_summary`), and the run totals (`sim_summary`).

use ccr_ir::{BlockId, CodeLayout, FuncId, Program};
use ccr_profile::{EmuConfig, EmuError, Emulator, ExecEvent, NullCrb, TraceSink};
use ccr_telemetry::{emit, TelemetrySink};

use crate::crb::{CrbConfig, CrbEventKind, ReuseBuffer};
use crate::machine::MachineConfig;
use crate::pipeline::Pipeline;
use crate::simulator::SimOutcome;
use crate::stats::SimStats;

/// Default dynamic-instruction window for interval IPC samples.
pub const DEFAULT_IPC_WINDOW: u64 = 4096;

/// Default cycle period between call-stack samples in profiled runs.
pub const DEFAULT_SAMPLE_PERIOD: u64 = 256;

/// Tracing knobs for [`simulate_traced`].
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// Dynamic-instruction window for interval IPC samples.
    pub window: u64,
    /// Enables cycle attribution ([`Pipeline::enable_profiling`]) and
    /// periodic `cycle_sample` call-stack events. Timing is identical
    /// either way.
    pub profile: bool,
    /// Cycle period between call-stack samples (profiled runs only).
    pub sample_period: u64,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            window: DEFAULT_IPC_WINDOW,
            profile: false,
            sample_period: DEFAULT_SAMPLE_PERIOD,
        }
    }
}

/// Call-stack sampling state (profiled runs only).
struct Sampler {
    /// Function names indexed by `FuncId::index()`.
    names: Vec<String>,
    /// The simulated call stack, outermost first.
    stack: Vec<FuncId>,
    period: u64,
    /// Next cycle at which a sample is due.
    next: u64,
}

/// A [`TraceSink`] that owns the timing [`Pipeline`] and narrates the
/// run to a [`TelemetrySink`]. Strictly pass-through for timing.
pub struct TelemetryBridge<'a> {
    pipeline: Pipeline,
    sink: &'a mut dyn TelemetrySink,
    window: u64,
    window_index: u64,
    window_instrs: u64,
    window_skipped: u64,
    window_start_cycle: u64,
    sampler: Option<Sampler>,
}

impl<'a> TelemetryBridge<'a> {
    /// Wraps `pipeline`, emitting one `ipc_window` event per `window`
    /// dynamic instructions.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(pipeline: Pipeline, sink: &'a mut dyn TelemetrySink, window: u64) -> Self {
        assert!(window > 0, "ipc window must be nonzero");
        TelemetryBridge {
            pipeline,
            sink,
            window,
            window_index: 0,
            window_instrs: 0,
            window_skipped: 0,
            window_start_cycle: 0,
            sampler: None,
        }
    }

    /// Turns on periodic `cycle_sample` call-stack events: one every
    /// `period` cycles, carrying the `;`-joined stack of function
    /// names (outermost first) and the cycles covered since the
    /// previous sample.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn enable_sampling(&mut self, names: Vec<String>, period: u64) {
        assert!(period > 0, "sample period must be nonzero");
        self.sampler = Some(Sampler {
            names,
            stack: Vec::new(),
            period,
            next: period,
        });
    }

    fn maybe_sample(&mut self) {
        let Some(sampler) = self.sampler.as_mut() else {
            return;
        };
        let now = self.pipeline.cycles_so_far();
        if now < sampler.next {
            return;
        }
        // A long-latency gap can straddle several periods; one sample
        // carries the whole covered span so sampled cycles still tile
        // the run.
        let periods = (now - sampler.next) / sampler.period + 1;
        let cycles = periods * sampler.period;
        if self.sink.enabled() {
            let mut stack = String::new();
            for (i, f) in sampler.stack.iter().enumerate() {
                if i > 0 {
                    stack.push(';');
                }
                match sampler.names.get(f.index()) {
                    Some(name) => stack.push_str(name),
                    None => stack.push('?'),
                }
            }
            emit!(self.sink, "cycle_sample", stack: stack.as_str(), cycles: cycles);
        }
        sampler.next += cycles;
    }

    fn flush_window(&mut self) {
        let now = self.pipeline.cycles_so_far();
        let cycles = now.saturating_sub(self.window_start_cycle);
        let work = self.window_instrs + self.window_skipped;
        let ipc = if cycles == 0 {
            0.0
        } else {
            work as f64 / cycles as f64
        };
        emit!(self.sink, "ipc_window",
            index: self.window_index,
            start_cycle: self.window_start_cycle,
            cycles: cycles,
            instrs: self.window_instrs,
            skipped: self.window_skipped,
            ipc: ipc,
        );
        self.window_index += 1;
        self.window_instrs = 0;
        self.window_skipped = 0;
        self.window_start_cycle = now;
    }

    /// Finalizes the run: emits the trailing partial window (if any)
    /// and returns the pipeline's statistics.
    pub fn into_stats(mut self) -> SimStats {
        if self.window_instrs > 0 {
            self.flush_window();
        }
        self.pipeline.into_stats()
    }
}

impl TraceSink for TelemetryBridge<'_> {
    fn on_exec(&mut self, event: &ExecEvent<'_>) {
        self.pipeline.on_exec(event);
        if let Some(outcome) = event.reuse {
            match outcome.miss_cause {
                Some(cause) if !outcome.hit => {
                    emit!(self.sink, "reuse",
                        region: outcome.region.index(),
                        hit: outcome.hit,
                        skipped: outcome.skipped_instrs,
                        cycle: self.pipeline.cycles_so_far(),
                        cause: cause.as_str(),
                    );
                }
                _ => {
                    emit!(self.sink, "reuse",
                        region: outcome.region.index(),
                        hit: outcome.hit,
                        skipped: outcome.skipped_instrs,
                        cycle: self.pipeline.cycles_so_far(),
                    );
                }
            }
            self.window_skipped += outcome.skipped_instrs;
        }
        self.maybe_sample();
        self.window_instrs += 1;
        if self.window_instrs >= self.window {
            self.flush_window();
        }
    }

    fn on_block_enter(&mut self, func: FuncId, block: BlockId) {
        if let Some(sampler) = self.sampler.as_mut() {
            if sampler.stack.is_empty() {
                sampler.stack.push(func);
            }
        }
        self.pipeline.on_block_enter(func, block);
    }

    fn on_call(&mut self, caller: FuncId, callee: FuncId) {
        if let Some(sampler) = self.sampler.as_mut() {
            sampler.stack.push(callee);
        }
        self.pipeline.on_call(caller, callee);
    }

    fn on_ret(&mut self, from: FuncId) {
        if let Some(sampler) = self.sampler.as_mut() {
            if sampler.stack.len() > 1 {
                sampler.stack.pop();
            }
        }
        self.pipeline.on_ret(from);
    }
}

/// Like [`crate::simulate`], narrating the run to `sink`: the reuse
/// timeline and interval IPC (one `ipc_window` per `cfg.window`
/// dynamic instructions) during execution, then the CRB event log and
/// per-region / whole-run summaries. With a disabled sink (e.g.
/// [`ccr_telemetry::NullSink`]) no event is materialized and the CRB
/// event log stays off, so the overhead is a branch per callback.
///
/// With `cfg.profile` on, the pipeline additionally attributes every
/// cycle (surfaced as [`SimStats::attribution`]) and the stream gains
/// `cycle_sample` call-stack events and per-miss `cause` fields on
/// `reuse` events.
///
/// Timing is identical to an untraced [`crate::simulate`] of the same
/// inputs — the bridge never alters what the pipeline observes.
///
/// # Errors
///
/// Propagates emulator limit violations ([`EmuError`]).
pub fn simulate_traced(
    program: &Program,
    machine: &MachineConfig,
    crb: Option<CrbConfig>,
    emu: EmuConfig,
    cfg: &TraceConfig,
    sink: &mut dyn TelemetrySink,
) -> Result<SimOutcome, EmuError> {
    let enabled = sink.enabled();
    let layout = CodeLayout::of(program);
    let emulator = Emulator::with_decoded(program, emu, layout.decoded().clone());
    let mut pipeline = Pipeline::new(*machine, layout);
    if cfg.profile {
        pipeline.enable_profiling(
            program
                .functions()
                .iter()
                .map(|f| f.name().to_string())
                .collect(),
        );
    }
    let mut bridge = TelemetryBridge::new(pipeline, &mut *sink, cfg.window);
    if cfg.profile {
        bridge.enable_sampling(
            program
                .functions()
                .iter()
                .map(|f| f.name().to_string())
                .collect(),
            cfg.sample_period,
        );
    }
    let (run, stats) = match crb {
        Some(config) => {
            let mut buffer = ReuseBuffer::new(config);
            buffer.set_event_logging(enabled);
            let run = emulator.run(&mut buffer, &mut bridge)?;
            let mut stats = bridge.into_stats();
            stats.crb = buffer.stats();
            for ev in buffer.take_events() {
                let kind = match ev.kind {
                    CrbEventKind::Evict => "crb_evict",
                    CrbEventKind::Conflict => "crb_conflict",
                    CrbEventKind::Invalidate => "crb_invalidate",
                };
                emit!(sink, kind,
                    clock: ev.clock,
                    region: ev.region.index(),
                    entry: ev.entry,
                    occupancy: ev.occupancy,
                    lost: ev.lost,
                );
            }
            (run, stats)
        }
        None => {
            let run = emulator.run(&mut NullCrb, &mut bridge)?;
            (run, bridge.into_stats())
        }
    };
    let mut regions: Vec<_> = stats.regions.iter().map(|(id, rs)| (*id, *rs)).collect();
    regions.sort_by_key(|(id, _)| id.index());
    for (id, rs) in regions {
        emit!(sink, "region_summary",
            region: id.index(),
            hits: rs.hits,
            misses: rs.misses,
            miss_cold: rs.miss_cold,
            miss_mismatch: rs.miss_mismatch,
            miss_capacity: rs.miss_capacity,
            miss_conflict: rs.miss_conflict,
            miss_invalidated: rs.miss_invalidated,
            skipped: rs.skipped_instrs,
        );
    }
    emit!(sink, "sim_summary",
        cycles: stats.cycles,
        dyn_instrs: stats.dyn_instrs,
        skipped: stats.skipped_instrs,
        reuse_hits: stats.reuse_hits,
        reuse_misses: stats.reuse_misses,
        effective_ipc: stats.effective_ipc(),
    );
    Ok(SimOutcome { run, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::simulate;
    use ccr_ir::{BinKind, CmpPred, InstrExt, Op, Operand, ProgramBuilder};
    use ccr_telemetry::{NullSink, SummarySink};

    /// A hand-annotated reusing loop: one recording miss, then 99 hits
    /// each skipping a 13-instruction body.
    fn reusing_program() -> ccr_ir::Program {
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
        f.jump(body); // patched to reuse below
        f.switch_to(body);
        f.bin_into(BinKind::Mul, y, x, x);
        for _ in 0..12 {
            f.bin_into(BinKind::Add, y, y, 1);
        }
        f.jump(cont);
        f.switch_to(cont);
        f.bin_into(BinKind::Add, acc, acc, y);
        f.inc(count, 1);
        f.br(CmpPred::Lt, count, 100, reuse_blk, done);
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

    #[test]
    fn traced_run_matches_untraced_run_exactly() {
        let p = reusing_program();
        let machine = MachineConfig::paper();
        let plain = simulate(&p, &machine, Some(CrbConfig::paper()), EmuConfig::default()).unwrap();
        let mut null = NullSink;
        let traced = simulate_traced(
            &p,
            &machine,
            Some(CrbConfig::paper()),
            EmuConfig::default(),
            &TraceConfig {
                window: 256,
                ..TraceConfig::default()
            },
            &mut null,
        )
        .unwrap();
        assert_eq!(plain.run.returned, traced.run.returned);
        assert_eq!(plain.stats.cycles, traced.stats.cycles);
        assert_eq!(plain.stats.dyn_instrs, traced.stats.dyn_instrs);
        assert_eq!(plain.stats.skipped_instrs, traced.stats.skipped_instrs);
        assert_eq!(plain.stats.crb, traced.stats.crb);
        assert_eq!(plain.stats.regions, traced.stats.regions);
    }

    #[test]
    fn traced_run_narrates_reuse_windows_and_summaries() {
        let p = reusing_program();
        let machine = MachineConfig::paper();
        let mut summary = SummarySink::new();
        let out = simulate_traced(
            &p,
            &machine,
            Some(CrbConfig::paper()),
            EmuConfig::default(),
            &TraceConfig {
                window: 64,
                ..TraceConfig::default()
            },
            &mut summary,
        )
        .unwrap();
        // One reuse event per lookup.
        assert_eq!(
            summary.count("reuse"),
            out.stats.reuse_hits + out.stats.reuse_misses
        );
        assert_eq!(
            summary.sum("reuse", "skipped") as u64,
            out.stats.skipped_instrs
        );
        // Windows tile the run: instruction counts add up exactly.
        assert!(summary.count("ipc_window") >= 2);
        assert_eq!(
            summary.sum("ipc_window", "instrs") as u64,
            out.stats.dyn_instrs
        );
        assert_eq!(summary.count("region_summary"), 1);
        assert_eq!(
            summary.sum("region_summary", "hits") as u64,
            out.stats.reuse_hits
        );
        assert_eq!(summary.count("sim_summary"), 1);
        assert_eq!(
            summary.sum("sim_summary", "cycles") as u64,
            out.stats.cycles
        );
    }

    #[test]
    fn profiled_traced_run_is_cycle_identical() {
        let p = reusing_program();
        let machine = MachineConfig::paper();
        let plain = simulate(&p, &machine, Some(CrbConfig::paper()), EmuConfig::default()).unwrap();
        let cfg = TraceConfig {
            window: 256,
            profile: true,
            sample_period: 64,
        };
        let mut null = NullSink;
        let profiled = simulate_traced(
            &p,
            &machine,
            Some(CrbConfig::paper()),
            EmuConfig::default(),
            &cfg,
            &mut null,
        )
        .unwrap();
        assert_eq!(plain.stats.cycles, profiled.stats.cycles);
        assert_eq!(plain.stats.dyn_instrs, profiled.stats.dyn_instrs);
        assert_eq!(plain.stats.crb, profiled.stats.crb);
        assert_eq!(plain.stats.regions, profiled.stats.regions);
        let attr = profiled.stats.attribution.as_ref().expect("profiled");
        assert_eq!(attr.total.total(), profiled.stats.cycles);
    }

    #[test]
    fn profiled_run_emits_samples_and_miss_causes() {
        let p = reusing_program();
        let machine = MachineConfig::paper();
        let cfg = TraceConfig {
            window: 256,
            profile: true,
            sample_period: 32,
        };
        let mut summary = SummarySink::new();
        let out = simulate_traced(
            &p,
            &machine,
            Some(CrbConfig::paper()),
            EmuConfig::default(),
            &cfg,
            &mut summary,
        )
        .unwrap();
        // Samples tile the run in whole periods: their covered cycles
        // never exceed the total and reach within one gap of it.
        assert!(summary.count("cycle_sample") >= 1);
        let sampled = summary.sum("cycle_sample", "cycles") as u64;
        assert!(sampled > 0 && sampled <= out.stats.cycles, "{sampled}");
        // The JSONL form carries the stack and the miss cause.
        let mut jsonl = ccr_telemetry::JsonlSink::new(Vec::new());
        simulate_traced(
            &p,
            &machine,
            Some(CrbConfig::paper()),
            EmuConfig::default(),
            &cfg,
            &mut jsonl,
        )
        .unwrap();
        let text = String::from_utf8(jsonl.into_inner()).unwrap();
        assert!(
            text.contains("\"ev\":\"cycle_sample\",\"stack\":\"main\""),
            "{text}"
        );
        assert!(text.contains("\"cause\":\"cold\""), "{text}");
        // Hits never carry a cause.
        assert!(
            !text
                .lines()
                .any(|l| l.contains("\"hit\":true") && l.contains("\"cause\"")),
            "{text}"
        );
    }

    #[test]
    fn baseline_traced_run_matches_baseline() {
        let p = reusing_program();
        let machine = MachineConfig::paper();
        let plain = simulate(&p, &machine, None, EmuConfig::default()).unwrap();
        let mut summary = SummarySink::new();
        let cfg = TraceConfig {
            window: 128,
            ..TraceConfig::default()
        };
        let traced =
            simulate_traced(&p, &machine, None, EmuConfig::default(), &cfg, &mut summary).unwrap();
        assert_eq!(plain.stats.cycles, traced.stats.cycles);
        // Without a CRB every reuse misses; the timeline still records
        // each lookup, and no buffer events exist.
        assert_eq!(summary.count("reuse"), traced.stats.reuse_misses);
        assert_eq!(summary.count("crb_evict"), 0);
        assert_eq!(summary.count("crb_conflict"), 0);
    }
}
