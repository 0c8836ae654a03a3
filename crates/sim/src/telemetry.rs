//! Narrating a simulation into the telemetry event stream.
//!
//! A [`crate::SimSession`] asked to narrate
//! ([`crate::SimSession::narrate`]) passes every trace callback to the
//! timing [`Pipeline`] first and then to its `Narrator`, which only
//! reads the pipeline's cycle count: the pipeline sees the identical
//! event sequence with or without narration, so cycle counts cannot
//! drift. During the run the narrator emits:
//!
//! * a per-region reuse timeline (`reuse` events: region, hit or miss,
//!   instructions skipped, and the pipeline cycle after the lookup),
//! * interval IPC samples (`ipc_window` events, one per window of
//!   dynamic instructions), exposing phase behaviour that the run-wide
//!   mean hides,
//! * in profiled runs, periodic `cycle_sample` call-stack events and a
//!   `cause` field on every missing `reuse` event.
//!
//! When the session finishes ([`crate::SimSession::into_outcome`]),
//! the narrator emits the trailing partial window, the buffer's
//! eviction/conflict/invalidation log (`crb_evict` / `crb_conflict` /
//! `crb_invalidate` events), per-region totals (`region_summary`), and
//! the run totals (`sim_summary`).

use ccr_ir::{BlockId, FuncId, Program};
use ccr_profile::{ExecEvent, TraceSink};
use ccr_telemetry::{emit, TelemetrySink};

use crate::crb::{CrbEvent, CrbEventKind};
use crate::pipeline::Pipeline;
use crate::stats::SimStats;

/// Default dynamic-instruction window for interval IPC samples.
pub const DEFAULT_IPC_WINDOW: u64 = 4096;

/// Default cycle period between call-stack samples in profiled runs.
pub const DEFAULT_SAMPLE_PERIOD: u64 = 256;

/// Narration knobs for [`crate::SimSession::narrate`].
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

/// The function names of `program`, indexed by `FuncId::index()`.
pub(crate) fn function_names(program: &Program) -> Vec<String> {
    program
        .functions()
        .iter()
        .map(|f| f.name().to_string())
        .collect()
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

/// Narrates a run to a [`TelemetrySink`]. It never touches the
/// pipeline: the session hands it each trace event after the pipeline
/// has seen it, together with the pipeline's cycle count.
pub(crate) struct Narrator<'s> {
    sink: &'s mut dyn TelemetrySink,
    window: u64,
    window_index: u64,
    window_instrs: u64,
    window_skipped: u64,
    window_start_cycle: u64,
    sampler: Option<Sampler>,
}

impl<'s> Narrator<'s> {
    /// A narrator for a run of `program` starting at cycle 0 in its
    /// `main` function: one `ipc_window` event per `cfg.window`
    /// dynamic instructions and, with `cfg.profile`, one
    /// `cycle_sample` every `cfg.sample_period` cycles, carrying the
    /// `;`-joined stack of function names (outermost first) and the
    /// cycles covered since the previous sample.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.window` is zero, or `cfg.sample_period` is zero
    /// in a profiled run.
    pub(crate) fn new(
        program: &Program,
        sink: &'s mut dyn TelemetrySink,
        cfg: &TraceConfig,
    ) -> Narrator<'s> {
        assert!(cfg.window > 0, "ipc window must be nonzero");
        let sampler = cfg.profile.then(|| {
            assert!(cfg.sample_period > 0, "sample period must be nonzero");
            Sampler {
                names: function_names(program),
                stack: vec![program.main()],
                period: cfg.sample_period,
                next: cfg.sample_period,
            }
        });
        Narrator {
            sink,
            window: cfg.window,
            window_index: 0,
            window_instrs: 0,
            window_skipped: 0,
            window_start_cycle: 0,
            sampler,
        }
    }

    fn maybe_sample(&mut self, now: u64) {
        let Some(sampler) = self.sampler.as_mut() else {
            return;
        };
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

    fn flush_window(&mut self, now: u64) {
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

    /// Narrates one executed instruction; `now` is the pipeline's
    /// cycle count after it.
    fn on_exec(&mut self, event: &ExecEvent<'_>, now: u64) {
        if let Some(outcome) = event.reuse {
            match outcome.miss_cause {
                Some(cause) if !outcome.hit => {
                    emit!(self.sink, "reuse",
                        region: outcome.region.index(),
                        hit: outcome.hit,
                        skipped: outcome.skipped_instrs,
                        cycle: now,
                        cause: cause.as_str(),
                    );
                }
                _ => {
                    emit!(self.sink, "reuse",
                        region: outcome.region.index(),
                        hit: outcome.hit,
                        skipped: outcome.skipped_instrs,
                        cycle: now,
                    );
                }
            }
            self.window_skipped += outcome.skipped_instrs;
        }
        self.maybe_sample(now);
        self.window_instrs += 1;
        if self.window_instrs >= self.window {
            self.flush_window(now);
        }
    }

    /// Ends the narration of a finished run: the trailing partial
    /// window (if any), then the buffer's event log, per-region
    /// summaries and the run summary.
    pub(crate) fn finish(mut self, crb_events: Vec<CrbEvent>, stats: &SimStats) {
        if self.window_instrs > 0 {
            self.flush_window(stats.cycles);
        }
        for ev in crb_events {
            let kind = match ev.kind {
                CrbEventKind::Evict => "crb_evict",
                CrbEventKind::Conflict => "crb_conflict",
                CrbEventKind::Invalidate => "crb_invalidate",
            };
            emit!(self.sink, kind,
                clock: ev.clock,
                region: ev.region.index(),
                entry: ev.entry,
                occupancy: ev.occupancy,
                lost: ev.lost,
            );
        }
        let mut regions: Vec<_> = stats.regions.iter().map(|(id, rs)| (*id, *rs)).collect();
        regions.sort_by_key(|(id, _)| id.index());
        for (id, rs) in regions {
            emit!(self.sink, "region_summary",
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
        emit!(self.sink, "sim_summary",
            cycles: stats.cycles,
            dyn_instrs: stats.dyn_instrs,
            skipped: stats.skipped_instrs,
            reuse_hits: stats.reuse_hits,
            reuse_misses: stats.reuse_misses,
            effective_ipc: stats.effective_ipc(),
        );
    }
}

/// The trace sink of a narrated step: each callback goes to the
/// pipeline first, then to the narrator.
pub(crate) struct Narrated<'a, 's> {
    pub(crate) pipeline: &'a mut Pipeline,
    pub(crate) narrator: &'a mut Narrator<'s>,
}

impl TraceSink for Narrated<'_, '_> {
    fn on_exec(&mut self, event: &ExecEvent<'_>) {
        self.pipeline.on_exec(event);
        self.narrator.on_exec(event, self.pipeline.cycles_so_far());
    }

    fn on_block_enter(&mut self, func: FuncId, block: BlockId) {
        self.pipeline.on_block_enter(func, block);
    }

    fn on_call(&mut self, caller: FuncId, callee: FuncId) {
        self.pipeline.on_call(caller, callee);
        if let Some(sampler) = self.narrator.sampler.as_mut() {
            sampler.stack.push(callee);
        }
    }

    fn on_ret(&mut self, from: FuncId) {
        self.pipeline.on_ret(from);
        if let Some(sampler) = self.narrator.sampler.as_mut() {
            if sampler.stack.len() > 1 {
                sampler.stack.pop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crb::CrbConfig;
    use crate::machine::MachineConfig;
    use crate::session::{SimOutcome, SimSession};
    use ccr_ir::{BinKind, CmpPred, InstrExt, Op, Operand, ProgramBuilder};
    use ccr_profile::EmuConfig;
    use ccr_telemetry::SummarySink;

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

    /// Simulates `p` on the paper machine, narrated to `sink`.
    fn narrated(
        p: &ccr_ir::Program,
        crb: Option<CrbConfig>,
        cfg: &TraceConfig,
        sink: &mut dyn TelemetrySink,
    ) -> SimOutcome {
        let machine = MachineConfig::paper();
        let mut session = SimSession::new(p, &machine, crb, EmuConfig::default(), None);
        session
            .narrate(sink, cfg)
            .expect("a one-machine session narrates");
        session.run_to_end().unwrap();
        session.into_outcome()
    }

    #[test]
    fn traced_run_narrates_reuse_windows_and_summaries() {
        let p = reusing_program();
        let mut summary = SummarySink::new();
        let cfg = TraceConfig {
            window: 64,
            ..TraceConfig::default()
        };
        let out = narrated(&p, Some(CrbConfig::paper()), &cfg, &mut summary);
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
    fn profiled_run_emits_samples_and_miss_causes() {
        let p = reusing_program();
        let cfg = TraceConfig {
            window: 256,
            profile: true,
            sample_period: 32,
        };
        let mut summary = SummarySink::new();
        let out = narrated(&p, Some(CrbConfig::paper()), &cfg, &mut summary);
        // Samples tile the run in whole periods: their covered cycles
        // never exceed the total and reach within one gap of it.
        assert!(summary.count("cycle_sample") >= 1);
        let sampled = summary.sum("cycle_sample", "cycles") as u64;
        assert!(sampled > 0 && sampled <= out.stats.cycles, "{sampled}");
        // The JSONL form carries the stack and the miss cause.
        let mut jsonl = ccr_telemetry::JsonlSink::new(Vec::new());
        narrated(&p, Some(CrbConfig::paper()), &cfg, &mut jsonl);
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
    fn baseline_narration_has_lookups_but_no_buffer_events() {
        let p = reusing_program();
        let mut summary = SummarySink::new();
        let cfg = TraceConfig {
            window: 128,
            ..TraceConfig::default()
        };
        let out = narrated(&p, None, &cfg, &mut summary);
        // Without a CRB every reuse misses; the timeline still records
        // each lookup, and no buffer events exist.
        assert_eq!(summary.count("reuse"), out.stats.reuse_misses);
        assert_eq!(summary.count("crb_evict"), 0);
        assert_eq!(summary.count("crb_conflict"), 0);
    }
}
