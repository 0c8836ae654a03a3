//! Microbenchmarks for the simulator's hot paths — the code the
//! host-performance work in DESIGN.md §9 targets: CRB instance
//! scanning (short and long entries), ghost scanning, a whole baseline
//! simulation, the layers of the simulation loop (bare emulation, the
//! same program simulated without a buffer, and a CCR simulation), the
//! value profiler and the reuse-potential study.

use ccr_core::compile::{compile_ccr, profile_train};
use ccr_core::measure::reuse_potential;
use ccr_core::CompileConfig;
use ccr_ir::{Reg, RegionId, Value};
use ccr_profile::{CrbModel, Emulator, NullCrb, NullSink, RecordedInstance};
use ccr_sim::{simulate, CrbConfig, MachineConfig, ReuseBuffer};
use ccr_workloads::{build, InputSet};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// A 4-input instance whose values are derived from `seed`.
fn wide_instance(seed: i64) -> RecordedInstance {
    RecordedInstance {
        inputs: (1..=4)
            .map(|r| (Reg(r), Value::from_int(seed * 10 + r as i64)))
            .collect(),
        outputs: vec![(Reg(5), Value::from_int(seed))],
        accesses_memory: false,
        body_instrs: 12,
    }
}

/// A buffer whose entry for region 7 holds `CrbConfig::paper()`'s full
/// eight 4-input instances (seeds 0..8).
fn full_entry() -> ReuseBuffer {
    let mut buf = ReuseBuffer::new(CrbConfig::paper());
    for seed in 0..8 {
        buf.record(RegionId(7), wide_instance(seed));
    }
    buf
}

/// A buffer whose entry for region 7 holds sixty-four 4-input
/// instances — the long-entry case, where a miss walks every slot.
fn long_entry() -> ReuseBuffer {
    let mut buf = ReuseBuffer::new(CrbConfig {
        instances: 64,
        ..CrbConfig::paper()
    });
    for seed in 0..64 {
        buf.record(RegionId(7), wide_instance(seed));
    }
    buf
}

fn bench_crb_lookup(c: &mut Criterion) {
    let mut g = c.benchmark_group("crb_hotpath");

    // Hit on the oldest instance: slot 0's four recorded pairs all
    // hold, so the scan stops at the first slot.
    g.bench_function("lookup_hit", |b| {
        let mut buf = full_entry();
        b.iter(|| {
            black_box(buf.lookup(RegionId(7), &mut |r| Value::from_int(r.0 as i64)));
        });
    });

    // Mismatch miss: eight live instances, none matching — each slot
    // fails on its first pair, then the empty ghost list is walked.
    g.bench_function("lookup_mismatch_miss", |b| {
        let mut buf = full_entry();
        b.iter(|| {
            black_box(buf.lookup(RegionId(7), &mut |_r| Value::from_int(-1)));
        });
    });

    // Ghost scan: sixteen further records evicted the original eight,
    // so a lookup for seed 0 misses the live instances and walks the
    // ghost list to classify the miss as a capacity casualty.
    g.bench_function("lookup_ghost_scan", |b| {
        let mut buf = full_entry();
        for seed in 8..24 {
            buf.record(RegionId(7), wide_instance(seed));
        }
        b.iter(|| {
            black_box(buf.lookup(RegionId(7), &mut |r| Value::from_int(r.0 as i64)));
        });
    });

    // Long entry: a 64-instance bank, mismatch probe — sixty-four
    // slots, each rejected on its first pair.
    g.bench_function("lookup_mismatch_long_entry", |b| {
        let mut buf = long_entry();
        b.iter(|| {
            black_box(buf.lookup(RegionId(7), &mut |_r| Value::from_int(-1)));
        });
    });

    g.finish();
}

fn bench_pipeline_ready_tracking(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipeline_hotpath");
    g.sample_size(10);
    // A baseline simulation of a call-heavy workload: per instruction,
    // the emulator and the pipeline read the decoded row and the frame
    // scoreboard; every call takes a pooled frame reset to a dense
    // ready vector, every return merges results back.
    let program = build("130.li", InputSet::Train, 1).unwrap();
    g.bench_function("ready_tracking_li", |b| {
        b.iter(|| {
            let out = simulate(
                &program,
                &MachineConfig::paper(),
                None,
                ccr_bench::emu_config(),
            )
            .unwrap();
            black_box(out.stats.cycles);
        });
    });
    g.finish();
}

fn bench_simulation_loop(c: &mut Criterion) {
    let mut g = c.benchmark_group("loop_hotpath");
    g.sample_size(10);
    let program = build("124.m88ksim", InputSet::Train, 1).unwrap();
    // The emulator alone: decode-row reads, operand reads and
    // semantics, with a buffer and sink that do nothing.
    g.bench_function("emulate_only_m88ksim", |b| {
        let emulator = Emulator::with_config(&program, ccr_bench::emu_config());
        b.iter(|| {
            black_box(
                emulator
                    .run(&mut NullCrb, &mut NullSink)
                    .unwrap()
                    .dyn_instrs,
            )
        });
    });
    // The same program simulated on the paper machine without a
    // buffer: the emulator above plus the timing pipeline, so the
    // difference of the two rows is the timing model's cost.
    g.bench_function("simulate_base_m88ksim", |b| {
        b.iter(|| {
            let out = simulate(
                &program,
                &MachineConfig::paper(),
                None,
                ccr_bench::emu_config(),
            )
            .unwrap();
            black_box(out.stats.cycles);
        });
    });
    // The whole loop on the region-annotated build: emulator, paper
    // CRB and timing pipeline together.
    let config = CompileConfig {
        emu: ccr_bench::emu_config(),
        ..CompileConfig::paper()
    };
    let annotated = compile_ccr(&program, &program, &config).unwrap().annotated;
    g.bench_function("simulate_ccr_m88ksim", |b| {
        b.iter(|| {
            let out = simulate(
                &annotated,
                &MachineConfig::paper(),
                Some(CrbConfig::paper()),
                ccr_bench::emu_config(),
            )
            .unwrap();
            black_box(out.stats.cycles);
        });
    });
    g.finish();
}

fn bench_value_profile(c: &mut Criterion) {
    let mut g = c.benchmark_group("profile_hotpath");
    g.sample_size(10);
    // The first compile stage: optimize, then emulate under the value
    // profiler (per-instruction input hashing, per-load location
    // versions, cyclic live-in capture).
    let program = build("124.m88ksim", InputSet::Train, 1).unwrap();
    let config = CompileConfig {
        emu: ccr_bench::emu_config(),
        ..CompileConfig::paper()
    };
    g.bench_function("value_profile_m88ksim", |b| {
        b.iter(|| black_box(profile_train(&program, &config).unwrap()));
    });
    // The loop- and load-heavy case: most of compress's profiling time
    // goes to cyclic live-in capture and per-load location versions,
    // where m88ksim is the cheapest per instruction.
    let compress = build("129.compress", InputSet::Train, 1).unwrap();
    g.bench_function("value_profile_compress", |b| {
        b.iter(|| black_box(profile_train(&compress, &config).unwrap()));
    });
    // The Figure 4 limit study: block, path and loop signatures.
    let li = build("130.li", InputSet::Train, 1).unwrap();
    g.bench_function("potential_study_li", |b| {
        b.iter(|| black_box(reuse_potential(&li, ccr_bench::emu_config()).unwrap()));
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_crb_lookup,
    bench_pipeline_ready_tracking,
    bench_simulation_loop,
    bench_value_profile
);
criterion_main!(benches);
