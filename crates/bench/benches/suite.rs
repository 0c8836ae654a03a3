//! Criterion benchmarks over the paper's experiments themselves: the
//! time to regenerate one benchmark's Figure 8 data point (compile +
//! baseline + CCR simulation) and one Figure 4 data point (limit
//! study).

use ccr_bench::emu_config;
use ccr_core::compile::{compile_ccr, CompileConfig};
use ccr_core::measure::{measure, reuse_potential};
use ccr_sim::{CrbConfig, MachineConfig};
use ccr_workloads::{build, InputSet};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_figure8_point(c: &mut Criterion) {
    let mut g = c.benchmark_group("figure8");
    g.sample_size(10);
    let config = CompileConfig {
        emu: emu_config(),
        ..CompileConfig::paper()
    };
    for name in ["124.m88ksim", "099.go", "pgpencode"] {
        g.bench_function(format!("speedup_{name}"), |b| {
            b.iter(|| {
                let program = build(name, InputSet::Train, 1).unwrap();
                let compiled = compile_ccr(&program, &program, &config).unwrap();
                let m = measure(
                    &compiled,
                    &MachineConfig::paper(),
                    CrbConfig::paper(),
                    emu_config(),
                )
                .unwrap();
                black_box(m.speedup());
            });
        });
    }
    g.finish();
}

fn bench_figure4_point(c: &mut Criterion) {
    let mut g = c.benchmark_group("figure4");
    g.sample_size(10);
    let program = build("132.ijpeg", InputSet::Train, 1).unwrap();
    g.bench_function("potential_ijpeg", |b| {
        b.iter(|| {
            black_box(reuse_potential(&program, emu_config()).unwrap());
        });
    });
    g.finish();
}

criterion_group!(benches, bench_figure8_point, bench_figure4_point);
criterion_main!(benches);
