//! Criterion benchmarks of the figure/table regeneration pipelines at
//! reduced scale — one benchmark per paper artifact family, so changes
//! to the optimizer or substrates show up as end-to-end cost shifts.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use harmony_bench::experiments::{ablations, fig01, fig03, fig04_07, fig08, fig09, fig10, tables};

fn bench_fig01(c: &mut Criterion) {
    let cfg = fig01::Fig01Config {
        steps: 60,
        reps: 2,
        ..Default::default()
    };
    c.bench_function("fig01/three_algorithms_60steps", |b| {
        b.iter(|| black_box(fig01::run(&cfg)))
    });
}

fn bench_fig03(c: &mut Criterion) {
    let cfg = fig03::Fig03Config {
        procs: 16,
        iters: 400,
        plotted: 4,
        seed: 1,
    };
    c.bench_function("fig03/trace_generation", |b| {
        b.iter(|| black_box(fig03::run(&cfg)))
    });
}

fn bench_fig04_07(c: &mut Criterion) {
    let cfg = fig04_07::TailConfig {
        trace: fig03::Fig03Config {
            procs: 16,
            iters: 400,
            plotted: 4,
            seed: 1,
        },
        ..Default::default()
    };
    c.bench_function("fig04_07/tail_pipeline", |b| {
        b.iter(|| black_box(fig04_07::run(&cfg)))
    });
}

fn bench_fig08(c: &mut Criterion) {
    let cfg = fig08::Fig08Config::default();
    c.bench_function("fig08/surface_dump", |b| {
        b.iter(|| black_box(fig08::run(&cfg)))
    });
}

fn bench_fig09(c: &mut Criterion) {
    let cfg = fig09::Fig09Config {
        sizes: vec![0.2],
        steps: 50,
        reps: 4,
        ..Default::default()
    };
    c.bench_function("fig09/one_size_cell", |b| {
        b.iter(|| black_box(fig09::run(&cfg)))
    });
}

fn bench_fig10(c: &mut Criterion) {
    let cfg = fig10::Fig10Config {
        reps: 8,
        steps: 50,
        ..Default::default()
    };
    c.bench_function("fig10/one_cell", |b| {
        b.iter(|| black_box(fig10::cell_with_sem(0.2, 3, &cfg)))
    });
}

fn bench_tables(c: &mut Criterion) {
    c.bench_function("tables/queue_validation_small", |b| {
        b.iter(|| black_box(tables::queue_validation(2_000, 1)))
    });
    c.bench_function("tables/min_operator_small", |b| {
        b.iter(|| black_box(tables::min_operator(5_000, 1)))
    });
}

fn bench_ablations(c: &mut Criterion) {
    c.bench_function("ablations/expansion_check_small", |b| {
        b.iter(|| black_box(ablations::expansion_check(40, 3, 0.1, 1)))
    });
}

criterion_group!(
    figures,
    bench_fig01,
    bench_fig03,
    bench_fig04_07,
    bench_fig08,
    bench_fig09,
    bench_fig10,
    bench_tables,
    bench_ablations
);
criterion_main!(figures);
