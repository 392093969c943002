//! Criterion benches: one per paper figure, timing the experiment drivers
//! at reduced (quick) scale so `cargo bench` terminates in minutes.
//!
//! The *numbers* the paper reports are regenerated at full scale by
//! `eaao repro`; these benches measure how fast the simulation pipeline
//! reproduces each figure, and catch performance regressions in the
//! placement, fingerprinting, and verification paths.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use eaao_core::experiment::{fig04, fig05, fig06, fig07, fig08, fig09, fig10, fig11, fig12};

fn bench_fig04_fingerprint_accuracy(c: &mut Criterion) {
    let config = fig04::Fig04Config::quick();
    c.bench_function("fig04_fingerprint_accuracy", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            black_box(config.run(seed))
        });
    });
}

fn bench_fig05_expiration(c: &mut Criterion) {
    let config = fig05::Fig05Config::quick();
    c.bench_function("fig05_expiration", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            black_box(config.run(seed))
        });
    });
}

fn bench_fig06_idle_termination(c: &mut Criterion) {
    let config = fig06::Fig06Config::quick();
    c.bench_function("fig06_idle_termination", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            black_box(config.run(seed))
        });
    });
}

fn bench_fig07_base_hosts(c: &mut Criterion) {
    let config = fig07::Fig07Config::quick();
    c.bench_function("fig07_base_hosts", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            black_box(config.run(seed))
        });
    });
}

fn bench_fig08_accounts(c: &mut Criterion) {
    let config = fig08::Fig08Config::quick();
    c.bench_function("fig08_accounts", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            black_box(config.run(seed))
        });
    });
}

fn bench_fig09_helper_hosts(c: &mut Criterion) {
    let config = fig09::Fig09Config::quick();
    c.bench_function("fig09_helper_hosts", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            black_box(config.run(seed))
        });
    });
}

fn bench_fig10_episodes(c: &mut Criterion) {
    let config = fig10::Fig10Config::quick();
    c.bench_function("fig10_episodes", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            black_box(config.run(seed))
        });
    });
}

fn bench_fig11_coverage(c: &mut Criterion) {
    let config = fig11::Fig11Config::quick();
    c.bench_function("fig11_coverage", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            black_box(config.run_11a(seed))
        });
    });
}

fn bench_fig12_cluster_size(c: &mut Criterion) {
    let config = fig12::Fig12Config::quick();
    c.bench_function("fig12_cluster_size", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            black_box(config.run(seed))
        });
    });
}

criterion_group! {
    name = figures;
    config = Criterion::default().sample_size(10);
    targets =
        bench_fig04_fingerprint_accuracy,
        bench_fig05_expiration,
        bench_fig06_idle_termination,
        bench_fig07_base_hosts,
        bench_fig08_accounts,
        bench_fig09_helper_hosts,
        bench_fig10_episodes,
        bench_fig11_coverage,
        bench_fig12_cluster_size,
}
criterion_main!(figures);
