//! Criterion bench for the Monte-Carlo sweep engine: the same 1000-trial
//! Gaussian-jitter study of the 4-bit ripple adder run three ways —
//!
//! * `serial_rebuild` — the per-trial baseline: rebuild the circuit and a
//!   fresh `Simulation` for every trial, single-threaded (what the old
//!   `robustness` binary did);
//! * `sweep_1_thread_w64` — the sweep's lane kernel pinned to one worker,
//!   isolating the compile-once, observed-only-recording win;
//! * `sweep_all_threads_w64` — the same on all cores, adding the parallel
//!   fan-out win.
//!
//! A width scan prices the batch width at one thread, and a final smoke
//! check prints the measured speedup of the sweep over the serial-rebuild
//! baseline and asserts both agree on trial outcomes.

use criterion::{criterion_group, criterion_main, Criterion};
use rlse_core::prelude::*;
use rlse_core::sweep::trial_seed;
use rlse_designs::ripple_adder_with_inputs;
use std::time::Instant;

const TRIALS: u64 = 1000;
const SIGMA: f64 = 0.2;
const SEED: u64 = 42;

fn build() -> Circuit {
    let mut c = Circuit::new();
    ripple_adder_with_inputs(&mut c, 4, 9, 6, false).expect("valid bench");
    c
}

/// The per-trial baseline: rebuild, serial.
fn serial_rebuild(trials: u64) -> u64 {
    let mut ok = 0;
    for trial in 0..trials {
        let mut sim = Simulation::new(build())
            .variability(Variability::Gaussian { std: SIGMA })
            .seed(trial_seed(SEED, trial));
        if sim.run().is_ok() {
            ok += 1;
        }
    }
    ok
}

fn run_sweep(trials: u64, threads: usize, width: usize) -> SweepReport {
    Sweep::over(build)
        .variability(|| Variability::Gaussian { std: SIGMA })
        .trials(trials)
        .master_seed(SEED)
        .threads(threads)
        .batch_width(width)
        .run()
}

fn monte_carlo(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep_ripple_adder_1000");
    group.sample_size(10);
    group.bench_function("serial_rebuild", |b| b.iter(|| serial_rebuild(TRIALS)));
    group.bench_function("sweep_1_thread_w64", |b| b.iter(|| run_sweep(TRIALS, 1, 64)));
    group.bench_function("sweep_all_threads_w64", |b| {
        b.iter(|| run_sweep(TRIALS, 0, 64))
    });
    group.finish();
}

/// Batch width scan at one thread: how wide the lane blocks should be
/// before cache pressure eats the amortization win.
fn batch_width_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_width_ripple_adder_1000");
    group.sample_size(10);
    for width in [1usize, 8, 16, 64, 256] {
        group.bench_function(format!("w{width}"), |b| {
            b.iter(|| run_sweep(TRIALS, 1, width))
        });
    }
    group.finish();
}

fn speedup_summary(_c: &mut Criterion) {
    let t0 = Instant::now();
    let baseline_ok = serial_rebuild(TRIALS);
    let baseline = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let report = run_sweep(TRIALS, 0, 64);
    let parallel = t1.elapsed().as_secs_f64();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "speedup summary: serial rebuild {baseline:.3}s vs sweep {parallel:.3}s \
         => {:.2}x on {cores} cores (ok: baseline {baseline_ok}, sweep {})",
        baseline / parallel.max(1e-12),
        report.ok,
    );
    assert_eq!(
        baseline_ok, report.ok,
        "sweep and baseline must agree on trial outcomes"
    );
}

criterion_group!(benches, monte_carlo, batch_width_scan, speedup_summary);
criterion_main!(benches);
