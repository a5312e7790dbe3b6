//! Federated data synthesis (`ExperimentConfig::build_data`), gated in
//! CI.
//!
//! Builds a 2 000-client × 50-sample resource-heterogeneous pool under
//! a 1-thread and a 2-thread rayon pool. Labels are drawn serially and
//! client features filled across the pool, so the 2-thread time tracks
//! how much of the build runs in parallel.
//!
//! The `calibration/axpy_scalar` entry is the host-speed probe shared
//! with `codec_kernels`: the perf gate divides every time by it before
//! comparing against the checked-in `BENCH_data_build.json`.
//! Regenerate the baseline with:
//!
//! ```text
//! cargo bench --bench data_build -- --save-baseline ../../BENCH_data_build.json
//! ```

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::time::Duration;
use tifl_core::experiment::{DataScenario, ExperimentConfig};
use tifl_tensor::ops;

const N: usize = 65_536;
const MEASUREMENT: Duration = Duration::from_secs(2);

fn bench_data_build(c: &mut Criterion) {
    // Measured as long as the builds below, so a passing load spike
    // skews the probe no more than the benchmarks it normalizes.
    let x: Vec<f32> = (0..N).map(|i| (i as f32 * 0.013).sin()).collect();
    let mut out = vec![0.0f32; N];
    let mut calibration = c.benchmark_group("calibration");
    calibration.measurement_time(MEASUREMENT);
    calibration.bench_function("axpy_scalar", |b| {
        b.iter(|| ops::axpy_scalar(black_box(0.25), black_box(&x), black_box(&mut out)));
    });
    calibration.finish();

    let mut cfg = ExperimentConfig::cifar10_resource_het(1);
    cfg.num_clients = 2_000;
    cfg.data = DataScenario::Iid { per_client: 50 };
    let mut group = c.benchmark_group("data");
    group.measurement_time(MEASUREMENT);
    for threads in [1, 2] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool builds");
        group.bench_function(format!("build_2000x50_t{threads}"), |b| {
            b.iter(|| pool.install(|| black_box(&cfg).build_data()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_data_build);
criterion_main!(benches);
