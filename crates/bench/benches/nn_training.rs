//! Benchmarks of one client's local training for the experiment models
//! — what the simulator's `flops_per_sample` abstraction stands in for
//! — and of a global-model evaluation, gated in CI.
//!
//! The `calibration/axpy_scalar` entry is the host-speed probe shared
//! with `codec_kernels` and `data_build`: the perf gate divides every
//! time by it before comparing against the checked-in
//! `BENCH_nn_training.json`. Regenerate the baseline with:
//!
//! ```text
//! cargo bench --bench nn_training -- --save-baseline ../../BENCH_nn_training.json
//! ```
//!
//! then delete its `evaluate_500_samples` line: that multi-threaded
//! evaluation is measured in every run but too noisy on a shared host
//! to gate, and the gate skips labels the baseline does not list.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::time::Duration;
use tifl_data::synth::{Generator, SynthFamily, SynthSpec};
use tifl_fl::client::{local_train, ClientConfig};
use tifl_nn::models::ModelSpec;
use tifl_tensor::ops;

const N: usize = 65_536;
/// Every benchmark here, the probe included, measures this long: the
/// training steps run ~1 ms, so short windows catch host noise.
const MEASUREMENT: Duration = Duration::from_secs(2);

fn bench_calibration(c: &mut Criterion) {
    let x: Vec<f32> = (0..N).map(|i| (i as f32 * 0.013).sin()).collect();
    let mut out = vec![0.0f32; N];
    let mut calibration = c.benchmark_group("calibration");
    calibration.measurement_time(MEASUREMENT);
    calibration.bench_function("axpy_scalar", |b| {
        b.iter(|| ops::axpy_scalar(black_box(0.25), black_box(&x), black_box(&mut out)));
    });
    calibration.finish();
}

fn bench_local_train(c: &mut Criterion) {
    let gen = Generator::new(SynthSpec::family(SynthFamily::Cifar10), 0);
    let data = gen.generate_uniform(100, 0);
    let cfg = ClientConfig::paper_synthetic();

    let mut g = c.benchmark_group("local_train_100_samples");
    g.measurement_time(MEASUREMENT);
    for (label, spec) in [
        (
            "logistic",
            ModelSpec::Logistic {
                input: 64,
                classes: 10,
            },
        ),
        (
            "mlp_128",
            ModelSpec::Mlp {
                input: 64,
                hidden: 128,
                classes: 10,
            },
        ),
        (
            "cnn_4_8",
            ModelSpec::Cnn {
                side: 8,
                channels: (4, 8),
                hidden: 32,
                classes: 10,
            },
        ),
    ] {
        let global = spec.build(1).params();
        g.bench_function(label, |b| {
            b.iter(|| {
                local_train(
                    black_box(&spec),
                    black_box(&global),
                    black_box(&data),
                    &cfg,
                    0,
                    0,
                    42,
                )
            });
        });
    }
    g.finish();
}

fn bench_evaluate(c: &mut Criterion) {
    let gen = Generator::new(SynthSpec::family(SynthFamily::Cifar10), 0);
    let data = gen.generate_uniform(500, 0);
    let spec = ModelSpec::Mlp {
        input: 64,
        hidden: 128,
        classes: 10,
    };
    let mut model = spec.build(1);
    // Gated on one thread: in the ambient pool the 500-row GEMMs split
    // across threads, and the time tracks how much of a shared host's
    // second core the run got (-27%..+59% over five runs on a 2-vCPU VM).
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool builds");
    c.bench_function("evaluate_500_samples_t1", |b| {
        b.iter(|| pool.install(|| model.evaluate(black_box(&data.x), black_box(&data.y))));
    });
    // The parallel row-block split, measured but left out of the
    // baseline, so not gated.
    c.bench_function("evaluate_500_samples", |b| {
        b.iter(|| model.evaluate(black_box(&data.x), black_box(&data.y)));
    });
}

criterion_group!(
    benches,
    bench_calibration,
    bench_local_train,
    bench_evaluate
);
criterion_main!(benches);
