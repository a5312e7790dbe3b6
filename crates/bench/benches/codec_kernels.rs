//! Hot-kernel microbenches for the codec/fold path, gated in CI.
//!
//! These are the kernels the allocation-free aggregation round spends
//! its time in: blocked `axpy`/`scale`, decode-side
//! `dequantize_i8_axpy`/`axpy_sparse`, encode-side `quantize_i8_into` /
//! `top_k_by_magnitude_into`, and one whole compensated fold round.
//!
//! The `calibration/axpy_scalar` entry is a host-speed probe: the perf
//! gate divides every time by it before comparing against the
//! checked-in `BENCH_codec_kernels.json`, so the gate measures
//! *relative* kernel cost and survives CI runners of different speeds.
//! Regenerate the baseline with:
//!
//! ```text
//! cargo bench --bench codec_kernels -- --save-baseline ../../BENCH_codec_kernels.json
//! ```

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tifl_comm::{CodecSpec, EncodeScratch, ErrorFeedback};
use tifl_fl::aggregator::{ClientUpdate, StreamingFold};
use tifl_tensor::{codec, ops, ParamVec};

/// One CIFAR-10-CNN-ish flattened model (order of the paper's models).
const N: usize = 65_536;

fn dense(seed: usize) -> Vec<f32> {
    (0..N)
        .map(|i| ((i * 7 + seed * 131) as f32 * 0.013).sin() * 2.0)
        .collect()
}

fn bench_kernels(c: &mut Criterion) {
    let x = dense(1);
    let mut out = dense(2);

    // Host-speed probe: always the scalar reference, never gated.
    c.bench_function("calibration/axpy_scalar", |b| {
        b.iter(|| ops::axpy_scalar(black_box(0.25), black_box(&x), black_box(&mut out)));
    });

    c.bench_function("hot/axpy", |b| {
        b.iter(|| ops::axpy(black_box(0.25), black_box(&x), black_box(&mut out)));
    });
    c.bench_function("hot/scale", |b| {
        b.iter(|| ops::scale(black_box(0.999), black_box(&mut out)));
    });

    let (min, scale, codes) = codec::quantize_i8(&x);
    c.bench_function("hot/dequantize_i8_axpy", |b| {
        b.iter(|| {
            codec::dequantize_i8_axpy(
                black_box(0.25),
                black_box(min),
                black_box(scale),
                black_box(&codes),
                black_box(&mut out),
            );
        });
    });

    let picked = codec::top_k_by_magnitude(&x, N / 10);
    let indices: Vec<u32> = picked.iter().map(|&(i, _)| i).collect();
    let values: Vec<f32> = picked.iter().map(|&(_, v)| v).collect();
    let idx_delta = codec::delta_encode_indices(&indices);
    c.bench_function("hot/axpy_sparse", |b| {
        b.iter(|| {
            codec::axpy_sparse(
                black_box(0.25),
                black_box(&idx_delta),
                black_box(&values),
                black_box(&mut out),
            );
        });
    });

    c.bench_function("hot/minmax", |b| {
        b.iter(|| codec::minmax(black_box(&x)));
    });

    let mut code_buf: Vec<i8> = Vec::new();
    c.bench_function("hot/quantize_i8_into", |b| {
        b.iter(|| codec::quantize_i8_into(black_box(&x), black_box(&mut code_buf)));
    });

    let y = dense(9);
    let mut delta: Vec<f32> = Vec::new();
    let mut residual = vec![0.0f32; N];
    c.bench_function("hot/add_into_minmax", |b| {
        b.iter(|| codec::add_into_minmax(black_box(&x), black_box(&y), black_box(&mut delta)));
    });
    let (lo, hi) = codec::minmax(&x);
    c.bench_function("hot/quantize_i8_residual_into", |b| {
        b.iter(|| {
            codec::quantize_i8_residual_into(
                black_box(&x),
                black_box(lo),
                black_box(hi),
                black_box(&mut code_buf),
                black_box(&mut residual),
            );
        });
    });

    let (mut order, mut idx, mut vals) = (Vec::new(), Vec::new(), Vec::new());
    c.bench_function("hot/top_k_into", |b| {
        b.iter(|| {
            codec::top_k_by_magnitude_into(
                black_box(&x),
                black_box(N / 10),
                black_box(&mut order),
                black_box(&mut idx),
                black_box(&mut vals),
            );
        });
    });
}

/// One full steady-state aggregation round per codec: compensated
/// encode + streaming fold + global swap, all on pooled buffers.
fn bench_round(c: &mut Criterion) {
    let clients = 5usize;
    let updates: Vec<ClientUpdate> = (0..clients)
        .map(|cl| ClientUpdate {
            client: cl,
            params: ParamVec(dense(cl + 3)),
            samples: 100 + cl * 17,
        })
        .collect();
    let weights: Vec<f32> = updates.iter().map(|u| u.samples as f32).collect();

    for (label, spec) in [
        ("round/fold_identity", CodecSpec::Identity),
        ("round/fold_quant_i8", CodecSpec::QuantizeI8),
        ("round/fold_topk_0.1", CodecSpec::TopK { frac: 0.1 }),
    ] {
        let mut global = ParamVec::zeros(N);
        let mut feedback = ErrorFeedback::new();
        let mut scratch = EncodeScratch::new();
        c.bench_function(label, |b| {
            b.iter(|| {
                let acc = scratch.take_zeroed(N);
                let mut fold = StreamingFold::with_acc(acc, &weights);
                for u in &updates {
                    fold.fold_compensated(&spec, u, &global, &mut feedback, &mut scratch);
                }
                let next = fold.finish_against(&global).expect("non-empty");
                let old = std::mem::replace(&mut global, next);
                scratch.recycle_dense(old);
            });
        });
    }
}

criterion_group!(benches, bench_kernels, bench_round);
criterion_main!(benches);
