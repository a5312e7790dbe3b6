//! Bit-for-bit equivalence proptests for the blocked/unrolled hot-path
//! kernels against their scalar reference implementations, plus the
//! documented non-finite contract of the codec kernels.
//!
//! The register-blocked GEMMs are pinned to the plain loops they
//! replaced (`ops::*_ref`) on shapes around the tile edges, on exact
//! zeros, `-0.0` and NaN/±inf operands, and on both sides of the
//! row-parallel threshold under 1- and 4-thread pools.
//!
//! These run against whichever dispatch the build selected: the default
//! 4/8-wide unrolled loops, or (under `cargo test --features simd`) the
//! SSE2 kernels — so one suite pins both tiers to the scalar reference.
//! Equality is asserted on raw bit patterns, never on approximate
//! values: the aggregation pipeline's two execution backends are pinned
//! bit-for-bit equal, so any kernel that reassociates or fuses floats
//! is a correctness bug here, not a tolerance question.

use proptest::prelude::*;
use tifl::comm::{CodecSpec, EncodeScratch};
use tifl::tensor::{codec, ops, Matrix, ParamVec};

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Overwrite a sprinkling of elements with NaN/±inf, driven by a
/// generated tag vector (most tags leave the element finite).
fn inject_specials(xs: &mut [f32], tags: &[u8]) {
    for (x, &t) in xs.iter_mut().zip(tags) {
        match t {
            0 => *x = f32::NAN,
            1 => *x = f32::INFINITY,
            2 => *x = f32::NEG_INFINITY,
            _ => {}
        }
    }
}

/// A `rows x cols` operand: `vals` cycled, then per `tags` element an
/// exact zero (ReLU-style), a `-0.0`, or (when `specials`) NaN/±inf.
fn operand(rows: usize, cols: usize, vals: &[f32], tags: &[u8], specials: bool) -> Matrix {
    let len = rows * cols;
    let mut data: Vec<f32> = vals.iter().copied().cycle().take(len).collect();
    let tags: Vec<u8> = tags.iter().copied().cycle().take(len).collect();
    for (x, &t) in data.iter_mut().zip(&tags) {
        match t {
            3..=12 => *x = 0.0,
            13 => *x = -0.0,
            _ => {}
        }
    }
    if specials {
        inject_specials(&mut data, &tags);
    }
    Matrix::from_vec(rows, cols, data)
}

/// Bit patterns of a GEMM result, every NaN as `f32::NAN`.
///
/// Which NaN a NaN-producing multiply or add returns (its sign and
/// payload) is not specified by Rust's float semantics: the compiler may
/// swap the operands of a commutative `+` or `*`, and x86 then returns
/// the other operand's NaN or the default `-NaN`. Every non-NaN result,
/// `-0.0` included, and the position of every NaN must match exactly.
fn gemm_bits(m: &Matrix) -> Vec<u32> {
    m.as_slice()
        .iter()
        .map(|&x| if x.is_nan() { f32::NAN } else { x }.to_bits())
        .collect()
}

/// Every blocked GEMM equals its reference bit for bit on an
/// `m x n` product over `k`, in the calling thread's pool.
fn assert_gemms_match_refs(
    (m, n, k): (usize, usize, usize),
    (va, vb): (&[f32], &[f32]),
    (ta, tb): (&[u8], &[u8]),
    specials: bool,
) {
    let a = operand(m, k, va, ta, specials);
    let b = operand(k, n, vb, tb, specials);
    assert_eq!(
        gemm_bits(&ops::matmul(&a, &b)),
        gemm_bits(&ops::matmul_ref(&a, &b)),
        "matmul {m}x{n}x{k}"
    );
    let at = operand(k, m, va, ta, specials);
    assert_eq!(
        gemm_bits(&ops::matmul_transpose_a(&at, &b)),
        gemm_bits(&ops::matmul_transpose_a_ref(&at, &b)),
        "matmul_transpose_a {m}x{n}x{k}"
    );
    let bt = operand(n, k, vb, tb, specials);
    assert_eq!(
        gemm_bits(&ops::matmul_transpose_b(&a, &bt)),
        gemm_bits(&ops::matmul_transpose_b_ref(&a, &bt)),
        "matmul_transpose_b {m}x{n}x{k}"
    );
}

/// [`assert_gemms_match_refs`] under a 1- and a 4-thread pool.
fn assert_gemms_match_refs_in_pools(
    shape: (usize, usize, usize),
    vals: (&[f32], &[f32]),
    tags: (&[u8], &[u8]),
    specials: bool,
) {
    for threads in [1, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool builds");
        pool.install(|| assert_gemms_match_refs(shape, vals, tags, specials));
    }
}

proptest! {
    /// The blocked GEMMs are bitwise their references on shapes around
    /// the register tile's row and column tails, 0 and 1 included.
    #[test]
    fn gemms_match_references_bitwise_around_tile_tails(
        m in 0usize..14,
        n in 0usize..20,
        k in 0usize..12,
        va in prop::collection::vec(-8.0f32..8.0, 1..40),
        vb in prop::collection::vec(-8.0f32..8.0, 1..40),
        ta in prop::collection::vec(0u8..40, 1..60),
        tb in prop::collection::vec(0u8..40, 1..60),
        specials in 0u8..2,
    ) {
        assert_gemms_match_refs_in_pools((m, n, k), (&va, &vb), (&ta, &tb), specials == 1);
    }

    /// The same on products straddling the row-parallel threshold
    /// (64^3 multiply-adds): the split is by whole rows, so neither
    /// side nor the thread count changes a bit.
    #[test]
    fn gemms_match_references_bitwise_around_the_parallel_threshold(
        m in 60usize..72,
        n in 60usize..72,
        k in 60usize..72,
        va in prop::collection::vec(-8.0f32..8.0, 1..40),
        vb in prop::collection::vec(-8.0f32..8.0, 1..40),
        ta in prop::collection::vec(0u8..200, 1..60),
        tb in prop::collection::vec(0u8..200, 1..60),
        specials in 0u8..2,
    ) {
        assert_gemms_match_refs_in_pools((m, n, k), (&va, &vb), (&ta, &tb), specials == 1);
    }

    /// `ops::axpy` (unrolled or SIMD) is bitwise `ops::axpy_scalar`,
    /// including NaN/±inf propagation.
    #[test]
    fn axpy_matches_scalar_reference_bitwise(
        alpha in -10.0f32..10.0,
        xs in prop::collection::vec(-100.0f32..100.0, 0..300),
        out in prop::collection::vec(-100.0f32..100.0, 0..300),
        tags in prop::collection::vec(0u8..40, 0..300),
    ) {
        let n = xs.len().min(out.len());
        let mut x = xs[..n].to_vec();
        inject_specials(&mut x, &tags);
        let mut fast = out[..n].to_vec();
        let mut slow = fast.clone();
        ops::axpy(alpha, &x, &mut fast);
        ops::axpy_scalar(alpha, &x, &mut slow);
        prop_assert_eq!(bits(&fast), bits(&slow));
    }

    /// `ops::scale` is bitwise `ops::scale_scalar`.
    #[test]
    fn scale_matches_scalar_reference_bitwise(
        alpha in -10.0f32..10.0,
        out in prop::collection::vec(-100.0f32..100.0, 0..300),
        tags in prop::collection::vec(0u8..40, 0..300),
    ) {
        let mut fast = out.clone();
        inject_specials(&mut fast, &tags);
        let mut slow = fast.clone();
        ops::scale(alpha, &mut fast);
        ops::scale_scalar(alpha, &mut slow);
        prop_assert_eq!(bits(&fast), bits(&slow));
    }

    /// The unrolled dequantize-and-accumulate kernel is bitwise its
    /// scalar reference for every code pattern and affine range.
    #[test]
    fn dequantize_i8_axpy_matches_scalar_reference_bitwise(
        alpha in -4.0f32..4.0,
        min in -50.0f32..50.0,
        scale in 0.0f32..2.0,
        codes in prop::collection::vec(-128i8..=127, 0..300),
        out in prop::collection::vec(-100.0f32..100.0, 0..300),
    ) {
        let n = codes.len().min(out.len());
        let mut fast = out[..n].to_vec();
        let mut slow = fast.clone();
        codec::dequantize_i8_axpy(alpha, min, scale, &codes[..n], &mut fast);
        codec::dequantize_i8_axpy_scalar(alpha, min, scale, &codes[..n], &mut slow);
        prop_assert_eq!(bits(&fast), bits(&slow));
    }

    /// The unrolled sparse scatter-accumulate is bitwise its scalar
    /// reference on arbitrary sorted index subsets.
    #[test]
    fn axpy_sparse_matches_scalar_reference_bitwise(
        alpha in -4.0f32..4.0,
        out in prop::collection::vec(-100.0f32..100.0, 1..300),
        mask in prop::collection::vec(0u8..3, 300),
        vals in prop::collection::vec(-50.0f32..50.0, 300),
    ) {
        let indices: Vec<u32> = (0..out.len() as u32)
            .filter(|&i| mask[i as usize] == 0)
            .collect();
        let idx_delta = codec::delta_encode_indices(&indices);
        let values = &vals[..indices.len()];
        let mut fast = out.clone();
        let mut slow = out.clone();
        codec::axpy_sparse(alpha, &idx_delta, values, &mut fast);
        codec::axpy_sparse_scalar(alpha, &idx_delta, values, &mut slow);
        prop_assert_eq!(bits(&fast), bits(&slow));
    }

    /// Non-finite contract of `quantize_i8`: the range covers finite
    /// elements only, NaN/−inf pin to code −128, +inf to 127, and every
    /// finite element round-trips within one quantization step.
    #[test]
    fn quantize_i8_honours_the_non_finite_contract(
        xs in prop::collection::vec(-100.0f32..100.0, 1..300),
        tags in prop::collection::vec(0u8..20, 1..300),
    ) {
        let mut xs = xs;
        inject_specials(&mut xs, &tags);
        let (min, scale, codes) = codec::quantize_i8(&xs);
        prop_assert_eq!(codes.len(), xs.len());
        prop_assert!(min.is_finite() && scale.is_finite());
        prop_assert!(scale >= 0.0);
        for (&x, &c) in xs.iter().zip(&codes) {
            if x.is_nan() || x == f32::NEG_INFINITY {
                prop_assert_eq!(c, -128, "non-finite low must decode to min");
            } else if x == f32::INFINITY && scale > 0.0 {
                prop_assert_eq!(c, 127, "+inf must saturate to the top code");
            } else if x.is_finite() {
                let decoded = min + scale * (f32::from(c) + 128.0);
                prop_assert!(
                    (decoded - x).abs() <= scale.max(1e-4),
                    "finite {x} decoded to {decoded} (step {scale})"
                );
            }
        }
    }

    /// NaN magnitudes genuinely lose top-k selection: a NaN coordinate
    /// is picked only when k exceeds the number of non-NaN coordinates.
    #[test]
    fn top_k_never_selects_nan_over_non_nan(
        xs in prop::collection::vec(-100.0f32..100.0, 1..200),
        tags in prop::collection::vec(0u8..6, 1..200),
        k_frac in 0.05f32..1.0,
    ) {
        let mut xs = xs;
        inject_specials(&mut xs, &tags);
        let k = ((xs.len() as f32 * k_frac).ceil() as usize).clamp(1, xs.len());
        let picked = codec::top_k_by_magnitude(&xs, k);
        prop_assert_eq!(picked.len(), k);
        let non_nan = xs.iter().filter(|x| !x.is_nan()).count();
        let picked_nan = picked
            .iter()
            .filter(|&&(i, _)| xs[i as usize].is_nan())
            .count();
        prop_assert_eq!(
            picked_nan,
            k.saturating_sub(non_nan),
            "NaNs must only fill slots no non-NaN value could take"
        );
        // Indices are strictly increasing and values mirror the input.
        for w in picked.windows(2) {
            prop_assert!(w[0].0 < w[1].0);
        }
        for &(i, v) in &picked {
            prop_assert_eq!(v.to_bits(), xs[i as usize].to_bits());
        }
    }

    /// The scratch-arena encode path is payload-identical to the
    /// allocating `CodecSpec::encode` for every codec, including across
    /// buffer recycling.
    #[test]
    fn encode_with_scratch_matches_allocating_encode(
        params in prop::collection::vec(-10.0f32..10.0, 1..400),
        base in prop::collection::vec(-10.0f32..10.0, 1..400),
        frac in 0.05f64..1.0,
    ) {
        let n = params.len().min(base.len());
        let p = ParamVec(params[..n].to_vec());
        let b = ParamVec(base[..n].to_vec());
        let mut scratch = EncodeScratch::new();
        for codec in [
            CodecSpec::Identity,
            CodecSpec::QuantizeI8,
            CodecSpec::TopK { frac },
        ] {
            for _ in 0..2 {
                let enc = codec.encode_with(&p, &b, &mut scratch);
                prop_assert_eq!(&enc, &codec.encode(&p, &b), "{:?}", codec);
                prop_assert_eq!(enc.wire_bytes(), codec.encoded_bytes(n));
                let mut out = scratch.take_empty();
                enc.decode_into(&b, &mut out);
                prop_assert_eq!(&out, &enc.decode(&b), "{:?}", codec);
                scratch.recycle_dense(out);
                scratch.recycle(enc);
            }
        }
    }
}
