//! Matrix and vector kernels.
//!
//! The three GEMMs ([`matmul`], [`matmul_transpose_a`],
//! [`matmul_transpose_b`]) share one register-blocked core (the
//! micro-kernel scheme of Goto & van de Geijn, "Anatomy of
//! High-Performance Matrix Multiplication", ACM TOMS 2008): an
//! `MR x NR` tile of accumulators stays in registers while the core
//! streams a packed `MR`-row block of `A` against an `NR`-column panel
//! of `B`. `matmul_transpose_b` runs the core over a transposed copy of
//! its `b`.
//!
//! The blocking changes where partial sums live, never which operations
//! run. Every output starts at `0.0` and adds its `k` products in
//! ascending `k` order, each a plain multiply then add: no FMA, no
//! reassociation. `matmul` and `matmul_transpose_a` skip a zero
//! multiplier, as their plain loops always did: when `B` holds a NaN or
//! ±inf, by adding `0.0` in its place (a lane select); otherwise the
//! product of a zero is `±0` and adds nothing. The results are
//! bit-for-bit those of the plain loops kept as [`matmul_ref`],
//! [`matmul_transpose_a_ref`] and [`matmul_transpose_b_ref`], which
//! exist only for the equivalence tests to compare against. The one
//! freedom is which NaN a NaN result carries: Rust leaves the sign and
//! payload of a NaN produced by arithmetic unspecified, so the tests
//! compare NaN positions, not NaN bits.
//!
//! Problems of at least `PAR_THRESHOLD` multiply-adds split their
//! output rows across the rayon pool in whole row blocks. Rows are
//! independent, so results do not depend on the thread count. The
//! element-wise kernels are 8-wide unrolled (SSE2 with the `simd`
//! feature) and pinned to their scalar references the same way.

use crate::Matrix;
use rayon::prelude::*;

/// Problems smaller than this many multiply-adds run sequentially.
const PAR_THRESHOLD: usize = 64 * 64 * 64;

/// Rows of the register tile.
const MR: usize = 4;
/// Columns of the register tile.
const NR: usize = 8;

/// `out (m x n) = A (m x k) * B (k x n)` on the register-blocked core.
///
/// `a(i, p)` reads element `(i, p)` of `A`; `b` is `B` row-major. With
/// `SKIP_ZERO` a zero multiplier `A(i, p)` adds `0.0` instead of
/// `A(i, p) * B(p, j)` (a lane select). That equals skipping the term
/// even when `B` holds NaN or ±inf: an accumulator that starts at `+0.0`
/// never becomes `-0.0`, so adding `+0.0` leaves it unchanged.
fn gemm<const SKIP_ZERO: bool>(
    (m, n, k): (usize, usize, usize),
    a: impl Fn(usize, usize) -> f32 + Sync,
    b: &[f32],
) -> Matrix {
    debug_assert_eq!(b.len(), k * n);
    let mut out = Matrix::zeros(m, n);
    if m == 0 || n == 0 || k == 0 {
        return out;
    }
    // The last, partial column panel of `B`, zero-padded to `NR` wide.
    let tail_cols = n % NR;
    let mut tail = vec![0.0f32; if tail_cols == 0 { 0 } else { k * NR }];
    for (dst, row) in tail.chunks_exact_mut(NR).zip(b.chunks_exact(n)) {
        dst[..tail_cols].copy_from_slice(&row[n - tail_cols..]);
    }

    let blocks = m.div_ceil(MR);
    let parallel = m * n * k >= PAR_THRESHOLD;
    let blocks_per_job = if parallel {
        blocks.div_ceil(rayon::current_num_threads().max(1))
    } else {
        blocks
    };
    let job = |(job_idx, rows): (usize, &mut [f32])| {
        let mut a_panel = Vec::new();
        for (blk, out_rows) in rows.chunks_mut(MR * n).enumerate() {
            // `A(i0 + ii, p)` at `a_panel[p * mr + ii]`.
            let i0 = (job_idx * blocks_per_job + blk) * MR;
            let mr = out_rows.len() / n;
            a_panel.resize(k * mr, 0.0);
            for (p, dst) in a_panel.chunks_exact_mut(mr).enumerate() {
                for (ii, d) in dst.iter_mut().enumerate() {
                    *d = a(i0 + ii, p);
                }
            }
            let packed = (&a_panel[..], b, &tail[..]);
            match mr {
                1 => row_block::<1, SKIP_ZERO>(packed, out_rows),
                2 => row_block::<2, SKIP_ZERO>(packed, out_rows),
                3 => row_block::<3, SKIP_ZERO>(packed, out_rows),
                _ => row_block::<MR, SKIP_ZERO>(packed, out_rows),
            }
        }
    };
    if parallel {
        out.as_mut_slice()
            .par_chunks_mut(blocks_per_job * MR * n)
            .enumerate()
            .for_each(job);
    } else {
        job((0, out.as_mut_slice()));
    }
    out
}

/// `R` output rows: the packed row block of `A` (`R` values per `p`)
/// against every `NR`-wide column panel of `B`, read in place, and the
/// zero-padded `tail` panel.
fn row_block<const R: usize, const SKIP_ZERO: bool>(
    (a_panel, b, tail): (&[f32], &[f32], &[f32]),
    out_rows: &mut [f32],
) {
    let n = out_rows.len() / R;
    let (a_panel, _) = a_panel.as_chunks::<R>();
    for j0 in (0..n).step_by(NR) {
        let nr = NR.min(n - j0);
        // Fixed-size stores for full panels: no `memcpy` call.
        if nr == NR {
            let acc = tile::<R, SKIP_ZERO>(a_panel, b, n, j0);
            for (out_row, acc_row) in out_rows.chunks_exact_mut(n).zip(&acc) {
                out_row[j0..j0 + NR].copy_from_slice(acc_row);
            }
        } else {
            let acc = tile::<R, SKIP_ZERO>(a_panel, tail, NR, 0);
            for (out_row, acc_row) in out_rows.chunks_exact_mut(n).zip(&acc) {
                out_row[j0..].copy_from_slice(&acc_row[..nr]);
            }
        }
    }
}

/// The `R x NR` register tile over `B(p, j0..j0 + NR)` =
/// `b[p * stride + j0..][..NR]`: each output accumulates its products
/// from `0.0` in ascending `p`.
#[inline(always)]
fn tile<const R: usize, const SKIP_ZERO: bool>(
    a_panel: &[[f32; R]],
    b: &[f32],
    stride: usize,
    j0: usize,
) -> [[f32; NR]; R] {
    let mut acc = [[0.0f32; NR]; R];
    for (ap, b_row) in a_panel.iter().zip(b.chunks_exact(stride)) {
        let bp: &[f32; NR] = b_row[j0..j0 + NR].try_into().expect("a slice of NR floats");
        // All ones unless this multiplier is skipped; computed without a
        // branch, since ReLU zeros fall at random.
        let keep: [u32; R] =
            std::array::from_fn(|i| u32::from(!SKIP_ZERO || ap[i] != 0.0).wrapping_neg());
        for i in 0..R {
            for j in 0..NR {
                acc[i][j] += f32::from_bits((ap[i] * bp[j]).to_bits() & keep[i]);
            }
        }
    }
    acc
}

/// [`gemm`] skipping the zero multipliers of `A`, whose elements are
/// `a_elems` in any order. The lane select runs only where it can change
/// a result: `0 * ±inf` and `0 * NaN` are the only products of a zero
/// that are not `±0`, so when `A` has no zero or `b` is all finite the
/// plain core already equals skipping. Training on finite weights never
/// needs the select, and always running it (a mask and an `and` per
/// product) cut `paper-combine` rounds/s by ~18% on a 2-vCPU x86-64 VM.
/// The scans read `A`, in training an activation or input batch, and
/// `b` only when `A` has a zero; dropping them (inexact on non-finite
/// `b`) gained 0.5-10% there over three pairs of runs.
fn gemm_skipping_zeros(
    shape: (usize, usize, usize),
    (a_elems, a): (&[f32], impl Fn(usize, usize) -> f32 + Sync),
    b: &[f32],
) -> Matrix {
    let has_zero = a_elems.iter().fold(false, |zero, &x| zero | (x == 0.0));
    if has_zero && !b.iter().fold(true, |finite, x| finite & x.is_finite()) {
        gemm::<true>(shape, a, b)
    } else {
        gemm::<false>(shape, a, b)
    }
}

/// `a (m x k) * b (k x n) -> (m x n)`.
///
/// # Panics
/// Panics if the inner dimensions disagree.
#[must_use]
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k) = a.shape();
    let (k2, n) = b.shape();
    assert_eq!(k, k2, "matmul inner dimension mismatch: {k} vs {k2}");
    let a = a.as_slice();
    gemm_skipping_zeros((m, n, k), (a, |i, p| a[i * k + p]), b.as_slice())
}

/// `a * b^T`.
///
/// Shape: `a (m x k) * b (n x k) -> (m x n)`. This is the backward-pass
/// workhorse (`dX = dY * W^T`). The core runs over a transposed copy of
/// `b`, so every output is the same ascending-`k` sum as
/// [`matmul_transpose_b_ref`]'s dot product; no multiplier is skipped.
#[must_use]
pub fn matmul_transpose_b(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k) = a.shape();
    let (n, k2) = b.shape();
    assert_eq!(
        k, k2,
        "matmul_transpose_b inner dimension mismatch: {k} vs {k2}"
    );
    let a = a.as_slice();
    let bt = b.transpose();
    gemm::<false>((m, n, k), |i, p| a[i * k + p], bt.as_slice())
}

/// `a^T * b` without materialising the transpose.
///
/// Shape: `a (k x m) * b (k x n) -> (m x n)`. This is the weight-gradient
/// workhorse (`dW = X^T * dY`).
#[must_use]
pub fn matmul_transpose_a(a: &Matrix, b: &Matrix) -> Matrix {
    let (k, m) = a.shape();
    let (k2, n) = b.shape();
    assert_eq!(
        k, k2,
        "matmul_transpose_a inner dimension mismatch: {k} vs {k2}"
    );
    let a = a.as_slice();
    gemm_skipping_zeros((m, n, k), (a, |i, p| a[p * m + i]), b.as_slice())
}

/// Reference for [`matmul`]: the plain `ikj` loop, skipping zero
/// multipliers. Kept only for the bitwise equivalence tests.
///
/// # Panics
/// Panics if the inner dimensions disagree.
#[must_use]
pub fn matmul_ref(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k) = a.shape();
    let (k2, n) = b.shape();
    assert_eq!(k, k2, "matmul inner dimension mismatch: {k} vs {k2}");
    let mut out = Matrix::zeros(m, n);
    for (row_idx, out_row) in out.as_mut_slice().chunks_mut(n.max(1)).enumerate() {
        for (ki, &a_v) in a.row(row_idx).iter().enumerate() {
            if a_v == 0.0 {
                continue;
            }
            for (o, &b_v) in out_row.iter_mut().zip(b.row(ki)) {
                *o += a_v * b_v;
            }
        }
    }
    out
}

/// Reference for [`matmul_transpose_b`]: one sequential dot product per
/// output. Kept only for the bitwise equivalence tests.
///
/// # Panics
/// Panics if the inner dimensions disagree.
#[must_use]
pub fn matmul_transpose_b_ref(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k) = a.shape();
    let (n, k2) = b.shape();
    assert_eq!(
        k, k2,
        "matmul_transpose_b inner dimension mismatch: {k} vs {k2}"
    );
    let mut out = Matrix::zeros(m, n);
    for (row_idx, out_row) in out.as_mut_slice().chunks_mut(n.max(1)).enumerate() {
        let a_row = a.row(row_idx);
        for (j, o) in out_row.iter_mut().enumerate() {
            let mut acc = 0.0f32;
            for (&x, &y) in a_row.iter().zip(b.row(j)) {
                acc += x * y;
            }
            *o = acc;
        }
    }
    out
}

/// Reference for [`matmul_transpose_a`]: rank-1 updates in ascending
/// `k`, skipping zero multipliers. Kept only for the bitwise equivalence
/// tests.
///
/// # Panics
/// Panics if the inner dimensions disagree.
#[must_use]
pub fn matmul_transpose_a_ref(a: &Matrix, b: &Matrix) -> Matrix {
    let (k, m) = a.shape();
    let (k2, n) = b.shape();
    assert_eq!(
        k, k2,
        "matmul_transpose_a inner dimension mismatch: {k} vs {k2}"
    );
    let mut out = Matrix::zeros(m, n);
    for ki in 0..k {
        let a_row = a.row(ki);
        let b_row = b.row(ki);
        for (i, &a_v) in a_row.iter().enumerate() {
            if a_v == 0.0 {
                continue;
            }
            let out_row = &mut out.as_mut_slice()[i * n..(i + 1) * n];
            for (o, &b_v) in out_row.iter_mut().zip(b_row) {
                *o += a_v * b_v;
            }
        }
    }
    out
}

/// Reference implementation of [`axpy`]: the plain element-order loop.
///
/// The blocked/SIMD variants are pinned bit-for-bit against this in the
/// equivalence proptests — `axpy` is element-wise (no reassociated
/// reduction), so unrolling cannot change any result bit.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn axpy_scalar(alpha: f32, x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len(), "axpy length mismatch");
    for (o, &v) in out.iter_mut().zip(x) {
        *o += alpha * v;
    }
}

/// Element-wise `out[i] += alpha * x[i]` on flat slices.
///
/// 8-wide unrolled (SSE2 when the `simd` feature is on); bit-for-bit
/// identical to [`axpy_scalar`] because each lane computes the exact
/// scalar expression `o + alpha * v` with no fused multiply-add.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn axpy(alpha: f32, x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len(), "axpy length mismatch");
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        simd::axpy(alpha, x, out);
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        let mut xs = x.chunks_exact(8);
        let mut os = out.chunks_exact_mut(8);
        for (o, v) in (&mut os).zip(&mut xs) {
            o[0] += alpha * v[0];
            o[1] += alpha * v[1];
            o[2] += alpha * v[2];
            o[3] += alpha * v[3];
            o[4] += alpha * v[4];
            o[5] += alpha * v[5];
            o[6] += alpha * v[6];
            o[7] += alpha * v[7];
        }
        for (o, &v) in os.into_remainder().iter_mut().zip(xs.remainder()) {
            *o += alpha * v;
        }
    }
}

/// Reference implementation of [`scale`]: the plain element-order loop.
pub fn scale_scalar(alpha: f32, out: &mut [f32]) {
    for o in out.iter_mut() {
        *o *= alpha;
    }
}

/// Element-wise scale in place (8-wide unrolled, bit-for-bit identical
/// to [`scale_scalar`]).
pub fn scale(alpha: f32, out: &mut [f32]) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        simd::scale(alpha, out);
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        let mut os = out.chunks_exact_mut(8);
        for o in &mut os {
            o[0] *= alpha;
            o[1] *= alpha;
            o[2] *= alpha;
            o[3] *= alpha;
            o[4] *= alpha;
            o[5] *= alpha;
            o[6] *= alpha;
            o[7] *= alpha;
        }
        for o in os.into_remainder() {
            *o *= alpha;
        }
    }
}

/// SSE2 lanes for the element-wise hot kernels.
///
/// Every intrinsic used here (`mulps`/`addps`) performs the same IEEE 754
/// single-rounding operation per lane as the scalar expression, and no
/// FMA contraction is involved, so results are bit-for-bit identical to
/// the scalar references. SSE2 is part of the x86_64 baseline, so no
/// runtime feature detection is needed.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod simd {
    use std::arch::x86_64::{_mm_add_ps, _mm_loadu_ps, _mm_mul_ps, _mm_set1_ps, _mm_storeu_ps};

    pub fn axpy(alpha: f32, x: &[f32], out: &mut [f32]) {
        debug_assert_eq!(x.len(), out.len());
        let n4 = x.len() - x.len() % 4;
        // SAFETY: loads/stores stay within `..n4 <= len` for both slices,
        // which hold plain f32s with no alignment requirement (unaligned
        // loadu/storeu).
        unsafe {
            let a = _mm_set1_ps(alpha);
            let mut i = 0;
            while i < n4 {
                let xv = _mm_loadu_ps(x.as_ptr().add(i));
                let ov = _mm_loadu_ps(out.as_ptr().add(i));
                _mm_storeu_ps(out.as_mut_ptr().add(i), _mm_add_ps(ov, _mm_mul_ps(a, xv)));
                i += 4;
            }
        }
        for (o, &v) in out[n4..].iter_mut().zip(&x[n4..]) {
            *o += alpha * v;
        }
    }

    pub fn scale(alpha: f32, out: &mut [f32]) {
        let n4 = out.len() - out.len() % 4;
        // SAFETY: loads/stores stay within `..n4 <= len`; unaligned
        // loadu/storeu impose no alignment requirement.
        unsafe {
            let a = _mm_set1_ps(alpha);
            let mut i = 0;
            while i < n4 {
                let ov = _mm_loadu_ps(out.as_ptr().add(i));
                _mm_storeu_ps(out.as_mut_ptr().add(i), _mm_mul_ps(ov, a));
                i += 4;
            }
        }
        for o in &mut out[n4..] {
            *o *= alpha;
        }
    }
}

/// Dot product of two flat slices.
///
/// # Panics
/// Panics if the slices differ in length.
#[must_use]
pub fn dot(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "dot length mismatch");
    x.iter().zip(y).map(|(&a, &b)| a * b).sum()
}

/// Squared L2 norm of a flat slice.
#[must_use]
pub fn norm_sq(x: &[f32]) -> f32 {
    x.iter().map(|&v| v * v).sum()
}

/// Add a row-vector `bias` (len `n`) to every row of `m (rows x n)`.
///
/// # Panics
/// Panics if `bias.len() != m.cols()`.
pub fn add_bias(m: &mut Matrix, bias: &[f32]) {
    assert_eq!(bias.len(), m.cols(), "bias length mismatch");
    let n = m.cols();
    for row in m.as_mut_slice().chunks_mut(n) {
        for (o, &b) in row.iter_mut().zip(bias) {
            *o += b;
        }
    }
}

/// Column-wise sum of `m` into a `cols`-length vector (bias gradient).
#[must_use]
pub fn col_sum(m: &Matrix) -> Vec<f32> {
    let n = m.cols();
    let mut out = vec![0.0f32; n];
    for row in m.as_slice().chunks(n) {
        for (o, &v) in out.iter_mut().zip(row) {
            *o += v;
        }
    }
    out
}

/// Row-wise argmax of each row of `m` (predicted class per sample).
#[must_use]
pub fn row_argmax(m: &Matrix) -> Vec<usize> {
    let n = m.cols();
    m.as_slice()
        .chunks(n)
        .map(|row| {
            row.iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(i, _)| i)
                .unwrap_or(0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let (m, k) = a.shape();
        let n = b.cols();
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a[(i, p)] * b[(p, j)];
                }
                out[(i, j)] = acc;
            }
        }
        out
    }

    fn approx_eq(a: &Matrix, b: &Matrix, tol: f32) -> bool {
        a.shape() == b.shape()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(&x, &y)| (x - y).abs() <= tol)
    }

    #[test]
    fn matmul_matches_naive_small() {
        let a = Matrix::from_fn(3, 4, |r, c| (r as f32) - (c as f32) * 0.5);
        let b = Matrix::from_fn(4, 2, |r, c| (r as f32) * 0.25 + c as f32);
        assert!(approx_eq(&matmul(&a, &b), &naive_matmul(&a, &b), 1e-5));
    }

    #[test]
    fn matmul_matches_naive_above_parallel_threshold() {
        let a = Matrix::from_fn(70, 70, |r, c| ((r * 31 + c * 17) % 13) as f32 - 6.0);
        let b = Matrix::from_fn(70, 70, |r, c| ((r * 7 + c * 3) % 11) as f32 - 5.0);
        assert!(approx_eq(&matmul(&a, &b), &naive_matmul(&a, &b), 1e-2));
    }

    #[test]
    fn matmul_transpose_b_matches_explicit_transpose() {
        let a = Matrix::from_fn(5, 3, |r, c| (r + c) as f32);
        let b = Matrix::from_fn(4, 3, |r, c| (r * 2 + c) as f32);
        let expected = naive_matmul(&a, &b.transpose());
        assert!(approx_eq(&matmul_transpose_b(&a, &b), &expected, 1e-5));
    }

    #[test]
    fn matmul_transpose_a_matches_explicit_transpose() {
        let a = Matrix::from_fn(3, 5, |r, c| (r + 2 * c) as f32);
        let b = Matrix::from_fn(3, 4, |r, c| (r * 3 + c) as f32);
        let expected = naive_matmul(&a.transpose(), &b);
        assert!(approx_eq(&matmul_transpose_a(&a, &b), &expected, 1e-5));
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_rejects_mismatched_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let _ = matmul(&a, &b);
    }

    #[test]
    fn axpy_accumulates() {
        let mut out = vec![1.0, 2.0];
        axpy(0.5, &[2.0, 4.0], &mut out);
        assert_eq!(out, vec![2.0, 4.0]);
    }

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(norm_sq(&[3.0, 4.0]), 25.0);
    }

    #[test]
    fn add_bias_broadcasts_rows() {
        let mut m = Matrix::zeros(2, 3);
        add_bias(&mut m, &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn col_sum_sums_rows() {
        let m = Matrix::from_fn(3, 2, |r, c| (r + c) as f32);
        assert_eq!(col_sum(&m), vec![3.0, 6.0]);
    }

    #[test]
    fn row_argmax_picks_max_per_row() {
        let m = Matrix::from_vec(2, 3, vec![0.1, 0.9, 0.0, 0.5, 0.2, 0.7]);
        assert_eq!(row_argmax(&m), vec![1, 2]);
    }

    #[test]
    fn scale_multiplies_in_place() {
        let mut v = vec![1.0, -2.0, 4.0];
        scale(0.5, &mut v);
        assert_eq!(v, vec![0.5, -1.0, 2.0]);
    }

    #[test]
    fn blocked_axpy_is_bitwise_equal_to_scalar_on_awkward_lengths() {
        // Cover remainders 0..7 around the 8-wide blocking.
        for n in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 64, 100] {
            let x: Vec<f32> = (0..n).map(|i| ((i * 37) as f32).sin() * 3.7).collect();
            let mut a: Vec<f32> = (0..n).map(|i| ((i * 13) as f32).cos()).collect();
            let mut b = a.clone();
            axpy(0.3337, &x, &mut a);
            axpy_scalar(0.3337, &x, &mut b);
            assert_eq!(
                a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "axpy diverged from scalar reference at n={n}"
            );
        }
    }

    #[test]
    fn blocked_scale_is_bitwise_equal_to_scalar_on_awkward_lengths() {
        for n in [0usize, 1, 5, 8, 11, 16, 23, 100] {
            let mut a: Vec<f32> = (0..n).map(|i| ((i * 7) as f32).sin() * 9.1).collect();
            let mut b = a.clone();
            scale(0.77, &mut a);
            scale_scalar(0.77, &mut b);
            assert_eq!(
                a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "scale diverged from scalar reference at n={n}"
            );
        }
    }
}
