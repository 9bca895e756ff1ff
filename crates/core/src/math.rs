//! Small numeric kernels used by the trainer and the scorers.
//!
//! The hot kernels ([`dot`], [`axpy`], [`dot_batch`]) dispatch once per
//! call (a relaxed one-byte load) to the explicit SIMD backend selected by
//! [`crate::simd::backend`], falling back to the widened kernels
//! (`dot_widened` et al.): unrolled loops over `chunks_exact(LANES)`
//! blocks with independent accumulators. The widened shape matters:
//! `chunks_exact` erases bounds checks, the fixed-width inner loop maps
//! 1:1 onto SIMD lanes, and the multiple accumulators break the sequential
//! floating-point dependency chain. The explicit AVX2/NEON kernels
//! replicate that evaluation order exactly, so every path is bit-identical
//! (proptested) and the widened kernels remain the exactness oracle.

/// Unroll width of the vector kernels. Eight f32 lanes is one AVX2
/// register (or two NEON registers), and small enough that the scalar
/// remainder loop stays cheap at the K=20..50 dimensions GEM uses.
const LANES: usize = 8;

/// Numerically safe logistic function `1 / (1 + e^{-x})`.
///
/// The input is clamped to ±30 — beyond that the output is 0/1 to within
/// f32 precision anyway, and clamping avoids `exp` overflow on extreme
/// dot products early in training.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    let x = x.clamp(-30.0, 30.0);
    1.0 / (1.0 + (-x).exp())
}

/// Number of interpolation intervals in [`SigmoidLut`].
const SIGMOID_LUT_SIZE: usize = 1024;

/// Half-width of the tabulated input range: inputs beyond ±8 clamp to the
/// table ends. word2vec/LINE tabulate over ±6, but `σ(6) ≈ 0.9975` leaves a
/// 2.5e-3 gap to the saturated value — ±8 brings the clamped-tail error
/// under `1 − σ(8) ≈ 3.4e-4`, inside the 1e-3 accuracy budget the tests
/// enforce.
const SIGMOID_LUT_RANGE: f32 = 8.0;

/// Precomputed logistic-function lookup table (word2vec/LINE-style).
///
/// The trainer evaluates `σ(v_i·v_k)` five times per SGD step (one positive
/// pair plus `2M` noise pairs at the default `M = 2`); each call costs a
/// libm `exp`. The LUT replaces that with one multiply-add index
/// computation and a linear interpolation between two adjacent table
/// entries: `SIGMOID_LUT_SIZE` intervals over `[-8, 8]`, tails clamped to
/// the table ends.
///
/// Accuracy: interpolation error is bounded by `h²·max|σ″|/8 ≈ 3e-6`
/// (`h = 16/1024`), and the clamped tails by `1 − σ(8) ≈ 3.4e-4`, so every
/// output is within `1e-3` of [`sigmoid`] — the bound the kernel tests and
/// the training-smoke CI job assert. NaN inputs propagate to NaN, matching
/// the exact path.
pub struct SigmoidLut {
    /// `table[i] = σ(-RANGE + i·2·RANGE/SIZE)`, `SIZE + 1` knots.
    table: Box<[f32; SIGMOID_LUT_SIZE + 1]>,
}

impl SigmoidLut {
    /// Tabulate the exact [`sigmoid`] at the interpolation knots.
    pub fn new() -> Self {
        let mut table = Box::new([0.0f32; SIGMOID_LUT_SIZE + 1]);
        for (i, slot) in table.iter_mut().enumerate() {
            let x = -SIGMOID_LUT_RANGE
                + (2.0 * SIGMOID_LUT_RANGE) * (i as f32 / SIGMOID_LUT_SIZE as f32);
            *slot = sigmoid(x);
        }
        Self { table }
    }

    /// `≈ σ(x)`: clamped-tail linear interpolation into the table.
    #[inline]
    pub fn value(&self, x: f32) -> f32 {
        let pos = (x + SIGMOID_LUT_RANGE) * (SIGMOID_LUT_SIZE as f32 / (2.0 * SIGMOID_LUT_RANGE));
        if pos <= 0.0 {
            return self.table[0];
        }
        if pos >= SIGMOID_LUT_SIZE as f32 {
            return self.table[SIGMOID_LUT_SIZE];
        }
        let i = pos as usize;
        let frac = pos - i as f32;
        let lo = self.table[i];
        lo + (self.table[i + 1] - lo) * frac
    }
}

impl Default for SigmoidLut {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for SigmoidLut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SigmoidLut({SIGMOID_LUT_SIZE} intervals over ±{SIGMOID_LUT_RANGE})")
    }
}

/// Dense dot product: `dot_widened` semantics through the active SIMD
/// backend (bit-identical on every path).
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    {
        if crate::simd::backend() == crate::simd::Backend::Avx2 {
            // SAFETY: AVX2 presence verified by the runtime backend check.
            return unsafe { crate::simd::x86::dot(a, b) };
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if crate::simd::backend() == crate::simd::Backend::Neon {
            // SAFETY: NEON is baseline on aarch64; backend check passed.
            return unsafe { crate::simd::neon::dot(a, b) };
        }
    }
    dot_widened(a, b)
}

/// Dense dot product, unrolled over [`LANES`] independent accumulators —
/// the autovectorizable no-`unsafe` kernel, kept as the bit-exactness
/// oracle for the explicit SIMD paths.
#[inline]
pub(crate) fn dot_widened(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; LANES];
    let mut blocks_a = a.chunks_exact(LANES);
    let mut blocks_b = b.chunks_exact(LANES);
    for (x, y) in blocks_a.by_ref().zip(blocks_b.by_ref()) {
        for lane in 0..LANES {
            acc[lane] += x[lane] * y[lane];
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in blocks_a.remainder().iter().zip(blocks_b.remainder()) {
        tail += x * y;
    }
    // Pairwise (tree) reduction of the lane accumulators.
    let mut width = LANES / 2;
    while width > 0 {
        for lane in 0..width {
            acc[lane] += acc[lane + width];
        }
        width /= 2;
    }
    acc[0] + tail
}

/// `out += scale * v` (axpy) through the active SIMD backend
/// (bit-identical to `axpy_widened` on every path).
#[inline]
pub fn axpy(out: &mut [f32], v: &[f32], scale: f32) {
    #[cfg(target_arch = "x86_64")]
    {
        if crate::simd::backend() == crate::simd::Backend::Avx2 {
            // SAFETY: AVX2 presence verified by the runtime backend check.
            unsafe { crate::simd::x86::axpy(out, v, scale) };
            return;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if crate::simd::backend() == crate::simd::Backend::Neon {
            // SAFETY: NEON is baseline on aarch64; backend check passed.
            unsafe { crate::simd::neon::axpy(out, v, scale) };
            return;
        }
    }
    axpy_widened(out, v, scale)
}

/// `out += scale * v` (axpy), unrolled into [`LANES`]-wide blocks — the
/// widened oracle kernel (see [`dot_widened`]).
#[inline]
pub(crate) fn axpy_widened(out: &mut [f32], v: &[f32], scale: f32) {
    debug_assert_eq!(out.len(), v.len());
    let mut blocks_out = out.chunks_exact_mut(LANES);
    let mut blocks_v = v.chunks_exact(LANES);
    for (o, x) in blocks_out.by_ref().zip(blocks_v.by_ref()) {
        for lane in 0..LANES {
            o[lane] += scale * x[lane];
        }
    }
    for (o, x) in blocks_out.into_remainder().iter_mut().zip(blocks_v.remainder()) {
        *o += scale * x;
    }
}

/// Fused batch scorer: `out[r] = q · rows[r*dim .. (r+1)*dim]`.
///
/// One query vector against many contiguous row-major candidate rows —
/// the inner loop of both the brute-force scan and the per-partner prune.
/// Scoring all rows in a single call keeps `q` resident in registers/L1
/// and lets the row loop pipeline, instead of paying per-call overhead
/// for every candidate.
#[inline]
pub fn dot_batch(q: &[f32], rows: &[f32], out: &mut [f32]) {
    let dim = q.len();
    debug_assert!(dim > 0, "query dimension must be positive");
    debug_assert_eq!(rows.len(), dim * out.len());
    // One backend check for the whole batch, not one per row.
    #[cfg(target_arch = "x86_64")]
    {
        if crate::simd::backend() == crate::simd::Backend::Avx2 {
            for (o, row) in out.iter_mut().zip(rows.chunks_exact(dim)) {
                // SAFETY: AVX2 presence verified by the backend check.
                *o = unsafe { crate::simd::x86::dot(q, row) };
            }
            return;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if crate::simd::backend() == crate::simd::Backend::Neon {
            for (o, row) in out.iter_mut().zip(rows.chunks_exact(dim)) {
                // SAFETY: NEON is baseline on aarch64.
                *o = unsafe { crate::simd::neon::dot(q, row) };
            }
            return;
        }
    }
    dot_batch_widened(q, rows, out)
}

/// [`dot_batch`] through the widened oracle kernel only.
#[inline]
pub(crate) fn dot_batch_widened(q: &[f32], rows: &[f32], out: &mut [f32]) {
    let dim = q.len();
    debug_assert!(dim > 0, "query dimension must be positive");
    debug_assert_eq!(rows.len(), dim * out.len());
    for (o, row) in out.iter_mut().zip(rows.chunks_exact(dim)) {
        *o = dot_widened(q, row);
    }
}

/// Population variance of a slice.
pub fn variance(values: &[f32]) -> f32 {
    if values.is_empty() {
        return 0.0;
    }
    let n = values.len() as f32;
    let mean = values.iter().sum::<f32>() / n;
    values.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_basic_values() {
        assert_eq!(sigmoid(0.0), 0.5);
        assert!((sigmoid(2.0) - 0.880_797).abs() < 1e-5);
        assert!((sigmoid(-2.0) - 0.119_202).abs() < 1e-5);
    }

    #[test]
    fn sigmoid_is_symmetric() {
        for &x in &[0.1f32, 1.0, 5.0, 20.0] {
            assert!((sigmoid(x) + sigmoid(-x) - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn sigmoid_saturates_without_nan() {
        assert!(sigmoid(1e30) <= 1.0);
        assert!(sigmoid(-1e30) >= 0.0);
        assert!(sigmoid(f32::MAX).is_finite());
        assert!((sigmoid(100.0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn sigmoid_lut_tracks_exact_sigmoid_within_1e_3() {
        // Dense sweep of [-40, 40] (including both clamped tails) plus the
        // exact table boundaries.
        let lut = SigmoidLut::new();
        let mut worst = 0.0f32;
        let mut x = -40.0f32;
        while x <= 40.0 {
            worst = worst.max((lut.value(x) - sigmoid(x)).abs());
            x += 0.003;
        }
        for x in [-8.0f32, 8.0, -7.999, 7.999, -8.001, 8.001] {
            worst = worst.max((lut.value(x) - sigmoid(x)).abs());
        }
        assert!(worst < 1e-3, "LUT max error {worst} exceeds 1e-3");
    }

    #[test]
    fn sigmoid_lut_saturates_and_propagates_nan() {
        let lut = SigmoidLut::new();
        assert!((lut.value(1e30) - 1.0).abs() < 1e-3);
        assert!(lut.value(-1e30).abs() < 1e-3);
        assert!(lut.value(f32::MAX).is_finite());
        assert!(lut.value(f32::NAN).is_nan());
        assert_eq!(lut.value(0.0), 0.5);
    }

    #[test]
    fn sigmoid_lut_is_monotonic() {
        // Linear interpolation of a monotonic function between exact knots
        // stays monotonic; a regression here would reorder negative ranks.
        let lut = SigmoidLut::new();
        let mut prev = lut.value(-10.0);
        let mut x = -10.0f32;
        while x <= 10.0 {
            let v = lut.value(x);
            assert!(v >= prev, "LUT not monotonic at {x}");
            prev = v;
            x += 0.0071;
        }
    }

    #[test]
    fn dot_and_axpy() {
        let a = [1.0f32, 2.0, 3.0];
        let b = [4.0f32, 5.0, 6.0];
        assert_eq!(dot(&a, &b), 32.0);
        let mut out = [0.0f32; 3];
        axpy(&mut out, &a, 2.0);
        assert_eq!(out, [2.0, 4.0, 6.0]);
    }

    fn naive_dot(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    /// Pseudo-random but deterministic test vectors (no RNG dep in core).
    fn test_vec(len: usize, seed: u32) -> Vec<f32> {
        let mut state = seed.wrapping_mul(2_654_435_761).max(1);
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                (state as f32 / u32::MAX as f32) * 2.0 - 1.0
            })
            .collect()
    }

    /// The unrolled kernels must agree with the scalar reference at every
    /// length, in particular around the LANES remainder boundary.
    #[test]
    fn unrolled_kernels_match_scalar_reference() {
        for len in [0, 1, 7, 8, 9, 15, 16, 17, 31, 40, 101] {
            let a = test_vec(len, 3 + len as u32);
            let b = test_vec(len, 17 + len as u32);
            let expect = naive_dot(&a, &b);
            assert!(
                (dot(&a, &b) - expect).abs() <= 1e-4 * (1.0 + expect.abs()),
                "dot mismatch at len {len}"
            );

            let mut got = test_vec(len, 29);
            let mut want = got.clone();
            axpy(&mut got, &a, 0.37);
            for (w, x) in want.iter_mut().zip(&a) {
                *w += 0.37 * x;
            }
            assert_eq!(got, want, "axpy mismatch at len {len}");
        }
    }

    #[test]
    fn dot_batch_matches_per_row_dot() {
        let dim = 11;
        let n_rows = 13;
        let q = test_vec(dim, 5);
        let rows = test_vec(dim * n_rows, 7);
        let mut out = vec![0.0f32; n_rows];
        dot_batch(&q, &rows, &mut out);
        for (r, &got) in out.iter().enumerate() {
            let want = dot(&q, &rows[r * dim..(r + 1) * dim]);
            assert_eq!(got, want, "row {r}");
        }
    }

    #[test]
    fn variance_matches_hand_computation() {
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(variance(&[3.0]), 0.0);
        // Var([1,2,3,4]) = 1.25 (population).
        assert!((variance(&[1.0, 2.0, 3.0, 4.0]) - 1.25).abs() < 1e-6);
    }

    mod lut_proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Every input in [-40, 40] — clamped tails included — stays
            /// within the documented 1e-3 bound of the exact sigmoid.
            #[test]
            fn lut_within_1e_3_of_sigmoid(x in -40.0f32..40.0) {
                let lut = SigmoidLut::new();
                let err = (lut.value(x) - sigmoid(x)).abs();
                prop_assert!(err < 1e-3, "x={x}: error {err}");
            }
        }
    }

    mod simd_proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The AVX2 `dot`/`axpy` kernels, called directly (bypassing
            /// the runtime dispatcher), must be bit-identical to the
            /// widened kernels at dims 1..=64 — every lane-remainder class.
            /// Skipped on hosts without AVX2.
            #[test]
            fn avx2_dot_axpy_match_widened_bitwise(
                case in (1usize..65).prop_flat_map(|dim| (
                    prop::collection::vec(-1e3f32..1e3, dim..dim + 1),
                    prop::collection::vec(-1e3f32..1e3, dim..dim + 1),
                    -8.0f32..8.0,
                )),
            ) {
                #[cfg(target_arch = "x86_64")]
                if std::arch::is_x86_feature_detected!("avx2") {
                    let (a, b, scale) = case;
                    // SAFETY: AVX2 presence checked above; equal lengths.
                    let simd = unsafe { crate::simd::x86::dot(&a, &b) };
                    prop_assert_eq!(simd.to_bits(), dot_widened(&a, &b).to_bits());

                    let mut out_simd = b.clone();
                    let mut out_wide = b.clone();
                    // SAFETY: as above.
                    unsafe { crate::simd::x86::axpy(&mut out_simd, &a, scale) };
                    axpy_widened(&mut out_wide, &a, scale);
                    prop_assert_eq!(
                        out_simd.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        out_wide.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                    );
                }
                #[cfg(not(target_arch = "x86_64"))]
                let _ = case;
            }
        }
    }

    /// The SGD step in Eq. 5 is the gradient of the per-edge loss
    /// `-log σ(vi·vj) - Σ_k log(1 - σ(vi·vk))`. Verify the analytic
    /// gradient against finite differences on a tiny instance.
    #[test]
    fn eq5_gradient_matches_finite_differences() {
        let vi = [0.3f32, 0.7];
        let vj = [0.5f32, 0.2];
        let vk = [0.9f32, 0.1];

        let loss = |vi: &[f32; 2]| -> f64 {
            let pos = sigmoid(dot(vi, &vj)) as f64;
            let neg = sigmoid(dot(vi, &vk)) as f64;
            -(pos.ln()) - (1.0 - neg).ln()
        };

        // Analytic gradient wrt vi: -(1-σ(vi·vj))·vj + σ(vi·vk)·vk.
        let g_pos = 1.0 - sigmoid(dot(&vi, &vj));
        let g_neg = sigmoid(dot(&vi, &vk));
        let analytic =
            [(-g_pos * vj[0] + g_neg * vk[0]) as f64, (-g_pos * vj[1] + g_neg * vk[1]) as f64];

        let h = 1e-3f32;
        for d in 0..2 {
            let mut plus = vi;
            plus[d] += h;
            let mut minus = vi;
            minus[d] -= h;
            let numeric = (loss(&plus) - loss(&minus)) / (2.0 * h as f64);
            assert!(
                (numeric - analytic[d]).abs() < 1e-3,
                "dim {d}: numeric {numeric} vs analytic {}",
                analytic[d]
            );
        }
    }
}
