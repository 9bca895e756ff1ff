//! Explicit SIMD backends for the hot row kernels.
//!
//! The widened kernels in [`crate::math`] and [`crate::matrix`] are shaped
//! for autovectorization, but LLVM does not always take the bait for the
//! atomic row ops (each `AtomicU32` access is a distinct volatile-ish node
//! in its eyes). This module provides hand-written `std::arch` paths —
//! AVX2 on x86-64, NEON on aarch64 — selected once at startup by runtime
//! feature detection and dispatched through [`backend`].
//!
//! # Bit-exactness contract
//!
//! Every kernel here replicates the *exact* floating-point evaluation order
//! of its widened counterpart: eight f32 lanes per block, per-lane
//! multiply-then-add (never FMA — a fused multiply-add rounds once instead
//! of twice and would change results), the same pairwise tree reduction
//! (lane `i` += lane `i+4`, then `i+2`, then `i+1`), and the same scalar
//! remainder loop. Consequently the SIMD, widened and scalar-reference
//! paths all produce bit-identical results, the single-thread golden hash
//! is untouched by SIMD becoming the default, and the proptests in
//! `math.rs`/`matrix.rs` can assert equality on raw bits.
//!
//! # Safety argument (summarised; DESIGN.md §5.5 has the long form)
//!
//! The atomic-row kernels read and write `&[AtomicU32]` through `__m256`
//! loads/stores on raw pointers. This is sound to *execute* because:
//!
//! * `AtomicU32` is guaranteed to have the same size and alignment as
//!   `u32`, so a slice of them is a valid run of 4-byte floats to the
//!   vector unit; the memory is inside the atomics' `UnsafeCell`, which is
//!   why writing through a shared reference is permitted at all.
//! * Under the Hogwild contract racing updates are benign-by-design: the
//!   scalar path already tears *logically* (read-modify-write of a row is
//!   not atomic), so replacing eight relaxed `mov`s with one 32-byte
//!   vector `mov` narrows, not widens, the race surface. x86-64 and
//!   aarch64 both guarantee that naturally-aligned vector accesses never
//!   tear at 4-byte granularity in practice; every observed lane is a
//!   value some thread actually stored.
//! * Single-threaded (the deterministic/golden path) there is no race at
//!   all and the vector kernels are plainly equivalent to the widened
//!   loops.
//!
//! Each `unsafe fn` is additionally gated on `#[target_feature]`; callers
//! must check [`backend`] (or the raw CPU feature) first — the dispatchers
//! in `math`/`matrix` do exactly that.
//!
//! # Selection
//!
//! * [`backend`] returns the active backend: detected once, cached in an
//!   atomic, honouring the `GEM_NO_SIMD` environment variable (any
//!   non-empty value other than `0` disables SIMD for the process).
//! * [`force_scalar`] is a process-global test/bench override so kernel
//!   variants can be measured in one process.

use std::sync::atomic::{AtomicU8, Ordering};

/// Which kernel implementation the process dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The widened (autovectorizable, no intrinsics) kernels.
    Scalar,
    /// AVX2 intrinsics (x86-64, runtime-detected).
    Avx2,
    /// NEON intrinsics (aarch64; baseline for the architecture).
    Neon,
}

impl Backend {
    /// Stable lower-case name ("scalar" / "avx2" / "neon") for logs and
    /// bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Neon => "neon",
        }
    }
}

const UNINIT: u8 = 0;
const SCALAR: u8 = 1;
const AVX2: u8 = 2;
const NEON: u8 = 3;

/// Cached backend choice: detection (plus the `GEM_NO_SIMD` check) runs
/// once, then every dispatch is a relaxed one-byte load.
static BACKEND: AtomicU8 = AtomicU8::new(UNINIT);

fn decode(tag: u8) -> Backend {
    match tag {
        AVX2 => Backend::Avx2,
        NEON => Backend::Neon,
        _ => Backend::Scalar,
    }
}

/// Raw hardware capability, ignoring `GEM_NO_SIMD` and [`force_scalar`].
fn hw_backend() -> Backend {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return Backend::Avx2;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        // NEON is part of the aarch64 baseline ISA.
        return Backend::Neon;
    }
    #[allow(unreachable_code)]
    Backend::Scalar
}

fn env_disabled() -> bool {
    std::env::var_os("GEM_NO_SIMD").is_some_and(|v| !v.is_empty() && v != "0")
}

fn detect() -> u8 {
    if env_disabled() {
        return SCALAR;
    }
    match hw_backend() {
        Backend::Avx2 => AVX2,
        Backend::Neon => NEON,
        Backend::Scalar => SCALAR,
    }
}

/// The active kernel backend for this process.
///
/// First call runs feature detection (and reads `GEM_NO_SIMD`); later
/// calls are a single relaxed atomic load.
#[inline]
pub fn backend() -> Backend {
    match BACKEND.load(Ordering::Relaxed) {
        UNINIT => {
            let tag = detect();
            BACKEND.store(tag, Ordering::Relaxed);
            decode(tag)
        }
        tag => decode(tag),
    }
}

/// Name of the CPU's best supported backend ("avx2" / "neon" / "scalar"),
/// ignoring `GEM_NO_SIMD` and [`force_scalar`] — what the bench JSONs
/// record as the detected CPU feature.
pub fn cpu_feature_name() -> &'static str {
    hw_backend().name()
}

/// Process-global override: `force_scalar(true)` routes all dispatchers
/// through the widened kernels; `force_scalar(false)` re-runs detection.
///
/// Bench/test plumbing (measuring kernel variants inside one process) —
/// not a tuning knob. All kernel paths are bit-identical, so flipping this
/// mid-run changes speed, never results.
pub fn force_scalar(on: bool) {
    let tag = if on { SCALAR } else { detect() };
    BACKEND.store(tag, Ordering::Relaxed);
}

/// True when a non-scalar backend is active.
#[inline]
pub fn enabled() -> bool {
    backend() != Backend::Scalar
}

/// AVX2 kernels. Only compiled on x86-64; every function requires the
/// caller to have verified AVX2 support (see module docs).
#[cfg(target_arch = "x86_64")]
pub mod x86 {
    use core::arch::x86_64::*;
    use std::sync::atomic::AtomicU32;

    /// Pairwise tree reduction of the eight lane accumulators, replicating
    /// the widened kernels' order exactly: lanes `i += i+4` (the 128-bit
    /// halves added), then `i += i+2` (`movehl`), then `i += i+1`
    /// (shuffle), so every partial sum is the same f32 the scalar tree
    /// produces.
    ///
    /// # Safety
    /// Requires AVX2 (caller-checked; `#[target_feature]` on the callers).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn reduce_lanes(acc: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(acc);
        let hi = _mm256_extractf128_ps::<1>(acc);
        // [a0+a4, a1+a5, a2+a6, a3+a7]
        let s4 = _mm_add_ps(lo, hi);
        // lanes 0,1 become [s0+s2, s1+s3]
        let s2 = _mm_add_ps(s4, _mm_movehl_ps(s4, s4));
        // lane 0 becomes (s0+s2) + (s1+s3)
        let s1 = _mm_add_ss(s2, _mm_shuffle_ps::<0b01>(s2, s2));
        _mm_cvtss_f32(s1)
    }

    /// AVX2 [`crate::math::dot`]: same blocks, same reduction, same tail.
    ///
    /// # Safety
    /// Caller must have verified AVX2 support. `a.len() == b.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let blocks = n / 8;
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc = _mm256_setzero_ps();
        for i in 0..blocks {
            let x = _mm256_loadu_ps(pa.add(i * 8));
            let y = _mm256_loadu_ps(pb.add(i * 8));
            acc = _mm256_add_ps(acc, _mm256_mul_ps(x, y));
        }
        let mut tail = 0.0f32;
        for i in blocks * 8..n {
            tail += *pa.add(i) * *pb.add(i);
        }
        reduce_lanes(acc) + tail
    }

    /// AVX2 [`crate::math::axpy`]: `out += scale * v`.
    ///
    /// # Safety
    /// Caller must have verified AVX2 support. `out.len() == v.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy(out: &mut [f32], v: &[f32], scale: f32) {
        debug_assert_eq!(out.len(), v.len());
        let n = out.len();
        let blocks = n / 8;
        let s = _mm256_set1_ps(scale);
        let po = out.as_mut_ptr();
        let pv = v.as_ptr();
        for i in 0..blocks {
            let o = _mm256_loadu_ps(po.add(i * 8));
            let x = _mm256_loadu_ps(pv.add(i * 8));
            _mm256_storeu_ps(po.add(i * 8), _mm256_add_ps(o, _mm256_mul_ps(s, x)));
        }
        for i in blocks * 8..n {
            *po.add(i) += scale * *pv.add(i);
        }
    }

    /// AVX2 row copy out of the shared matrix.
    ///
    /// # Safety
    /// Caller must have verified AVX2 support. `src.len() == buf.len()`.
    /// Concurrent relaxed stores to `src` are the Hogwild race the module
    /// docs argue is benign.
    #[target_feature(enable = "avx2")]
    pub unsafe fn read_row(src: &[AtomicU32], buf: &mut [f32]) {
        debug_assert_eq!(src.len(), buf.len());
        let n = buf.len();
        let blocks = n / 8;
        // AtomicU32 has u32's size/alignment; the bits are f32 patterns.
        let ps = src.as_ptr() as *const f32;
        let pb = buf.as_mut_ptr();
        for i in 0..blocks {
            _mm256_storeu_ps(pb.add(i * 8), _mm256_loadu_ps(ps.add(i * 8)));
        }
        for i in blocks * 8..n {
            *pb.add(i) = *ps.add(i);
        }
    }

    /// AVX2 fused row copy + dot with `other` (the trainer's negative-loop
    /// fetch), replicating [`crate::matrix::AtomicMatrix::read_row_dot`]'s
    /// accumulation order exactly.
    ///
    /// # Safety
    /// Caller must have verified AVX2 support. All three slices have equal
    /// length.
    #[target_feature(enable = "avx2")]
    pub unsafe fn read_row_dot(src: &[AtomicU32], other: &[f32], buf: &mut [f32]) -> f32 {
        debug_assert_eq!(src.len(), other.len());
        debug_assert_eq!(src.len(), buf.len());
        let n = buf.len();
        let blocks = n / 8;
        let ps = src.as_ptr() as *const f32;
        let po = other.as_ptr();
        let pb = buf.as_mut_ptr();
        let mut acc = _mm256_setzero_ps();
        for i in 0..blocks {
            let v = _mm256_loadu_ps(ps.add(i * 8));
            _mm256_storeu_ps(pb.add(i * 8), v);
            let o = _mm256_loadu_ps(po.add(i * 8));
            acc = _mm256_add_ps(acc, _mm256_mul_ps(o, v));
        }
        let mut tail = 0.0f32;
        for i in blocks * 8..n {
            let v = *ps.add(i);
            *pb.add(i) = v;
            tail += *po.add(i) * v;
        }
        reduce_lanes(acc) + tail
    }

    /// AVX2 `row += scale * delta` (no rectifier).
    ///
    /// # Safety
    /// Caller must have verified AVX2 support; `dst.len() == delta.len()`.
    /// Writes go through the atomics' `UnsafeCell` memory (see module
    /// docs for the race argument).
    #[target_feature(enable = "avx2")]
    pub unsafe fn add_scaled(dst: &[AtomicU32], delta: &[f32], scale: f32) {
        debug_assert_eq!(dst.len(), delta.len());
        let n = dst.len();
        let blocks = n / 8;
        let s = _mm256_set1_ps(scale);
        let pd = dst.as_ptr() as *mut f32;
        let pv = delta.as_ptr();
        for i in 0..blocks {
            let old = _mm256_loadu_ps(pd.add(i * 8) as *const f32);
            let v = _mm256_loadu_ps(pv.add(i * 8));
            _mm256_storeu_ps(pd.add(i * 8), _mm256_add_ps(old, _mm256_mul_ps(s, v)));
        }
        for i in blocks * 8..n {
            *pd.add(i) += scale * *pv.add(i);
        }
    }

    /// AVX2 `row = max(row + scale * delta, 0)` — the fused Eq. 5 update
    /// with the rectifier projection. `_mm256_max_ps(sum, 0)` returns its
    /// second operand (+0.0) when `sum` is NaN, matching Rust's
    /// `f32::max(sum, 0.0)` (IEEE `maxNum`) on the NaN and ±0 cases the
    /// trainer can produce.
    ///
    /// # Safety
    /// Caller must have verified AVX2 support; `dst.len() == delta.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn add_scaled_relu(dst: &[AtomicU32], delta: &[f32], scale: f32) {
        debug_assert_eq!(dst.len(), delta.len());
        let n = dst.len();
        let blocks = n / 8;
        let s = _mm256_set1_ps(scale);
        let zero = _mm256_setzero_ps();
        let pd = dst.as_ptr() as *mut f32;
        let pv = delta.as_ptr();
        for i in 0..blocks {
            let old = _mm256_loadu_ps(pd.add(i * 8) as *const f32);
            let v = _mm256_loadu_ps(pv.add(i * 8));
            let sum = _mm256_add_ps(old, _mm256_mul_ps(s, v));
            _mm256_storeu_ps(pd.add(i * 8), _mm256_max_ps(sum, zero));
        }
        for i in blocks * 8..n {
            let sum = *pd.add(i) + scale * *pv.add(i);
            *pd.add(i) = sum.max(0.0);
        }
    }
}

/// NEON kernels (aarch64 baseline ISA). Same 8-lane block structure as the
/// widened kernels, realised as two 4-lane registers; the reduction order
/// replicates the widened pairwise tree exactly, so all the bit-exactness
/// guarantees of the AVX2 path hold here too.
#[cfg(target_arch = "aarch64")]
pub mod neon {
    use core::arch::aarch64::*;
    use std::sync::atomic::AtomicU32;

    /// Widened-order reduction: `acc_lo` holds lanes 0..4, `acc_hi` lanes
    /// 4..8. `lo + hi` performs the width-4 tree level, the 2-lane add the
    /// width-2 level, and the final lane add the last level.
    ///
    /// # Safety
    /// NEON (aarch64 baseline).
    #[inline]
    #[target_feature(enable = "neon")]
    unsafe fn reduce_lanes(acc_lo: float32x4_t, acc_hi: float32x4_t) -> f32 {
        let s4 = vaddq_f32(acc_lo, acc_hi);
        let s2 = vadd_f32(vget_low_f32(s4), vget_high_f32(s4));
        vget_lane_f32::<0>(s2) + vget_lane_f32::<1>(s2)
    }

    /// NEON [`crate::math::dot`].
    ///
    /// # Safety
    /// `a.len() == b.len()`.
    #[target_feature(enable = "neon")]
    pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let blocks = n / 8;
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc_lo = vdupq_n_f32(0.0);
        let mut acc_hi = vdupq_n_f32(0.0);
        for i in 0..blocks {
            let x0 = vld1q_f32(pa.add(i * 8));
            let x1 = vld1q_f32(pa.add(i * 8 + 4));
            let y0 = vld1q_f32(pb.add(i * 8));
            let y1 = vld1q_f32(pb.add(i * 8 + 4));
            // Separate mul + add (no vfmaq): FMA would round differently.
            acc_lo = vaddq_f32(acc_lo, vmulq_f32(x0, y0));
            acc_hi = vaddq_f32(acc_hi, vmulq_f32(x1, y1));
        }
        let mut tail = 0.0f32;
        for i in blocks * 8..n {
            tail += *pa.add(i) * *pb.add(i);
        }
        reduce_lanes(acc_lo, acc_hi) + tail
    }

    /// NEON [`crate::math::axpy`].
    ///
    /// # Safety
    /// `out.len() == v.len()`.
    #[target_feature(enable = "neon")]
    pub unsafe fn axpy(out: &mut [f32], v: &[f32], scale: f32) {
        debug_assert_eq!(out.len(), v.len());
        let n = out.len();
        let blocks = n / 8;
        let s = vdupq_n_f32(scale);
        let po = out.as_mut_ptr();
        let pv = v.as_ptr();
        for i in 0..blocks {
            for half in 0..2 {
                let p = po.add(i * 8 + half * 4);
                let o = vld1q_f32(p);
                let x = vld1q_f32(pv.add(i * 8 + half * 4));
                vst1q_f32(p, vaddq_f32(o, vmulq_f32(s, x)));
            }
        }
        for i in blocks * 8..n {
            *po.add(i) += scale * *pv.add(i);
        }
    }

    /// NEON row copy (see the AVX2 twin for the race argument).
    ///
    /// # Safety
    /// `src.len() == buf.len()`.
    #[target_feature(enable = "neon")]
    pub unsafe fn read_row(src: &[AtomicU32], buf: &mut [f32]) {
        debug_assert_eq!(src.len(), buf.len());
        let n = buf.len();
        let blocks = n / 8;
        let ps = src.as_ptr() as *const f32;
        let pb = buf.as_mut_ptr();
        for i in 0..blocks {
            vst1q_f32(pb.add(i * 8), vld1q_f32(ps.add(i * 8)));
            vst1q_f32(pb.add(i * 8 + 4), vld1q_f32(ps.add(i * 8 + 4)));
        }
        for i in blocks * 8..n {
            *pb.add(i) = *ps.add(i);
        }
    }

    /// NEON fused row copy + dot.
    ///
    /// # Safety
    /// All three slices have equal length.
    #[target_feature(enable = "neon")]
    pub unsafe fn read_row_dot(src: &[AtomicU32], other: &[f32], buf: &mut [f32]) -> f32 {
        debug_assert_eq!(src.len(), other.len());
        debug_assert_eq!(src.len(), buf.len());
        let n = buf.len();
        let blocks = n / 8;
        let ps = src.as_ptr() as *const f32;
        let po = other.as_ptr();
        let pb = buf.as_mut_ptr();
        let mut acc_lo = vdupq_n_f32(0.0);
        let mut acc_hi = vdupq_n_f32(0.0);
        for i in 0..blocks {
            let v0 = vld1q_f32(ps.add(i * 8));
            let v1 = vld1q_f32(ps.add(i * 8 + 4));
            vst1q_f32(pb.add(i * 8), v0);
            vst1q_f32(pb.add(i * 8 + 4), v1);
            let o0 = vld1q_f32(po.add(i * 8));
            let o1 = vld1q_f32(po.add(i * 8 + 4));
            acc_lo = vaddq_f32(acc_lo, vmulq_f32(o0, v0));
            acc_hi = vaddq_f32(acc_hi, vmulq_f32(o1, v1));
        }
        let mut tail = 0.0f32;
        for i in blocks * 8..n {
            let v = *ps.add(i);
            *pb.add(i) = v;
            tail += *po.add(i) * v;
        }
        reduce_lanes(acc_lo, acc_hi) + tail
    }

    /// NEON `row += scale * delta`.
    ///
    /// # Safety
    /// `dst.len() == delta.len()`.
    #[target_feature(enable = "neon")]
    pub unsafe fn add_scaled(dst: &[AtomicU32], delta: &[f32], scale: f32) {
        debug_assert_eq!(dst.len(), delta.len());
        let n = dst.len();
        let blocks = n / 8;
        let s = vdupq_n_f32(scale);
        let pd = dst.as_ptr() as *mut f32;
        let pv = delta.as_ptr();
        for i in 0..blocks {
            for half in 0..2 {
                let p = pd.add(i * 8 + half * 4);
                let old = vld1q_f32(p as *const f32);
                let v = vld1q_f32(pv.add(i * 8 + half * 4));
                vst1q_f32(p, vaddq_f32(old, vmulq_f32(s, v)));
            }
        }
        for i in blocks * 8..n {
            *pd.add(i) += scale * *pv.add(i);
        }
    }

    /// NEON `row = max(row + scale * delta, 0)`. `vmaxnmq_f32` implements
    /// IEEE `maxNum` — NaN inputs yield the other operand (+0.0) —
    /// matching Rust's `f32::max(sum, 0.0)`.
    ///
    /// # Safety
    /// `dst.len() == delta.len()`.
    #[target_feature(enable = "neon")]
    pub unsafe fn add_scaled_relu(dst: &[AtomicU32], delta: &[f32], scale: f32) {
        debug_assert_eq!(dst.len(), delta.len());
        let n = dst.len();
        let blocks = n / 8;
        let s = vdupq_n_f32(scale);
        let zero = vdupq_n_f32(0.0);
        let pd = dst.as_ptr() as *mut f32;
        let pv = delta.as_ptr();
        for i in 0..blocks {
            for half in 0..2 {
                let p = pd.add(i * 8 + half * 4);
                let old = vld1q_f32(p as *const f32);
                let v = vld1q_f32(pv.add(i * 8 + half * 4));
                let sum = vaddq_f32(old, vmulq_f32(s, v));
                vst1q_f32(p, vmaxnmq_f32(sum, zero));
            }
        }
        for i in blocks * 8..n {
            let sum = *pd.add(i) + scale * *pv.add(i);
            *pd.add(i) = sum.max(0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_name_round_trips() {
        assert_eq!(Backend::Scalar.name(), "scalar");
        assert_eq!(Backend::Avx2.name(), "avx2");
        assert_eq!(Backend::Neon.name(), "neon");
        assert!(["scalar", "avx2", "neon"].contains(&cpu_feature_name()));
    }

    /// The forced-scalar round trip: dispatchers must produce bit-identical
    /// results before, during and after the override, and the override must
    /// actually switch the reported backend.
    #[test]
    fn forced_scalar_fallback_round_trips() {
        let a: Vec<f32> = (0..37).map(|i| (i as f32 - 11.0) * 0.37).collect();
        let b: Vec<f32> = (0..37).map(|i| 1.0 - i as f32 * 0.21).collect();

        let native = backend();
        let before = crate::math::dot(&a, &b);

        force_scalar(true);
        assert_eq!(backend(), Backend::Scalar);
        let during = crate::math::dot(&a, &b);

        force_scalar(false);
        assert_eq!(backend(), native, "override did not restore detection");
        let after = crate::math::dot(&a, &b);

        assert_eq!(before.to_bits(), during.to_bits());
        assert_eq!(before.to_bits(), after.to_bits());
    }
}
