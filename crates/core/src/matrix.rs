//! Lock-free shared embedding matrix for Hogwild SGD.
//!
//! The paper trains with asynchronous stochastic gradient descent
//! ([Recht et al., "Hogwild!"]): worker threads update shared parameters
//! without locks, relying on the sparsity of conflicts. A literal
//! translation (`&mut` aliasing through `UnsafeCell<f32>`) would be UB in
//! Rust, so rows are stored as `AtomicU32` bit-patterns accessed with
//! `Relaxed` ordering — on x86-64 a relaxed load/store compiles to a plain
//! `mov`, so this is Hogwild at Hogwild's cost, without the UB.
//!
//! Lost updates between racing workers are *expected and benign* (that is
//! the Hogwild contract, measured in the Fig. 6 reproduction). With one
//! thread the matrix behaves exactly like a `Vec<f32>`.

use std::sync::atomic::{AtomicU32, Ordering};

/// Unroll width of the row kernels, matching `math::LANES`: eight f32
/// lanes is one AVX2 register (two NEON registers). On x86-64 each relaxed
/// atomic access still compiles to a scalar `mov`, but the fixed-width
/// blocks erase the per-element bounds check and index arithmetic of the
/// scalar loops and keep eight independent operations in flight per
/// iteration, which is where the row-traffic win comes from.
const LANES: usize = 8;

/// A `rows × dim` matrix of `f32` shareable across Hogwild workers.
pub struct AtomicMatrix {
    rows: usize,
    dim: usize,
    data: Vec<AtomicU32>,
}

impl AtomicMatrix {
    /// Allocate a zeroed matrix.
    pub fn zeros(rows: usize, dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        let mut data = Vec::with_capacity(rows * dim);
        data.resize_with(rows * dim, || AtomicU32::new(0f32.to_bits()));
        Self { rows, dim, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Read one element.
    #[inline]
    pub fn get(&self, row: usize, k: usize) -> f32 {
        f32::from_bits(self.data[row * self.dim + k].load(Ordering::Relaxed))
    }

    /// Write one element.
    #[inline]
    pub fn set(&self, row: usize, k: usize, v: f32) {
        self.data[row * self.dim + k].store(v.to_bits(), Ordering::Relaxed);
    }

    /// The `dim` atomic slots of one row, bounds-checked once.
    #[inline]
    fn row_slots(&self, row: usize) -> &[AtomicU32] {
        let base = row * self.dim;
        &self.data[base..base + self.dim]
    }

    /// Copy a row into `buf` through the active SIMD backend
    /// (bit-identical to the portable `read_row_widened` on every path).
    #[inline]
    pub fn read_row(&self, row: usize, buf: &mut [f32]) {
        #[cfg(target_arch = "x86_64")]
        {
            if crate::simd::backend() == crate::simd::Backend::Avx2 {
                // SAFETY: AVX2 presence verified by the backend check.
                unsafe { crate::simd::x86::read_row(self.row_slots(row), buf) };
                return;
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            if crate::simd::backend() == crate::simd::Backend::Neon {
                // SAFETY: NEON is baseline on aarch64.
                unsafe { crate::simd::neon::read_row(self.row_slots(row), buf) };
                return;
            }
        }
        self.read_row_widened(row, buf)
    }

    /// Copy a row into `buf`, in [`LANES`]-wide unrolled blocks — the
    /// widened oracle kernel behind [`AtomicMatrix::read_row`].
    #[inline]
    pub(crate) fn read_row_widened(&self, row: usize, buf: &mut [f32]) {
        debug_assert_eq!(buf.len(), self.dim);
        let src = self.row_slots(row);
        let mut blocks_s = src.chunks_exact(LANES);
        let mut blocks_b = buf.chunks_exact_mut(LANES);
        for (s, b) in blocks_s.by_ref().zip(blocks_b.by_ref()) {
            for lane in 0..LANES {
                b[lane] = f32::from_bits(s[lane].load(Ordering::Relaxed));
            }
        }
        for (s, b) in blocks_s.remainder().iter().zip(blocks_b.into_remainder()) {
            *b = f32::from_bits(s.load(Ordering::Relaxed));
        }
    }

    /// Overwrite a row from `buf`, in `LANES`-wide unrolled blocks.
    #[inline]
    pub fn write_row(&self, row: usize, buf: &[f32]) {
        debug_assert_eq!(buf.len(), self.dim);
        let dst = self.row_slots(row);
        let mut blocks_d = dst.chunks_exact(LANES);
        let mut blocks_b = buf.chunks_exact(LANES);
        for (d, b) in blocks_d.by_ref().zip(blocks_b.by_ref()) {
            for lane in 0..LANES {
                d[lane].store(b[lane].to_bits(), Ordering::Relaxed);
            }
        }
        for (d, &v) in blocks_d.remainder().iter().zip(blocks_b.remainder()) {
            d.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Copy a row into `buf` *and* return its dot product with `other`, in
    /// one pass over the row — the fused fetch of the trainer's negative
    /// loop, through the active SIMD backend (bit-identical to the
    /// portable `read_row_dot_widened` on every path).
    #[inline]
    pub fn read_row_dot(&self, row: usize, other: &[f32], buf: &mut [f32]) -> f32 {
        #[cfg(target_arch = "x86_64")]
        {
            if crate::simd::backend() == crate::simd::Backend::Avx2 {
                // SAFETY: AVX2 presence verified by the backend check.
                return unsafe { crate::simd::x86::read_row_dot(self.row_slots(row), other, buf) };
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            if crate::simd::backend() == crate::simd::Backend::Neon {
                // SAFETY: NEON is baseline on aarch64.
                return unsafe { crate::simd::neon::read_row_dot(self.row_slots(row), other, buf) };
            }
        }
        self.read_row_dot_widened(row, other, buf)
    }

    /// Widened fused fetch (`read_row` + `math::dot` touched every element
    /// twice; this is one pass).
    ///
    /// The accumulation order (eight lane accumulators, pairwise tree
    /// reduction, scalar tail) replicates [`crate::math::dot`] exactly, so
    /// `read_row_dot(r, o, buf)` is bit-identical to
    /// `read_row(r, buf); dot(o, buf)` — the property the single-thread
    /// golden regression test pins down.
    #[inline]
    pub(crate) fn read_row_dot_widened(&self, row: usize, other: &[f32], buf: &mut [f32]) -> f32 {
        debug_assert_eq!(buf.len(), self.dim);
        debug_assert_eq!(other.len(), self.dim);
        let src = self.row_slots(row);
        let mut acc = [0.0f32; LANES];
        let mut blocks_s = src.chunks_exact(LANES);
        let mut blocks_o = other.chunks_exact(LANES);
        let mut blocks_b = buf.chunks_exact_mut(LANES);
        for ((s, o), b) in blocks_s.by_ref().zip(blocks_o.by_ref()).zip(blocks_b.by_ref()) {
            for lane in 0..LANES {
                let v = f32::from_bits(s[lane].load(Ordering::Relaxed));
                b[lane] = v;
                acc[lane] += o[lane] * v;
            }
        }
        let mut tail = 0.0f32;
        for ((s, o), b) in
            blocks_s.remainder().iter().zip(blocks_o.remainder()).zip(blocks_b.into_remainder())
        {
            let v = f32::from_bits(s.load(Ordering::Relaxed));
            *b = v;
            tail += o * v;
        }
        let mut width = LANES / 2;
        while width > 0 {
            for lane in 0..width {
                acc[lane] += acc[lane + width];
            }
            width /= 2;
        }
        acc[0] + tail
    }

    /// `row += scale · delta`, then rectify (clamp at 0) — the fused
    /// update-and-ReLU projection of Eq. 5, through the active SIMD
    /// backend. Racy read-modify-write by design; bit-identical to the
    /// portable `add_scaled_relu_widened` on every path.
    #[inline]
    pub fn add_scaled_relu(&self, row: usize, delta: &[f32], scale: f32) {
        #[cfg(target_arch = "x86_64")]
        {
            if crate::simd::backend() == crate::simd::Backend::Avx2 {
                // SAFETY: AVX2 presence verified by the backend check.
                unsafe { crate::simd::x86::add_scaled_relu(self.row_slots(row), delta, scale) };
                return;
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            if crate::simd::backend() == crate::simd::Backend::Neon {
                // SAFETY: NEON is baseline on aarch64.
                unsafe { crate::simd::neon::add_scaled_relu(self.row_slots(row), delta, scale) };
                return;
            }
        }
        self.add_scaled_relu_widened(row, delta, scale)
    }

    /// Widened fused update-and-ReLU, in [`LANES`]-wide unrolled blocks —
    /// the oracle kernel behind [`AtomicMatrix::add_scaled_relu`].
    #[inline]
    pub(crate) fn add_scaled_relu_widened(&self, row: usize, delta: &[f32], scale: f32) {
        debug_assert_eq!(delta.len(), self.dim);
        let dst = self.row_slots(row);
        let mut blocks_d = dst.chunks_exact(LANES);
        let mut blocks_v = delta.chunks_exact(LANES);
        for (d, v) in blocks_d.by_ref().zip(blocks_v.by_ref()) {
            for lane in 0..LANES {
                let old = f32::from_bits(d[lane].load(Ordering::Relaxed));
                d[lane].store((old + scale * v[lane]).max(0.0).to_bits(), Ordering::Relaxed);
            }
        }
        for (d, &v) in blocks_d.remainder().iter().zip(blocks_v.remainder()) {
            let old = f32::from_bits(d.load(Ordering::Relaxed));
            d.store((old + scale * v).max(0.0).to_bits(), Ordering::Relaxed);
        }
    }

    /// `row += scale · delta` without the rectifier (ablation path),
    /// through the active SIMD backend (bit-identical to the portable
    /// `add_scaled_widened` on every path).
    #[inline]
    pub fn add_scaled(&self, row: usize, delta: &[f32], scale: f32) {
        #[cfg(target_arch = "x86_64")]
        {
            if crate::simd::backend() == crate::simd::Backend::Avx2 {
                // SAFETY: AVX2 presence verified by the backend check.
                unsafe { crate::simd::x86::add_scaled(self.row_slots(row), delta, scale) };
                return;
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            if crate::simd::backend() == crate::simd::Backend::Neon {
                // SAFETY: NEON is baseline on aarch64.
                unsafe { crate::simd::neon::add_scaled(self.row_slots(row), delta, scale) };
                return;
            }
        }
        self.add_scaled_widened(row, delta, scale)
    }

    /// Widened un-rectified update, in [`LANES`]-wide unrolled blocks —
    /// the oracle kernel behind [`AtomicMatrix::add_scaled`].
    #[inline]
    pub(crate) fn add_scaled_widened(&self, row: usize, delta: &[f32], scale: f32) {
        debug_assert_eq!(delta.len(), self.dim);
        let dst = self.row_slots(row);
        let mut blocks_d = dst.chunks_exact(LANES);
        let mut blocks_v = delta.chunks_exact(LANES);
        for (d, v) in blocks_d.by_ref().zip(blocks_v.by_ref()) {
            for lane in 0..LANES {
                let old = f32::from_bits(d[lane].load(Ordering::Relaxed));
                d[lane].store((old + scale * v[lane]).to_bits(), Ordering::Relaxed);
            }
        }
        for (d, &v) in blocks_d.remainder().iter().zip(blocks_v.remainder()) {
            let old = f32::from_bits(d.load(Ordering::Relaxed));
            d.store((old + scale * v).to_bits(), Ordering::Relaxed);
        }
    }

    /// Snapshot the whole matrix into a plain `Vec<f32>` (row-major).
    pub fn snapshot(&self) -> Vec<f32> {
        self.data.iter().map(|a| f32::from_bits(a.load(Ordering::Relaxed))).collect()
    }
}

impl std::fmt::Debug for AtomicMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AtomicMatrix({}x{})", self.rows, self.dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_then_set_get() {
        let m = AtomicMatrix::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.dim(), 4);
        assert_eq!(m.get(2, 3), 0.0);
        m.set(1, 2, 3.25);
        assert_eq!(m.get(1, 2), 3.25);
        assert_eq!(m.get(1, 1), 0.0);
    }

    #[test]
    fn row_round_trip() {
        let m = AtomicMatrix::zeros(2, 3);
        m.write_row(1, &[1.0, -2.0, 3.0]);
        let mut buf = [0.0f32; 3];
        m.read_row(1, &mut buf);
        assert_eq!(buf, [1.0, -2.0, 3.0]);
        m.read_row(0, &mut buf);
        assert_eq!(buf, [0.0, 0.0, 0.0]);
    }

    #[test]
    fn add_scaled_relu_rectifies() {
        let m = AtomicMatrix::zeros(1, 3);
        m.write_row(0, &[1.0, 0.5, 0.1]);
        // 1.0 + 2*(-0.2)=0.6; 0.5 + 2*(-0.5)=-0.5→0; 0.1 + 2*1 = 2.1
        m.add_scaled_relu(0, &[-0.2, -0.5, 1.0], 2.0);
        let mut buf = [0.0f32; 3];
        m.read_row(0, &mut buf);
        assert!((buf[0] - 0.6).abs() < 1e-6);
        assert_eq!(buf[1], 0.0);
        assert!((buf[2] - 2.1).abs() < 1e-6);
    }

    #[test]
    fn snapshot_is_row_major() {
        let m = AtomicMatrix::zeros(2, 2);
        m.write_row(0, &[1.0, 2.0]);
        m.write_row(1, &[3.0, 4.0]);
        assert_eq!(m.snapshot(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn concurrent_updates_preserve_sanity() {
        // Hogwild contract: racy updates may lose increments but must never
        // corrupt values (every stored value is some valid intermediate).
        let m = std::sync::Arc::new(AtomicMatrix::zeros(1, 8));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let m = m.clone();
                std::thread::spawn(move || {
                    let delta = [1.0f32; 8];
                    for _ in 0..10_000 {
                        m.add_scaled_relu(0, &delta, 1.0);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let mut buf = [0.0f32; 8];
        m.read_row(0, &mut buf);
        for &v in &buf {
            // At least one thread's updates land; no more than all of them.
            assert!(v >= 10_000.0, "lost more than whole threads: {v}");
            assert!(v <= 40_000.0, "value exceeds total increments: {v}");
            assert_eq!(v.fract(), 0.0, "value must be a whole number of increments");
        }
    }

    #[test]
    #[should_panic(expected = "dimension")]
    fn zero_dim_panics() {
        AtomicMatrix::zeros(1, 0);
    }

    #[test]
    fn read_row_dot_matches_read_then_dot() {
        // Including dims straddling the LANES remainder boundary.
        for dim in [1usize, 7, 8, 9, 16, 17, 60] {
            let m = AtomicMatrix::zeros(2, dim);
            let vals: Vec<f32> = (0..dim).map(|k| (k as f32 - 3.5) * 0.25).collect();
            m.write_row(1, &vals);
            let other: Vec<f32> = (0..dim).map(|k| 1.0 - k as f32 * 0.125).collect();
            let mut buf_a = vec![0.0f32; dim];
            let mut buf_b = vec![0.0f32; dim];
            let fused = m.read_row_dot(1, &other, &mut buf_a);
            m.read_row(1, &mut buf_b);
            assert_eq!(buf_a, buf_b, "dim {dim}: fused read diverged");
            let split = crate::math::dot(&other, &buf_b);
            assert_eq!(fused.to_bits(), split.to_bits(), "dim {dim}: fused dot not bit-identical");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The scalar per-element kernels the unrolled ones are checked against.
    impl AtomicMatrix {
        /// Scalar reference `read_row` — the pre-widening per-element loop.
        ///
        /// Kept (with the other `*_ref` kernels) as the bit-exactness oracle
        /// for the unrolled kernels.
        fn read_row_ref(&self, row: usize, buf: &mut [f32]) {
            debug_assert_eq!(buf.len(), self.dim);
            let base = row * self.dim;
            for (k, slot) in buf.iter_mut().enumerate() {
                *slot = f32::from_bits(self.data[base + k].load(Ordering::Relaxed));
            }
        }

        /// Scalar reference `write_row` (see [`AtomicMatrix::read_row_ref`]).
        fn write_row_ref(&self, row: usize, buf: &[f32]) {
            debug_assert_eq!(buf.len(), self.dim);
            let base = row * self.dim;
            for (k, &v) in buf.iter().enumerate() {
                self.data[base + k].store(v.to_bits(), Ordering::Relaxed);
            }
        }

        /// Scalar reference `add_scaled_relu` (see [`AtomicMatrix::read_row_ref`]).
        fn add_scaled_relu_ref(&self, row: usize, delta: &[f32], scale: f32) {
            debug_assert_eq!(delta.len(), self.dim);
            let base = row * self.dim;
            for (k, &d) in delta.iter().enumerate() {
                let slot = &self.data[base + k];
                let old = f32::from_bits(slot.load(Ordering::Relaxed));
                let new = (old + scale * d).max(0.0);
                slot.store(new.to_bits(), Ordering::Relaxed);
            }
        }

        /// Scalar reference `add_scaled` (see [`AtomicMatrix::read_row_ref`]).
        fn add_scaled_ref(&self, row: usize, delta: &[f32], scale: f32) {
            debug_assert_eq!(delta.len(), self.dim);
            let base = row * self.dim;
            for (k, &d) in delta.iter().enumerate() {
                let slot = &self.data[base + k];
                let old = f32::from_bits(slot.load(Ordering::Relaxed));
                slot.store((old + scale * d).to_bits(), Ordering::Relaxed);
            }
        }
    }

    /// A matrix row filled from `vals`, plus a second untouched guard row
    /// before and after to catch out-of-bounds lane writes.
    fn three_row_matrix(vals: &[f32]) -> AtomicMatrix {
        let dim = vals.len();
        let m = AtomicMatrix::zeros(3, dim);
        let guard: Vec<f32> = (0..dim).map(|k| 100.0 + k as f32).collect();
        m.write_row_ref(0, &guard);
        m.write_row_ref(1, vals);
        m.write_row_ref(2, &guard);
        m
    }

    fn guards_intact(m: &AtomicMatrix) -> bool {
        let dim = m.dim();
        (0..dim).all(|k| m.get(0, k) == 100.0 + k as f32 && m.get(2, k) == 100.0 + k as f32)
    }

    /// Finite f32s in a range wide enough to exercise rounding but safe
    /// from overflow, at lengths straddling every LANES tail case.
    fn row_and_delta() -> impl Strategy<Value = (Vec<f32>, Vec<f32>, f32)> {
        (1usize..40).prop_flat_map(|dim| {
            (
                prop::collection::vec(-1e3f32..1e3, dim..dim + 1),
                prop::collection::vec(-1e3f32..1e3, dim..dim + 1),
                -8.0f32..8.0,
            )
        })
    }

    /// Same shape as `row_and_delta` but out to dim 64, so the SIMD lane
    /// count (8) sees every remainder class several times over.
    fn simd_row_and_delta() -> impl Strategy<Value = (Vec<f32>, Vec<f32>, f32)> {
        (1usize..65).prop_flat_map(|dim| {
            (
                prop::collection::vec(-1e3f32..1e3, dim..dim + 1),
                prop::collection::vec(-1e3f32..1e3, dim..dim + 1),
                -8.0f32..8.0,
            )
        })
    }

    proptest! {
        /// Each unrolled row op must be bit-identical to its scalar
        /// reference, including the `dim % LANES` tail, and must never
        /// touch neighbouring rows.
        #[test]
        fn unrolled_row_ops_match_scalar_reference(case in row_and_delta()) {
            let (vals, delta, scale) = case;
            let dim = vals.len();

            // read_row ≡ read_row_ref.
            let m = three_row_matrix(&vals);
            let mut fast = vec![0.0f32; dim];
            let mut reference = vec![0.0f32; dim];
            m.read_row(1, &mut fast);
            m.read_row_ref(1, &mut reference);
            prop_assert_eq!(&fast, &reference);

            // write_row ≡ write_row_ref.
            let m_fast = three_row_matrix(&vals);
            let m_ref = three_row_matrix(&vals);
            m_fast.write_row(1, &delta);
            m_ref.write_row_ref(1, &delta);
            prop_assert_eq!(m_fast.snapshot(), m_ref.snapshot());
            prop_assert!(guards_intact(&m_fast));

            // add_scaled ≡ add_scaled_ref (bitwise).
            let m_fast = three_row_matrix(&vals);
            let m_ref = three_row_matrix(&vals);
            m_fast.add_scaled(1, &delta, scale);
            m_ref.add_scaled_ref(1, &delta, scale);
            let (a, b) = (m_fast.snapshot(), m_ref.snapshot());
            prop_assert_eq!(
                a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
            prop_assert!(guards_intact(&m_fast));

            // add_scaled_relu ≡ add_scaled_relu_ref (bitwise).
            let m_fast = three_row_matrix(&vals);
            let m_ref = three_row_matrix(&vals);
            m_fast.add_scaled_relu(1, &delta, scale);
            m_ref.add_scaled_relu_ref(1, &delta, scale);
            let (a, b) = (m_fast.snapshot(), m_ref.snapshot());
            prop_assert_eq!(
                a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
            prop_assert!(guards_intact(&m_fast));
        }

        /// The AVX2 row kernels must be bit-identical to the widened
        /// no-intrinsics kernels at every `dim % 8` tail case (dims 1..64),
        /// and must never touch neighbouring rows. Called *directly* (not
        /// through the runtime dispatcher) so this holds regardless of the
        /// process-global backend override; skipped on non-AVX2 hosts.
        #[test]
        fn avx2_row_ops_match_widened_bitwise(case in simd_row_and_delta()) {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                let (vals, delta, scale) = case;
                let dim = vals.len();

                // read_row: simd ≡ widened.
                let m = three_row_matrix(&vals);
                let mut fast = vec![0.0f32; dim];
                let mut reference = vec![0.0f32; dim];
                // SAFETY: AVX2 presence checked above; slices are same-length.
                unsafe { crate::simd::x86::read_row(m.row_slots(1), &mut fast) };
                m.read_row_widened(1, &mut reference);
                prop_assert_eq!(&fast, &reference);

                // read_row_dot: simd ≡ widened (value and buffer).
                let mut fast_buf = vec![0.0f32; dim];
                let mut ref_buf = vec![0.0f32; dim];
                // SAFETY: as above.
                let fused =
                    unsafe { crate::simd::x86::read_row_dot(m.row_slots(1), &delta, &mut fast_buf) };
                let split = m.read_row_dot_widened(1, &delta, &mut ref_buf);
                prop_assert_eq!(&fast_buf, &ref_buf);
                prop_assert_eq!(fused.to_bits(), split.to_bits());

                // add_scaled: simd ≡ widened (bitwise), guards intact.
                let m_fast = three_row_matrix(&vals);
                let m_ref = three_row_matrix(&vals);
                // SAFETY: as above.
                unsafe { crate::simd::x86::add_scaled(m_fast.row_slots(1), &delta, scale) };
                m_ref.add_scaled_widened(1, &delta, scale);
                let (a, b) = (m_fast.snapshot(), m_ref.snapshot());
                prop_assert_eq!(
                    a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                );
                prop_assert!(guards_intact(&m_fast));

                // add_scaled_relu: simd ≡ widened (bitwise), guards intact.
                let m_fast = three_row_matrix(&vals);
                let m_ref = three_row_matrix(&vals);
                // SAFETY: as above.
                unsafe { crate::simd::x86::add_scaled_relu(m_fast.row_slots(1), &delta, scale) };
                m_ref.add_scaled_relu_widened(1, &delta, scale);
                let (a, b) = (m_fast.snapshot(), m_ref.snapshot());
                prop_assert_eq!(
                    a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                );
                prop_assert!(guards_intact(&m_fast));
            }
            #[cfg(not(target_arch = "x86_64"))]
            let _ = case;
        }

        /// The fused fetch must equal read-then-dot bit-for-bit (same lane
        /// accumulators and reduction order as `math::dot`).
        #[test]
        fn read_row_dot_is_bitwise_fused(case in row_and_delta()) {
            let (vals, other, _scale) = case;
            let dim = vals.len();
            let m = three_row_matrix(&vals);
            let mut fused_buf = vec![0.0f32; dim];
            let mut split_buf = vec![0.0f32; dim];
            let fused = m.read_row_dot(1, &other, &mut fused_buf);
            m.read_row_ref(1, &mut split_buf);
            let split = crate::math::dot(&other, &split_buf);
            prop_assert_eq!(&fused_buf, &split_buf);
            prop_assert_eq!(fused.to_bits(), split.to_bits());
        }
    }
}
