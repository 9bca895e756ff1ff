//! Compact CSR storage for a *family* of alias tables.
//!
//! The joint trainer (Algorithm 2) holds one alias table per relation graph
//! (edge sampling), one over the graphs themselves (graph choice), and one
//! smoothed-degree table per graph side (noise sampling) — a dozen-plus
//! separately allocated `AliasTable`s whose book-keeping dominates memory at
//! Douban scale and beyond. [`CsrAliasSet`] packs all of them into three
//! contiguous arrays in CSR form:
//!
//! ```text
//! offsets: [o₀, o₁, …, o_S]          segment s spans o_s..o_{s+1}
//! prob:    [...............]          packed acceptance probabilities (f64)
//! alias:   [...............]          packed alias indices (u32, segment-local)
//! totals:  [t₀, …, t_{S-1}]           per-segment built-from weight sums
//! ```
//!
//! Each segment is constructed with *exactly* the Walker algorithm of
//! [`AliasTable::new`](crate::AliasTable::new) (same summation order, same small/large stack
//! discipline, same leftover-to-1.0 slack), writing straight into its span
//! of the packed arrays — so a segment's [`AliasView`] produces draw streams
//! bit-identical to a standalone table built from the same weights. The
//! per-worker golden-hash determinism tests in gem-core pin this.
//!
//! Zero-mass and empty segments are first-class: they occupy an empty span
//! and [`CsrAliasSet::segment`] returns `None` for them, mirroring the
//! trainer's "a graph nothing can be drawn from is excluded, not an error"
//! policy.

use crate::alias::{AliasError, AliasView};

/// A packed family of Walker alias tables sharing three contiguous arrays.
///
/// # Example
/// ```
/// use gem_sampling::CsrAliasSet;
/// use rand::SeedableRng;
///
/// let set = CsrAliasSet::build([
///     &[1.0, 2.0][..],     // segment 0
///     &[][..],             // segment 1: empty -> None
///     &[5.0, 0.0, 3.0][..] // segment 2
/// ]).unwrap();
/// assert_eq!(set.num_segments(), 3);
/// assert!(set.segment(1).is_none());
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let idx = set.segment(2).unwrap().sample(&mut rng);
/// assert!(idx == 0 || idx == 2);
/// ```
#[derive(Debug, Clone)]
pub struct CsrAliasSet {
    /// `num_segments() + 1` span boundaries into `prob` / `alias`.
    offsets: Vec<usize>,
    /// Packed acceptance probabilities, all segments back to back.
    prob: Vec<f64>,
    /// Packed alias indices, segment-local (an entry aliases within its own
    /// segment, so u32 suffices regardless of how many segments pack in).
    alias: Vec<u32>,
    /// Per-segment total weight (0.0 for empty / zero-mass segments).
    totals: Vec<f64>,
}

/// Errors from [`CsrAliasSet::build`]. Unlike [`AliasError`], empty and
/// zero-mass inputs are *not* errors here — they become empty segments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsrError {
    /// A weight was negative, NaN or infinite.
    InvalidWeight {
        /// Which segment held the offending weight.
        segment: usize,
        /// Index of the offending weight within its segment.
        index: usize,
    },
    /// A segment had more than `u32::MAX` outcomes.
    TooLarge {
        /// Which segment overflowed the u32 index space.
        segment: usize,
    },
}

impl std::fmt::Display for CsrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsrError::InvalidWeight { segment, index } => {
                write!(f, "segment {segment}: weight at index {index} is negative or non-finite")
            }
            CsrError::TooLarge { segment } => {
                write!(f, "segment {segment} exceeds the u32 index space")
            }
        }
    }
}

impl std::error::Error for CsrError {}

impl CsrError {
    /// Project onto the single-table error type (drops the segment id),
    /// for callers that previously built standalone [`AliasTable`](crate::AliasTable)s and
    /// reported [`AliasError`]s.
    pub fn to_alias_error(&self) -> AliasError {
        match *self {
            CsrError::InvalidWeight { index, .. } => AliasError::InvalidWeight { index },
            CsrError::TooLarge { .. } => AliasError::InvalidWeight { index: u32::MAX as usize },
        }
    }
}

impl CsrAliasSet {
    /// Build the packed set in one pass over `segments`.
    ///
    /// The prob/alias arrays are sized once up front and each segment is
    /// constructed in place with reused small/large scratch stacks — no
    /// per-segment allocation. Empty or all-zero segments produce an empty
    /// span (sampled via [`Self::segment`] as `None`); invalid weights are
    /// an error, as with [`crate::AliasTable::new`].
    pub fn build<'w>(segments: impl IntoIterator<Item = &'w [f64]>) -> Result<Self, CsrError> {
        let segments: Vec<&[f64]> = segments.into_iter().collect();

        // Validate + total each segment first: offsets depend on which
        // segments have mass, and error priority must match the standalone
        // constructor (invalid weight beats zero mass).
        let mut totals = Vec::with_capacity(segments.len());
        let mut entries = 0usize;
        for (s, weights) in segments.iter().enumerate() {
            if weights.len() > u32::MAX as usize {
                return Err(CsrError::TooLarge { segment: s });
            }
            let mut total = 0.0f64;
            for (i, &w) in weights.iter().enumerate() {
                if !w.is_finite() || w < 0.0 {
                    return Err(CsrError::InvalidWeight { segment: s, index: i });
                }
                total += w;
            }
            let live = !weights.is_empty() && total > 0.0;
            totals.push(if live { total } else { 0.0 });
            entries += if live { weights.len() } else { 0 };
        }

        let mut offsets = Vec::with_capacity(segments.len() + 1);
        let mut prob = vec![0.0f64; entries];
        let mut alias = vec![0u32; entries];
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        let mut at = 0usize;
        offsets.push(0);
        for (weights, &total) in segments.iter().zip(&totals) {
            if total <= 0.0 {
                offsets.push(at);
                continue;
            }
            let n = weights.len();
            let (prob, alias) = (&mut prob[at..at + n], &mut alias[at..at + n]);
            // Walker construction, verbatim from `AliasTable::new` so the
            // resulting arrays (and therefore draw streams) are
            // bit-identical to a standalone table over the same weights.
            let scale = n as f64 / total;
            for (p, &w) in prob.iter_mut().zip(weights.iter()) {
                *p = w * scale;
            }
            small.clear();
            large.clear();
            for (i, &p) in prob.iter().enumerate() {
                if p < 1.0 {
                    small.push(i as u32);
                } else {
                    large.push(i as u32);
                }
            }
            while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
                alias[s as usize] = l;
                prob[l as usize] = (prob[l as usize] + prob[s as usize]) - 1.0;
                if prob[l as usize] < 1.0 {
                    small.push(l);
                } else {
                    large.push(l);
                }
            }
            for &i in small.iter().chain(large.iter()) {
                prob[i as usize] = 1.0;
            }
            at += n;
            offsets.push(at);
        }
        Ok(Self { offsets, prob, alias, totals })
    }

    /// Number of segments (including empty ones).
    pub fn num_segments(&self) -> usize {
        self.totals.len()
    }

    /// Packed entries across all segments.
    pub fn entries(&self) -> usize {
        self.prob.len()
    }

    /// Approximate resident bytes of the packed arrays (the number the
    /// scale tier budgets against).
    pub fn bytes(&self) -> usize {
        self.prob.len() * 8
            + self.alias.len() * 4
            + self.offsets.len() * std::mem::size_of::<usize>()
            + self.totals.len() * 8
    }

    /// Borrow segment `s` as an [`AliasView`]; `None` when the segment was
    /// empty or all-zero (nothing can be drawn from it) or `s` is out of
    /// range.
    #[inline]
    pub fn segment(&self, s: usize) -> Option<AliasView<'_>> {
        let (lo, hi) = (*self.offsets.get(s)?, *self.offsets.get(s + 1)?);
        if lo == hi {
            return None;
        }
        Some(AliasView::from_raw(&self.prob[lo..hi], &self.alias[lo..hi], self.totals[s]))
    }

    /// Number of outcomes in segment `s` (0 for empty/zero-mass segments).
    pub fn segment_len(&self, s: usize) -> usize {
        match (self.offsets.get(s), self.offsets.get(s + 1)) {
            (Some(&lo), Some(&hi)) => hi - lo,
            _ => 0,
        }
    }

    /// The weight sum segment `s` was built from (0.0 when empty).
    pub fn segment_total(&self, s: usize) -> f64 {
        self.totals.get(s).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alias::AliasTable;
    use crate::rng::rng_from_seed;

    #[test]
    fn segments_sample_bit_identically_to_standalone_tables() {
        let segs: Vec<Vec<f64>> =
            vec![vec![1.0, 2.0, 7.0], vec![0.5, 3.0, 1.5, 0.0, 2.0], vec![1e-6; 33], vec![4.0]];
        let set = CsrAliasSet::build(segs.iter().map(|s| s.as_slice())).unwrap();
        for (i, weights) in segs.iter().enumerate() {
            let table = AliasTable::new(weights).unwrap();
            let view = set.segment(i).expect("live segment");
            assert_eq!(view.len(), table.len());
            assert!((view.total_weight() - table.total_weight()).abs() == 0.0);
            let mut rng_t = rng_from_seed(1000 + i as u64);
            let mut rng_v = rng_from_seed(1000 + i as u64);
            for _ in 0..2000 {
                assert_eq!(table.sample(&mut rng_t), view.sample(&mut rng_v), "segment {i}");
            }
        }
    }

    #[test]
    fn empty_and_zero_mass_segments_are_none_not_errors() {
        let set = CsrAliasSet::build([&[][..], &[0.0, 0.0][..], &[1.0][..], &[0.0][..]]).unwrap();
        assert_eq!(set.num_segments(), 4);
        assert!(set.segment(0).is_none());
        assert!(set.segment(1).is_none());
        assert!(set.segment(2).is_some());
        assert!(set.segment(3).is_none());
        assert_eq!(set.segment_len(1), 0);
        assert_eq!(set.segment_len(2), 1);
        assert_eq!(set.entries(), 1);
        assert!(set.segment(99).is_none(), "out of range is None");
    }

    #[test]
    fn invalid_weights_error_with_segment_and_index() {
        let err = CsrAliasSet::build([&[1.0][..], &[2.0, -1.0][..]]).unwrap_err();
        assert_eq!(err, CsrError::InvalidWeight { segment: 1, index: 1 });
        assert_eq!(err.to_alias_error(), AliasError::InvalidWeight { index: 1 });
        let err = CsrAliasSet::build([&[f64::NAN][..]]).unwrap_err();
        assert_eq!(err, CsrError::InvalidWeight { segment: 0, index: 0 });
    }

    #[test]
    fn bytes_accounts_for_packed_storage() {
        let set = CsrAliasSet::build([&[1.0, 2.0][..], &[3.0][..]]).unwrap();
        // 3 entries: 3×(8+4) + 3 offsets + 2 totals.
        assert_eq!(set.bytes(), 3 * 12 + 3 * std::mem::size_of::<usize>() + 2 * 8);
    }

    #[test]
    fn distribution_is_preserved_through_packing() {
        let weights = [1.0, 2.0, 3.0, 4.0];
        let set = CsrAliasSet::build([&weights[..]]).unwrap();
        let view = set.segment(0).unwrap();
        let mut rng = rng_from_seed(77);
        let draws = 400_000;
        let mut counts = [0usize; 4];
        for _ in 0..draws {
            counts[view.sample(&mut rng)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let expected = weights[i] / 10.0;
            let got = c as f64 / draws as f64;
            assert!((got - expected).abs() < 0.01, "idx {i}: {got} vs {expected}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::alias::AliasTable;
    use crate::rng::rng_from_seed;
    use proptest::prelude::*;

    proptest! {
        /// Draw-stream equivalence: for arbitrary weight families, every
        /// live CSR segment produces the *bitwise same* index sequence as a
        /// standalone `AliasTable` built from the same weights, from the
        /// same RNG state — the property the trainer's golden hashes pin
        /// end to end.
        #[test]
        fn csr_and_alias_table_draw_streams_match(
            segs in prop::collection::vec(
                prop::collection::vec(0.0f64..50.0, 0..40), 1..8),
            seed in 0u64..500,
        ) {
            let set = CsrAliasSet::build(segs.iter().map(|s| s.as_slice())).unwrap();
            for (i, weights) in segs.iter().enumerate() {
                match AliasTable::new(weights) {
                    Ok(table) => {
                        let view = set.segment(i).expect("table built => segment live");
                        let mut rng_t = rng_from_seed(seed);
                        let mut rng_v = rng_from_seed(seed);
                        for _ in 0..256 {
                            prop_assert_eq!(
                                table.sample(&mut rng_t),
                                view.sample(&mut rng_v),
                                "segment {} diverged", i
                            );
                        }
                    }
                    Err(AliasError::Empty | AliasError::ZeroMass) => {
                        prop_assert!(set.segment(i).is_none());
                    }
                    Err(e) => prop_assert!(false, "unexpected {:?}", e),
                }
            }
        }
    }
}
