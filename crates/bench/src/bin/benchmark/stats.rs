//! Order statistics for timing samples.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least ten samples beyond it, with the sample count stated —
//! a p99 over 300 samples is three numbers, not a percentile.

/// Percentiles the tail rule chooses from, highest first.
const TAIL_LADDER: [f64; 5] = [0.999, 0.99, 0.95, 0.90, 0.75];

/// Samples a percentile must leave beyond itself to be reported.
const MIN_BEYOND: usize = 10;

/// Nearest-rank quantile of an ascending slice (`q` in `0..=1`). Panics on
/// an empty slice: every caller has just produced the samples it ranks.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// Ascending copy (NaN-safe ordering).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Number of samples strictly beyond the nearest-rank `q`-quantile.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest percentile of the ladder that leaves at least ten of `n`
/// samples beyond it, or `None` when even p75 cannot.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&q| n > 0 && samples_beyond(n, q) >= MIN_BEYOND)
}

/// The repetitions of a timed section: consecutive blocks of `block`
/// samples. A trailing short block is dropped, unless it is all there is.
pub fn full_blocks(samples: &[f64], block: usize) -> impl Iterator<Item = &[f64]> {
    samples.chunks(block).filter(move |b| b.len() == block || samples.len() < block)
}

/// Median over the blocks of each block's p50 and of each block's p95: a
/// disturbance that covers a twentieth of the window moves the p95 of the
/// whole window, but only the blocks it falls in. `None` without samples.
pub fn block_medians(samples: &[f64], block: usize) -> Option<(f64, f64)> {
    let blocks: Vec<Summary> = full_blocks(samples, block).map(Summary::of).collect();
    let over = |f: fn(&Summary) -> f64| median(&blocks.iter().map(f).collect::<Vec<_>>());
    (!blocks.is_empty()).then(|| (over(|b| b.p50), over(|b| b.p95)))
}

/// Median, fixed p95/p99 and the rule-chosen tail of one sample set.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
    /// `(q, value)` of the highest reportable percentile.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let s = sorted(samples);
        Summary {
            n: s.len(),
            p50: quantile(&s, 0.5),
            p95: quantile(&s, 0.95),
            p99: quantile(&s, 0.99),
            tail: tail_quantile(s.len()).map(|q| (q, quantile(&s, q))),
        }
    }

    /// `p50 12.3 · p99 45.6 · n 4096` in `unit`.
    pub fn render(&self, unit: &str) -> String {
        match self.tail {
            Some((q, v)) => {
                format!(
                    "p50 {:.2} {unit} · p{} {:.2} {unit} · n {}",
                    self.p50,
                    q * 100.0,
                    v,
                    self.n
                )
            }
            None => format!("p50 {:.2} {unit} · n {} (too few for a tail)", self.p50, self.n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), 50.0);
        assert_eq!(quantile(&s, 0.95), 95.0);
        assert_eq!(quantile(&s, 1.0), 100.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p95 of 200 leaves exactly 10 beyond; of 199 it leaves 9.
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(tail_quantile(200), Some(0.95));
        assert_eq!(tail_quantile(199), Some(0.90));
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        assert_eq!(tail_quantile(40), Some(0.75));
        assert_eq!(tail_quantile(39), None);
        assert_eq!(tail_quantile(0), None);
    }

    #[test]
    fn block_medians_ignore_one_disturbed_block() {
        let mut samples: Vec<f64> = (0..300).map(|i| f64::from(i % 100)).collect();
        samples[100..200].iter_mut().for_each(|x| *x += 1000.0);
        samples.extend([5.0; 40]); // short tail: dropped
        assert_eq!(full_blocks(&samples, 100).count(), 3);
        assert_eq!(block_medians(&samples, 100), Some((49.0, 94.0)));
        assert_eq!(block_medians(&samples[..40], 100), Some((19.0, 37.0)));
        assert_eq!(block_medians(&[], 100), None);
    }

    #[test]
    fn summary_states_its_sample_count() {
        let s = Summary::of(&(0..1000).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.n, 1000);
        assert_eq!(s.tail.map(|t| t.0), Some(0.99));
        assert!(s.render("us").contains("n 1000"));
    }
}
