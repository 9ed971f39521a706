//! Order statistics shared by every workload.
//!
//! Tail percentiles use the nearest-rank rule on a sorted copy. A tail
//! percentile is only as good as the samples beyond it, so [`tail`]
//! clamps a requested percentile to the highest one that still has at
//! least [`TAIL_SAMPLES`] samples above it.

/// Samples a reported tail percentile must have beyond it.
pub const TAIL_SAMPLES: usize = 10;

/// Sorted copy of `xs` (NaN-free input assumed; `total_cmp` orders any).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median: the middle sample, or the mean of the two middle ones.
///
/// # Panics
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    assert!(!s.is_empty(), "median of no samples");
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Mean, or 0 with no samples.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Tail percentile `p` of `xs`: the nearest-rank value of the highest
/// percentile not above `p` that has at least [`TAIL_SAMPLES`] samples
/// beyond it, and never less than the median; with too few samples for
/// any such percentile, the median. Returns the value and the
/// percentile actually used.
///
/// # Panics
/// Panics on an empty slice.
pub fn tail(xs: &[f64], p: f64) -> (f64, f64) {
    let s = sorted(xs);
    let n = s.len();
    let mid = median(&s);
    if n <= 2 * TAIL_SAMPLES {
        return (mid, 0.5);
    }
    let wanted = (p.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    let rank = wanted.clamp(1, n - TAIL_SAMPLES);
    (s[rank - 1].max(mid), (rank as f64 / n as f64).max(0.5))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples support p99 exactly: 10 lie beyond it.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (v, q) = tail(&xs, 0.99);
        assert_eq!((v, q), (990.0, 0.99));
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        // 100 samples only support p90.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (v, q) = tail(&xs, 0.99);
        assert!((q - 0.9).abs() < 1e-12);
        assert_eq!(v, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        // Too few samples fall back to the median.
        assert_eq!(tail(&[1.0, 2.0, 3.0], 0.99), (2.0, 0.5));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten, 0.99), (5.5, 0.5));
        // A low percentile is never raised.
        let many: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&many, 0.5), (5000.5, 0.5), "the median, not below it");
    }

    #[test]
    fn tail_always_leaves_ten_beyond() {
        // Below 21 samples not even the median has ten beyond it.
        for n in 1..=20 {
            let xs: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            assert_eq!(tail(&xs, 0.99), (median(&xs), 0.5));
        }
        for n in 21..400 {
            let xs: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let (v, _) = tail(&xs, 0.99);
            let beyond = xs.iter().filter(|&&x| x > v).count();
            assert!(beyond >= TAIL_SAMPLES, "n={n}: only {beyond} beyond");
        }
    }

    #[test]
    fn mean_of_nothing_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
