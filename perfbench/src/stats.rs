//! Exact order statistics over raw samples.
//!
//! Percentiles interpolate linearly between the two order statistics
//! around rank `q * (n - 1)` (the numpy default), so a p99 over 1,000
//! nanosecond samples moves with every sample rather than jumping
//! between histogram bucket edges.

/// The `q` quantile (`0.0..=1.0`) of `sorted`, which must be ascending.
/// Returns `NaN` for an empty slice.
#[must_use]
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The `q` quantile of unsorted `values`.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// The median of `values`.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Median, 90th and 99th percentile of one kind of sample, with its
/// count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Samples the percentiles were taken over.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Latency {
    /// Summarises raw samples (any unit; the result keeps it).
    #[must_use]
    pub fn of(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Self {
            count: sorted.len(),
            p50: quantile_sorted(&sorted, 0.50),
            p90: quantile_sorted(&sorted, 0.90),
            p99: quantile_sorted(&sorted, 0.99),
        }
    }

    /// Whether the p99 has at least ten samples beyond it.
    #[must_use]
    pub fn p99_supported(&self) -> bool {
        self.count >= 1000
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((quantile(&v, 0.25) - 1.75).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn p99_of_a_ramp_is_exact() {
        // 1..=1000: rank 0.99 * 999 = 989.01 → 990 + 0.01.
        let ramp: Vec<f64> = (1..=1000).map(f64::from).collect();
        let lat = Latency::of(&ramp);
        assert_eq!(lat.count, 1000);
        assert!((lat.p50 - 500.5).abs() < 1e-9);
        assert!((lat.p90 - 900.1).abs() < 1e-9);
        assert!((lat.p99 - 990.01).abs() < 1e-9);
        assert!(lat.p99_supported());
        assert!(!Latency::of(&ramp[..999]).p99_supported());
    }

    #[test]
    fn every_sample_moves_the_percentile() {
        // Unlike a log2 histogram, nudging the sample at the p99 rank
        // moves the p99 by the same amount.
        let mut v: Vec<f64> = (0..1000).map(|i| f64::from(i) * 10.0).collect();
        let before = Latency::of(&v).p99;
        v[990] += 3.0;
        let after = Latency::of(&v).p99;
        assert!(after > before && after - before < 3.0);
    }
}
