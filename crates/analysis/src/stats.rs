//! Summary statistics over repeated measurements.

/// Summary statistics of a sample (e.g. message counts over many seeds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (Bessel-corrected; 0 for samples of 1).
    pub stddev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Median (midpoint of the two central observations for even sizes).
    pub median: f64,
}

impl Summary {
    /// Summarises a non-empty sample.
    ///
    /// Returns `None` for an empty sample, or one containing non-finite
    /// values.
    pub fn from_sample(sample: &[f64]) -> Option<Summary> {
        if sample.is_empty() || sample.iter().any(|x| !x.is_finite()) {
            return None;
        }
        let count = sample.len();
        let mean = sample.iter().sum::<f64>() / count as f64;
        let var = if count > 1 {
            sample.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (count as f64 - 1.0)
        } else {
            0.0
        };
        let mut sorted = sample.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        let median = if count % 2 == 1 {
            sorted[count / 2]
        } else {
            (sorted[count / 2 - 1] + sorted[count / 2]) / 2.0
        };
        Some(Summary {
            count,
            mean,
            stddev: var.sqrt(),
            min: sorted[0],
            max: sorted[count - 1],
            median,
        })
    }

    /// Half-width of an approximate 95% confidence interval for the mean
    /// (normal approximation, `1.96·σ/√count`).
    pub fn ci95_half_width(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        1.96 * self.stddev / (self.count as f64).sqrt()
    }

    /// Summarises integer measurements.
    pub fn from_counts(sample: &[u64]) -> Option<Summary> {
        let as_f64: Vec<f64> = sample.iter().map(|&x| x as f64).collect();
        Summary::from_sample(&as_f64)
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.1} ± {:.1} (min {:.1}, median {:.1}, max {:.1}, k = {})",
            self.mean, self.stddev, self.min, self.median, self.max, self.count
        )
    }
}

/// The `q`-quantile of a sample, `q ∈ [0, 1]`, with linear interpolation
/// between order statistics (type-7 / NumPy default).
///
/// Returns `None` for an empty sample, a non-finite value in the sample, or
/// `q` outside `[0, 1]`.
///
/// # Example
///
/// ```
/// use le_analysis::stats::quantile;
/// let sample = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(quantile(&sample, 0.0), Some(1.0));
/// assert_eq!(quantile(&sample, 0.5), Some(2.5));
/// assert_eq!(quantile(&sample, 1.0), Some(4.0));
/// ```
pub fn quantile(sample: &[f64], q: f64) -> Option<f64> {
    if sample.is_empty() || sample.iter().any(|x| !x.is_finite()) || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let mut sorted = sample.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// The empirical success rate of a repeated boolean experiment.
///
/// # Example
///
/// ```
/// use le_analysis::stats::success_rate;
/// assert_eq!(success_rate(&[true, true, false, true]), 0.75);
/// ```
pub fn success_rate(outcomes: &[bool]) -> f64 {
    if outcomes.is_empty() {
        return 0.0;
    }
    outcomes.iter().filter(|&&b| b).count() as f64 / outcomes.len() as f64
}

/// Geometric mean of a sample of positive values, the right average for
/// ratios such as measured/predicted message counts.
///
/// Returns `None` if the sample is empty or contains non-positive values.
pub fn geometric_mean(sample: &[f64]) -> Option<f64> {
    if sample.is_empty() || sample.iter().any(|&x| x <= 0.0 || !x.is_finite()) {
        return None;
    }
    let log_sum: f64 = sample.iter().map(|x| x.ln()).sum();
    Some((log_sum / sample.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::from_sample(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert_eq!(s.count, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Sample (Bessel) stddev of this classic dataset is sqrt(32/7).
        assert!((s.stddev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert!((s.median - 4.5).abs() < 1e-12);
    }

    #[test]
    fn summary_of_singleton() {
        let s = Summary::from_sample(&[3.0]).unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.ci95_half_width(), 0.0);
    }

    #[test]
    fn summary_rejects_empty_and_nan() {
        assert!(Summary::from_sample(&[]).is_none());
        assert!(Summary::from_sample(&[1.0, f64::NAN]).is_none());
        assert!(Summary::from_sample(&[1.0, f64::INFINITY]).is_none());
    }

    #[test]
    fn median_odd_sample() {
        let s = Summary::from_sample(&[9.0, 1.0, 5.0]).unwrap();
        assert_eq!(s.median, 5.0);
    }

    #[test]
    fn from_counts_matches_floats() {
        let a = Summary::from_counts(&[1, 2, 3]).unwrap();
        let b = Summary::from_sample(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn ci_shrinks_with_sample_size() {
        let small = Summary::from_sample(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        let big_sample: Vec<f64> = (0..100).map(|i| 1.0 + (i % 4) as f64).collect();
        let big = Summary::from_sample(&big_sample).unwrap();
        assert!(big.ci95_half_width() < small.ci95_half_width());
    }

    #[test]
    fn quantile_boundaries_and_interior() {
        let sample = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&sample, 0.0), Some(1.0));
        assert_eq!(quantile(&sample, 1.0), Some(4.0));
        assert_eq!(quantile(&sample, 0.5), Some(2.5));
        // Type-7 interpolation at an interior, non-midpoint q.
        let q25 = quantile(&sample, 0.25).unwrap();
        assert!((q25 - 1.75).abs() < 1e-12);
    }

    #[test]
    fn quantile_rejects_out_of_range_and_non_finite_q() {
        // Regression guard: q outside [0, 1] once indexed `sorted` out of
        // bounds (e.g. q = 1.1 on a 4-element sample computes hi = 4).
        let sample = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&sample, 1.1), None);
        assert_eq!(quantile(&sample, -0.1), None);
        assert_eq!(quantile(&sample, f64::NAN), None);
        assert_eq!(quantile(&sample, f64::INFINITY), None);
        assert_eq!(quantile(&sample, f64::NEG_INFINITY), None);
        // Next-representable values outside the closed interval.
        assert_eq!(quantile(&sample, 1.0 + f64::EPSILON), None);
        assert_eq!(quantile(&sample, -f64::MIN_POSITIVE), None);
        // Degenerate samples stay rejected whatever q is.
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[1.0, f64::NAN], 0.5), None);
    }

    #[test]
    fn success_rate_edges() {
        assert_eq!(success_rate(&[]), 0.0);
        assert_eq!(success_rate(&[true]), 1.0);
        assert_eq!(success_rate(&[false, false]), 0.0);
    }

    #[test]
    fn geometric_mean_of_reciprocals_is_one() {
        let g = geometric_mean(&[2.0, 0.5, 4.0, 0.25]).unwrap();
        assert!((g - 1.0).abs() < 1e-12);
        assert!(geometric_mean(&[]).is_none());
        assert!(geometric_mean(&[1.0, 0.0]).is_none());
        assert!(geometric_mean(&[1.0, -1.0]).is_none());
    }

    #[test]
    fn display_is_informative() {
        let s = Summary::from_sample(&[1.0, 3.0]).unwrap();
        let text = s.to_string();
        assert!(text.contains("2.0"), "mean missing from {text}");
        assert!(text.contains("k = 2"), "count missing from {text}");
    }
}
