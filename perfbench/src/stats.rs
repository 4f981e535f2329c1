//! Order statistics for timing samples.

/// Fewest samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Why a percentile was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// `p` outside `(0, 1)` or not finite.
    BadPercentile(f64),
    /// Too few samples beyond the requested rank to report it honestly.
    TooFewBeyond { p: f64, samples: usize, beyond: usize },
    /// A sample was NaN or infinite.
    NonFinite,
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::BadPercentile(p) => write!(f, "percentile {p} outside (0, 1)"),
            StatsError::TooFewBeyond { p, samples, beyond } => write!(
                f,
                "p{} of {samples} samples has only {beyond} beyond it (need {MIN_BEYOND})",
                p * 100.0
            ),
            StatsError::NonFinite => write!(f, "non-finite sample"),
        }
    }
}

/// Nearest-rank percentile `p` (e.g. 0.9) of `samples`. Refused unless
/// at least [`MIN_BEYOND`] samples rank strictly above it: p90 needs 100
/// samples, p50 needs 20.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, StatsError> {
    if !(p.is_finite() && p > 0.0 && p < 1.0) {
        return Err(StatsError::BadPercentile(p));
    }
    if samples.iter().any(|x| !x.is_finite()) {
        return Err(StatsError::NonFinite);
    }
    let n = samples.len();
    // 1-based nearest rank, computed in integers where p is a whole
    // percentage so 0.9 * 100 cannot round up to rank 91.
    let permille = (p * 1000.0).round();
    let rank = if (p * 1000.0 - permille).abs() < 1e-9 {
        (permille as usize * n).div_ceil(1000)
    } else {
        (p * n as f64).ceil() as usize
    }
    .max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(StatsError::TooFewBeyond { p, samples: n, beyond });
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Median of a small set of repeated measurements (mean of the middle
/// two for even counts); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 { sorted[mid] } else { (sorted[mid - 1] + sorted[mid]) / 2.0 })
}

/// Mean; `None` when empty.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refuses_a_percentile_without_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert!(matches!(percentile(&xs, 0.9), Err(StatsError::TooFewBeyond { beyond: 9, .. })));
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), Ok(90.0));
        assert!(percentile(&xs[..19], 0.5).is_err());
        assert_eq!(percentile(&xs[..20], 0.5), Ok(10.0));
        assert!(percentile(&[], 0.5).is_err());
        assert!(percentile(&xs, 0.99).is_err());
    }

    #[test]
    fn refuses_bad_inputs() {
        let xs: Vec<f64> = (0..200).map(f64::from).collect();
        for p in [0.0, 1.0, -0.5, f64::NAN, f64::INFINITY] {
            assert!(matches!(percentile(&xs, p), Err(StatsError::BadPercentile(_))), "p = {p}");
        }
        let mut bad = xs.clone();
        bad[3] = f64::NAN;
        assert_eq!(percentile(&bad, 0.5), Err(StatsError::NonFinite));
    }

    #[test]
    fn order_does_not_matter() {
        let mut xs: Vec<f64> = (1..=200).map(f64::from).collect();
        xs.reverse();
        assert_eq!(percentile(&xs, 0.5), Ok(100.0));
        assert_eq!(percentile(&xs, 0.9), Ok(180.0));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0]), Some(1.5));
        assert_eq!(mean(&[]), None);
    }
}
