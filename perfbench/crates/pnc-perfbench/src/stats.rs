//! Order statistics for repeated timings.

/// Median of `values` (mean of the two middle values for an even
/// count); `None` when empty or when any value is NaN.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values)?;
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    })
}

/// The candidate top percentiles, highest first, in tenths of a
/// percent (integers keep the rule exact).
const TOP_PERMILLE: [usize; 5] = [999, 990, 950, 900, 500];

/// The highest of the 99.9th, 99th, 95th, 90th and 50th percentiles
/// that leaves at least ten of `count` samples beyond it, so that the
/// tail it reports is measured rather than one outlier. `None` when
/// `count < 20`.
pub fn admissible_top_percentile(count: usize) -> Option<f64> {
    admissible_permille(count).map(|p| p as f64 / 10.0)
}

fn admissible_permille(count: usize) -> Option<usize> {
    TOP_PERMILLE
        .into_iter()
        .find(|&p| count.saturating_mul(1000 - p) >= 10 * 1000)
}

fn sorted(values: &[f64]) -> Option<Vec<f64>> {
    if values.is_empty() || values.iter().any(|v| v.is_nan()) {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn top_percentile_needs_ten_samples_beyond() {
        assert_eq!(admissible_top_percentile(19), None);
        assert_eq!(admissible_top_percentile(20), Some(50.0));
        assert_eq!(admissible_top_percentile(99), Some(50.0));
        assert_eq!(admissible_top_percentile(100), Some(90.0));
        assert_eq!(admissible_top_percentile(199), Some(90.0));
        assert_eq!(admissible_top_percentile(200), Some(95.0));
        assert_eq!(admissible_top_percentile(1_000), Some(99.0));
        assert_eq!(admissible_top_percentile(9_999), Some(99.0));
        assert_eq!(admissible_top_percentile(10_000), Some(99.9));
    }
}
