//! Aggregation helpers: the paper reports harmonic-mean IPC across
//! benchmarks (the correct mean for rates over equal instruction counts).

/// Harmonic mean of a set of positive rates.
///
/// Returns `0.0` for an empty slice.
///
/// # Panics
///
/// Panics if any value is non-positive or non-finite (a rate of zero means a
/// simulation produced no work, which is a bug upstream).
#[must_use]
pub(crate) fn harmonic_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let recip_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(
                v.is_finite() && v > 0.0,
                "harmonic mean of non-positive rate {v}"
            );
            1.0 / v
        })
        .sum();
    values.len() as f64 / recip_sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harmonic_mean_of_two_rates() {
        assert!((harmonic_mean(&[2.0, 4.0]) - 8.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn harmonic_mean_of_equal_values_is_the_value() {
        assert!((harmonic_mean(&[3.0, 3.0, 3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn harmonic_mean_is_dominated_by_small_values() {
        let hm = harmonic_mean(&[1.0, 100.0]);
        assert!(hm < 2.0, "hm = {hm}");
    }

    #[test]
    fn empty_means_are_zero() {
        assert_eq!(harmonic_mean(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-positive")]
    fn zero_rate_panics() {
        let _ = harmonic_mean(&[1.0, 0.0]);
    }
}
