//! The small pieces a benchmark report needs without a registry
//! dependency: a JSON tree with its writer and parser ([`json`]), which
//! the trace artifacts and `perfbench` reports share, and the
//! outlier-robust [`median`] that `perfbench` summarises its runs with.

pub mod json;

/// Median of a sample set; even-length sets average the middle pair.
///
/// Wall-clock timings on shared machines have a one-sided noise
/// distribution (interrupts, frequency scaling), so the median is the
/// robust location estimate.
///
/// # Panics
/// Panics if `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "median of empty input");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_known_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        // Robustness: one huge outlier does not move the median.
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0, 1e12]), 3.0);
    }
}
