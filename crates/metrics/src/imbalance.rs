//! Workload-imbalance measures.
//!
//! The paper's headline claim is a reduction of workload *imbalance* by an
//! order of magnitude. Besides the std-dev the paper plots, the harness also
//! reports the Gini coefficient, a standard imbalance measure that makes the
//! ablation tables easier to read.

/// Gini coefficient of a set of non-negative values, in `[0, 1)`.
///
/// 0 means perfectly even; values approaching 1 mean all load concentrates
/// on one node. Negative and non-finite inputs are ignored.
///
/// # Examples
///
/// ```
/// use geogrid_metrics::gini;
///
/// assert!(gini([1.0, 1.0, 1.0, 1.0]).abs() < 1e-12);
/// assert!(gini([0.0, 0.0, 0.0, 10.0]) > 0.7);
/// ```
pub fn gini<I: IntoIterator<Item = f64>>(values: I) -> f64 {
    let mut xs: Vec<f64> = values
        .into_iter()
        .filter(|v| v.is_finite() && *v >= 0.0)
        .collect();
    if xs.len() < 2 {
        return 0.0;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).expect("filtered to finite"));
    let n = xs.len() as f64;
    let sum: f64 = xs.iter().sum();
    if sum == 0.0 {
        return 0.0;
    }
    // G = (2 * sum_i i*x_i) / (n * sum_i x_i) - (n + 1) / n, with i starting at 1.
    let weighted: f64 = xs
        .iter()
        .enumerate()
        .map(|(i, &x)| (i as f64 + 1.0) * x)
        .sum();
    (2.0 * weighted) / (n * sum) - (n + 1.0) / n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gini_of_uniform_is_zero() {
        assert!(gini(std::iter::repeat_n(3.5, 50)).abs() < 1e-12);
    }

    #[test]
    fn gini_of_concentrated_is_high() {
        let mut xs = vec![0.0; 99];
        xs.push(100.0);
        let g = gini(xs);
        assert!(g > 0.95, "got {g}");
    }

    #[test]
    fn gini_handles_degenerate_inputs() {
        assert_eq!(gini([]), 0.0);
        assert_eq!(gini([5.0]), 0.0);
        assert_eq!(gini([0.0, 0.0]), 0.0);
        assert_eq!(gini([f64::NAN, 1.0]), 0.0); // single finite value left
    }

    #[test]
    fn gini_is_scale_invariant() {
        let a = gini([1.0, 2.0, 3.0, 4.0]);
        let b = gini([10.0, 20.0, 30.0, 40.0]);
        assert!((a - b).abs() < 1e-12);
    }
}
