//! Property-based tests for the measurement substrate.

use geogrid_metrics::{gini, RunningStats, Summary};
use proptest::prelude::*;

fn arb_samples() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1e6..1e6, 1..200)
}

proptest! {
    /// Welford accumulation matches the naive two-pass formulas.
    #[test]
    fn running_stats_match_naive(xs in arb_samples()) {
        let stats: RunningStats = xs.iter().copied().collect();
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        let scale = mean.abs().max(var.abs()).max(1.0);
        prop_assert!((stats.mean() - mean).abs() / scale < 1e-9);
        prop_assert!((stats.population_variance() - var).abs() / scale.powi(2).max(1.0) < 1e-6);
        prop_assert_eq!(stats.count(), xs.len() as u64);
    }

    /// Merging any split of the samples equals accumulating them all.
    #[test]
    fn running_stats_merge_any_split(xs in arb_samples(), cut_seed in any::<usize>()) {
        let cut = cut_seed % (xs.len() + 1);
        let all: RunningStats = xs.iter().copied().collect();
        let mut left: RunningStats = xs[..cut].iter().copied().collect();
        let right: RunningStats = xs[cut..].iter().copied().collect();
        left.merge(&right);
        prop_assert_eq!(left.count(), all.count());
        let scale = all.mean().abs().max(1.0);
        prop_assert!((left.mean() - all.mean()).abs() / scale < 1e-9);
        prop_assert!(
            (left.population_variance() - all.population_variance()).abs()
                / all.population_variance().max(1.0)
                < 1e-6
        );
    }

    /// Percentiles are monotone in p and bounded by min/max.
    #[test]
    fn summary_percentiles_monotone(xs in arb_samples(), a in 0.0..100.0, b in 0.0..100.0) {
        let s = Summary::from_values(xs);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(s.percentile(lo) <= s.percentile(hi) + 1e-12);
        prop_assert!(s.percentile(0.0) >= s.min() - 1e-12);
        prop_assert!(s.percentile(100.0) <= s.max() + 1e-12);
    }

    /// Gini is in [0, 1) and scale-invariant.
    #[test]
    fn gini_bounded_and_scale_invariant(
        xs in proptest::collection::vec(0.0..1e6, 2..100),
        k in 0.001..1e3
    ) {
        let g = gini(xs.iter().copied());
        prop_assert!((0.0..1.0).contains(&g), "gini {g}");
        let scaled = gini(xs.iter().map(|x| x * k));
        prop_assert!((g - scaled).abs() < 1e-9);
    }
}
