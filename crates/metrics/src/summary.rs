//! Batch summaries of a sample set.

use std::fmt;

use crate::RunningStats;

/// Summary statistics over a complete sample set, including percentiles.
///
/// The paper reports max, mean, and standard deviation of the workload index
/// across all nodes; [`Summary`] computes those in one pass and keeps the
/// sorted samples around so percentiles can be queried as well.
///
/// # Examples
///
/// ```
/// use geogrid_metrics::Summary;
///
/// let s = Summary::from_values([4.0, 1.0, 3.0, 2.0]);
/// assert_eq!(s.len(), 4);
/// assert_eq!(s.min(), 1.0);
/// assert_eq!(s.percentile(50.0), 2.5);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Summary {
    sorted: Vec<f64>,
    stats: RunningStats,
}

impl Summary {
    /// Builds a summary from any collection of samples.
    ///
    /// Non-finite samples are dropped, mirroring [`RunningStats::push`].
    pub fn from_values<I: IntoIterator<Item = f64>>(values: I) -> Self {
        let mut sorted: Vec<f64> = values.into_iter().filter(|v| v.is_finite()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("filtered to finite"));
        let stats = sorted.iter().copied().collect();
        Self { sorted, stats }
    }

    /// Number of (finite) samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the summary holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Arithmetic mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        self.stats.mean()
    }

    /// Population standard deviation, or 0 when empty.
    pub fn std_dev(&self) -> f64 {
        self.stats.population_std_dev()
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> f64 {
        self.stats.min()
    }

    /// Largest sample, or 0 when empty.
    pub fn max(&self) -> f64 {
        self.stats.max()
    }

    /// Linearly interpolated percentile, `p` in `[0, 100]`.
    ///
    /// Returns 0 when the summary is empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]` or not finite.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!(
            p.is_finite() && (0.0..=100.0).contains(&p),
            "percentile must lie in [0, 100], got {p}"
        );
        if self.sorted.is_empty() {
            return 0.0;
        }
        if self.sorted.len() == 1 {
            return self.sorted[0];
        }
        let rank = p / 100.0 * (self.sorted.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
    }

    /// Median (50th percentile).
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// Underlying accumulator (for merging into trial-level aggregates).
    pub fn stats(&self) -> &RunningStats {
        &self.stats
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.6} std={:.6} max={:.6} p50={:.6} p99={:.6}",
            self.len(),
            self.mean(),
            self.std_dev(),
            self.max(),
            self.median(),
            self.percentile(99.0)
        )
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        Self::from_values(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary() {
        let s = Summary::from_values([]);
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.percentile(99.0), 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let s = Summary::from_values([10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!(s.percentile(0.0), 10.0);
        assert_eq!(s.percentile(100.0), 50.0);
        assert_eq!(s.percentile(50.0), 30.0);
        assert_eq!(s.percentile(25.0), 20.0);
        assert!((s.percentile(10.0) - 14.0).abs() < 1e-12);
    }

    #[test]
    fn stats_match_known_values() {
        let s = Summary::from_values([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.min(), 2.0);
    }

    #[test]
    #[should_panic(expected = "percentile must lie in")]
    fn percentile_rejects_out_of_range() {
        Summary::from_values([1.0]).percentile(101.0);
    }

    #[test]
    fn drops_non_finite() {
        let s = Summary::from_values([1.0, f64::NAN, 2.0]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn single_value_percentiles() {
        let s = Summary::from_values([7.0]);
        assert_eq!(s.percentile(0.0), 7.0);
        assert_eq!(s.percentile(73.0), 7.0);
        assert_eq!(s.percentile(100.0), 7.0);
    }
}
