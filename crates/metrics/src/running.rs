//! Online (streaming) statistics accumulation.

use std::fmt;

/// Welford-style online accumulator for count, mean, variance, min and max.
///
/// Used by experiment runners that aggregate a statistic over many trials
/// without retaining every sample (the paper repeats each setting over 100
/// randomly generated networks).
///
/// # Examples
///
/// ```
/// use geogrid_metrics::RunningStats;
///
/// let mut stats = RunningStats::new();
/// for x in [2.0_f64, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     stats.push(x);
/// }
/// assert_eq!(stats.count(), 8);
/// assert!((stats.mean() - 5.0).abs() < 1e-12);
/// assert!((stats.population_std_dev() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    ///
    /// Non-finite samples are ignored (and never occur in well-formed
    /// experiments); this keeps the accumulator total even under a buggy
    /// workload generator rather than poisoning every later read.
    pub fn push(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = value - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Merges another accumulator into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64) * (other.count as f64) / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples pushed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Population variance (divides by `n`), or 0 when empty.
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn population_std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }
}

impl fmt::Display for RunningStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.6} std={:.6} min={:.6} max={:.6}",
            self.count,
            self.mean(),
            self.population_std_dev(),
            self.min(),
            self.max()
        )
    }
}

impl Extend<f64> for RunningStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for v in iter {
            self.push(v);
        }
    }
}

impl FromIterator<f64> for RunningStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = Self::new();
        s.extend(iter);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_zero() {
        let s = RunningStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.population_std_dev(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn single_sample() {
        let mut s = RunningStats::new();
        s.push(42.0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.population_variance(), 0.0);
        assert_eq!(s.min(), 42.0);
        assert_eq!(s.max(), 42.0);
    }

    #[test]
    fn ignores_non_finite() {
        let mut s = RunningStats::new();
        s.push(1.0);
        s.push(f64::NAN);
        s.push(f64::INFINITY);
        s.push(3.0);
        assert_eq!(s.count(), 2);
        assert!((s.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let all: RunningStats = xs.iter().copied().collect();
        let left: RunningStats = xs[..37].iter().copied().collect();
        let mut merged = left;
        let right: RunningStats = xs[37..].iter().copied().collect();
        merged.merge(&right);
        assert_eq!(merged.count(), all.count());
        assert!((merged.mean() - all.mean()).abs() < 1e-9);
        assert!((merged.population_variance() - all.population_variance()).abs() < 1e-9);
        assert_eq!(merged.min(), all.min());
        assert_eq!(merged.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a: RunningStats = [1.0, 2.0, 3.0].into_iter().collect();
        let before = a;
        a.merge(&RunningStats::new());
        assert_eq!(a, before);

        let mut empty = RunningStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn display_is_nonempty() {
        let s: RunningStats = [1.0, 2.0].into_iter().collect();
        assert!(!format!("{s}").is_empty());
    }
}
