//! Sample statistics: medians, the supported-tail percentile rule, and the
//! quartile spread the acceptance check uses.

/// Tail percentiles tried from the top; the reported one is the highest
/// that leaves at least [`MIN_BEYOND`] samples beyond it.
const TAIL_LADDER: [f64; 4] = [99.0, 95.0, 90.0, 75.0];

/// A percentile is reported only with at least this many samples beyond
/// it, so a single stall cannot set it.
pub const MIN_BEYOND: usize = 10;

/// Sorts in place (samples are finite by construction).
pub fn sort(samples: &mut [f64]) {
    samples.sort_unstable_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
}

/// The `pct`-th percentile (nearest rank) of an ascending slice.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (sorted.len() as f64 * pct / 100.0) as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// How many samples lie strictly beyond the `pct`-th percentile's rank.
fn beyond(len: usize, pct: f64) -> usize {
    let rank = ((len as f64 * pct / 100.0) as usize).min(len.saturating_sub(1));
    len - 1 - rank
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] samples beyond it, and its value; falls back to the
/// median when the sample supports no tail at all.
pub fn supported_tail(sorted: &[f64]) -> (f64, f64) {
    for pct in TAIL_LADDER {
        if beyond(sorted.len(), pct) >= MIN_BEYOND {
            return (pct, percentile(sorted, pct));
        }
    }
    (50.0, percentile(sorted, 50.0))
}

/// Median of an unsorted sample (mean of the two middle values for an
/// even count, as Python's `statistics.median`).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut v = samples.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method — the values
/// Python's `statistics.quantiles(values, n=4)` returns as its first and
/// last cut point.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    assert!(samples.len() >= 2, "quartiles need two samples");
    let mut v = samples.to_vec();
    sort(&mut v);
    let cut = |k: usize| {
        let pos = k as f64 * (v.len() + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, v.len() - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    (cut(1), cut(3))
}

/// Inter-quartile distance as a share of the median: the spread the
/// acceptance check compares with a metric's bound.
pub fn spread(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    (q3 - q1) / median(samples)
}

/// Equal windows the measured phase is cut into.
pub const WINDOWS: usize = 20;

/// Throughput and latency are taken per window and the third-best window
/// is reported. This host slows for seconds at a time (a loop that only
/// clones a vector runs anywhere from 8.8 to 12.8 thousand rounds a second
/// on it) and never speeds up, so the fastest windows show the system's
/// own speed; the third-best rather than the best, so that no single
/// lucky window sets a figure. Over eight `sim_dual` runs of one seed (at
/// 20,000 objects) the third-best window's rate spread 3%, the median
/// window's 10%, the whole-phase mean 11%.
const BEST: usize = 3;

/// The tail percentile reported per window. A window holds a tenth of
/// twentieth of the samples, so this is the highest step of the ladder
/// that still has ten samples beyond it on the slowest workload
/// (`tcp_mix`, about 220 operations a window).
pub const TAIL: f64 = 95.0;

/// Per-operation samples of one measured phase: when each completed, what
/// it cost, and how many operations it stands for.
#[derive(Debug, Default)]
pub struct Windowed {
    samples: Vec<(f64, f64, u32)>,
}

/// The third-best window's figures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowSummary {
    /// Operations completed per second.
    pub rate: f64,
    pub p50: f64,
    pub tail: f64,
    /// Samples over all windows.
    pub samples: usize,
}

impl Windowed {
    /// One sample: completed `at_s` seconds into the phase, cost `value`
    /// (microseconds per operation), standing for `ops` operations.
    pub fn push(&mut self, at_s: f64, value: f64, ops: u32) {
        self.samples.push((at_s, value, ops));
    }

    /// Operations over the whole phase.
    pub fn ops(&self) -> u64 {
        self.samples.iter().map(|s| u64::from(s.2)).sum()
    }

    /// The third-best window's completion rate — the whole phase's, if it
    /// was too short to put a sample in every window.
    pub fn rate(&self, wall_s: f64) -> f64 {
        self.summary(wall_s)
            .map_or(self.ops() as f64 / wall_s, |s| s.rate)
    }

    /// Cuts `wall_s` into [`WINDOWS`] windows and returns the third-best
    /// of the windows' rates, medians and [`TAIL`] percentiles. `None` if
    /// some window saw no sample.
    pub fn summary(&self, wall_s: f64) -> Option<WindowSummary> {
        let width = wall_s / WINDOWS as f64;
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); WINDOWS];
        let mut ops = [0u64; WINDOWS];
        for &(at_s, value, n) in &self.samples {
            let w = ((at_s / width) as usize).min(WINDOWS - 1);
            values[w].push(value);
            ops[w] += u64::from(n);
        }
        let (mut rates, mut p50s, mut tails) = (Vec::new(), Vec::new(), Vec::new());
        for (v, n) in values.iter_mut().zip(ops) {
            if v.is_empty() {
                return None;
            }
            sort(v);
            rates.push(n as f64 / width);
            p50s.push(percentile(v, 50.0));
            tails.push(percentile(v, TAIL));
        }
        for v in [&mut rates, &mut p50s, &mut tails] {
            sort(v);
        }
        Some(WindowSummary {
            rate: rates[WINDOWS - BEST],
            p50: p50s[BEST - 1],
            tail: tails[BEST - 1],
            samples: self.samples.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1,001 samples: rank 990 for p99 leaves exactly 10 beyond.
        assert_eq!(supported_tail(&ramp(1001)), (99.0, 990.0));
        // One fewer and p99 is no longer supported; p95 is.
        assert_eq!(supported_tail(&ramp(1000)).0, 95.0);
        // 62 churn samples support p75 (15 beyond) but not p90 (6 beyond).
        assert_eq!(supported_tail(&ramp(62)).0, 75.0);
        // Too few for any tail: the median stands in.
        assert_eq!(supported_tail(&ramp(12)), (50.0, 6.0));
    }

    #[test]
    fn disturbed_windows_do_not_set_the_figures_and_one_lucky_window_does_not_either() {
        let mut w = Windowed::default();
        // 20 s in 1 s windows, 100 samples a second at 10 us. Seconds 3 to
        // 14 are disturbed (half the samples arrive, each costs 50 us);
        // second 17 is lucky (twice the samples at half the cost).
        for second in 0..20 {
            let (n, cost) = match second {
                3..=14 => (50, 50.0),
                17 => (200, 5.0),
                _ => (100, 10.0),
            };
            for i in 0..n {
                w.push(second as f64 + i as f64 / n as f64, cost, 1);
            }
        }
        let s = w.summary(20.0).expect("every window has samples");
        assert_eq!((s.rate, s.p50, s.tail), (100.0, 10.0, 10.0));
        assert_eq!((s.samples, w.ops()), (1_500, 1_500));
        // A window without samples means the phase stalled: no summary.
        let mut gap = Windowed::default();
        gap.push(0.5, 1.0, 1);
        assert_eq!(gap.summary(10.0), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 99.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12); // (8.25 - 2.75) / 5.5
    }
}
