//! Node capacity distributions.
//!
//! The paper: "The capacities of those proxies follow a skewed distribution
//! based on a measurement study of Gnutella P2P network \[12\]". The
//! standard profile derived from that measurement (and used by follow-on
//! work such as GIA) assigns capacities spanning four orders of magnitude:
//!
//! | capacity | fraction |
//! |---|---|
//! | 1 | 20% |
//! | 10 | 45% |
//! | 100 | 30% |
//! | 1 000 | 4.9% |
//! | 10 000 | 0.1% |
//!
//! Figure 4 of the paper itself labels regions with capacities 1/10/100,
//! consistent with this profile.

use rand::Rng;

/// A distribution over node capacities.
///
/// Capacity in GeoGrid quantifies "the amount of resources that node p is
/// willing to dedicate for serving other nodes" — the paper uses available
/// network bandwidth.
///
/// # Examples
///
/// ```
/// use geogrid_workload::CapacityProfile;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
/// let c = CapacityProfile::gnutella().sample(&mut rng);
/// assert!(c >= 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityProfile {
    /// `(capacity, cumulative probability)` pairs, cumulative ascending.
    levels: Vec<(f64, f64)>,
}

impl CapacityProfile {
    /// The Gnutella-derived 5-level skewed profile (see module docs).
    pub fn gnutella() -> Self {
        Self::from_levels(&[
            (1.0, 0.20),
            (10.0, 0.45),
            (100.0, 0.30),
            (1_000.0, 0.049),
            (10_000.0, 0.001),
        ])
    }

    /// A degenerate profile where every node has the same capacity —
    /// useful for isolating the effect of heterogeneity in ablations.
    pub fn homogeneous(capacity: f64) -> Self {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "capacity must be positive, got {capacity}"
        );
        Self::from_levels(&[(capacity, 1.0)])
    }

    /// Builds a profile from `(capacity, probability)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if the list is empty, any capacity is non-positive, any
    /// probability is negative, or the probabilities do not sum to 1
    /// (within 1e-9).
    pub fn from_levels(levels: &[(f64, f64)]) -> Self {
        assert!(
            !levels.is_empty(),
            "capacity profile needs at least one level"
        );
        let mut cumulative = Vec::with_capacity(levels.len());
        let mut acc = 0.0;
        for &(cap, p) in levels {
            assert!(
                cap.is_finite() && cap > 0.0,
                "capacity must be positive, got {cap}"
            );
            assert!(p >= 0.0, "probability must be non-negative, got {p}");
            acc += p;
            cumulative.push((cap, acc));
        }
        assert!(
            (acc - 1.0).abs() < 1e-9,
            "capacity probabilities must sum to 1, got {acc}"
        );
        Self { levels: cumulative }
    }

    /// Draws one capacity.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.random();
        for &(cap, cum) in &self.levels {
            if u <= cum {
                return cap;
            }
        }
        // Guard against floating point never reaching the final cumulative.
        self.levels.last().expect("non-empty").0
    }

    /// The distinct capacity levels, ascending by cumulative probability.
    pub fn levels(&self) -> impl Iterator<Item = f64> + '_ {
        self.levels.iter().map(|&(c, _)| c)
    }

    /// Expected value of the distribution.
    pub fn mean(&self) -> f64 {
        let mut prev = 0.0;
        let mut mean = 0.0;
        for &(cap, cum) in &self.levels {
            mean += cap * (cum - prev);
            prev = cum;
        }
        mean
    }
}

impl Default for CapacityProfile {
    fn default() -> Self {
        Self::gnutella()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn gnutella_levels_and_mean() {
        let p = CapacityProfile::gnutella();
        let levels: Vec<f64> = p.levels().collect();
        assert_eq!(levels, vec![1.0, 10.0, 100.0, 1_000.0, 10_000.0]);
        // 0.2*1 + 0.45*10 + 0.3*100 + 0.049*1000 + 0.001*10000 = 93.7
        assert!((p.mean() - 93.7).abs() < 1e-9);
    }

    #[test]
    fn sample_frequencies_match_profile() {
        let p = CapacityProfile::gnutella();
        let mut rng = SmallRng::seed_from_u64(42);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| p.sample(&mut rng)).collect();
        let frac = |cap: f64| samples.iter().filter(|&&c| c == cap).count() as f64 / n as f64;
        assert!((frac(1.0) - 0.20).abs() < 0.01);
        assert!((frac(10.0) - 0.45).abs() < 0.01);
        assert!((frac(100.0) - 0.30).abs() < 0.01);
        assert!((frac(1_000.0) - 0.049).abs() < 0.005);
        assert!(frac(10_000.0) < 0.005);
    }

    #[test]
    fn homogeneous_always_same() {
        let p = CapacityProfile::homogeneous(5.0);
        let mut rng = SmallRng::seed_from_u64(1);
        assert!((0..100).all(|_| p.sample(&mut rng) == 5.0));
        assert_eq!(p.mean(), 5.0);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn rejects_bad_probabilities() {
        CapacityProfile::from_levels(&[(1.0, 0.5), (2.0, 0.6)]);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn rejects_bad_capacity() {
        CapacityProfile::from_levels(&[(0.0, 1.0)]);
    }

    #[test]
    fn deterministic_under_same_seed() {
        let p = CapacityProfile::gnutella();
        let (mut a, mut b) = (SmallRng::seed_from_u64(9), SmallRng::seed_from_u64(9));
        assert!((0..50).all(|_| p.sample(&mut a) == p.sample(&mut b)));
    }
}
