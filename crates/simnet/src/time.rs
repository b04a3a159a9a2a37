//! Simulated time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in integer microseconds from the
/// start of the simulation.
///
/// Integer time keeps event ordering exact — no floating-point ties.
///
/// # Examples
///
/// ```
/// use geogrid_simnet::SimTime;
///
/// let t = SimTime::from_millis(2) + SimTime::from_micros(500);
/// assert_eq!(t.as_micros(), 2_500);
/// assert!(t > SimTime::ZERO);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time from microseconds.
    pub fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Creates a time from milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Creates a time from seconds.
    pub fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// This time in microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// This time in (fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This time in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }
}

impl Add for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;

    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1_000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1_000));
        assert_eq!(SimTime::from_secs(2).as_secs_f64(), 2.0);
    }

    #[test]
    fn ordering_and_arithmetic() {
        let a = SimTime::from_millis(5);
        let b = SimTime::from_millis(3);
        assert!(a > b);
        assert_eq!(a - b, SimTime::from_millis(2));
        assert_eq!(b + SimTime::from_millis(2), a);
    }

    #[test]
    fn display_formats_millis() {
        assert_eq!(format!("{}", SimTime::from_micros(1_500)), "1.500ms");
    }
}
