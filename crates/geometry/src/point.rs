//! Points in the GeoGrid coordinate plane.

use std::fmt;
use std::ops::{Add, Sub};

/// A point in the two-dimensional geographic coordinate space.
///
/// `x` is the longitude-like axis and `y` the latitude-like axis; the
/// paper's evaluation uses plain miles over a 64 × 64 plane, so no spherical
/// correction is applied.
///
/// # Examples
///
/// ```
/// use geogrid_geometry::Point;
///
/// let a = Point::new(0.0, 0.0);
/// let b = Point::new(3.0, 4.0);
/// assert_eq!(a.distance(b), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Longitude-axis coordinate.
    pub x: f64,
    /// Latitude-axis coordinate.
    pub y: f64,
}

impl Point {
    /// Creates a point from its two coordinates.
    pub fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Euclidean distance to `other`.
    pub fn distance(self, other: Point) -> f64 {
        self.distance_squared(other).sqrt()
    }

    /// Squared Euclidean distance (avoids the square root when only
    /// comparisons are needed, e.g. greedy routing decisions).
    pub fn distance_squared(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// The point translated by `(dx, dy)`.
    pub fn translated(self, dx: f64, dy: f64) -> Point {
        Point::new(self.x + dx, self.y + dy)
    }

    /// Whether both coordinates are finite.
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl Add for Point {
    type Output = Point;

    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point {
    type Output = Point;

    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.4}, {:.4})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = Point::new(1.5, -2.5);
        let b = Point::new(-4.0, 7.0);
        assert_eq!(a.distance(b), b.distance(a));
        assert_eq!(a.distance(a), 0.0);
    }

    #[test]
    fn add_sub_round_trip() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(0.5, -0.25);
        assert_eq!(a + b - b, a);
    }

    #[test]
    fn from_tuple() {
        let p: Point = (3.0, 4.0).into();
        assert_eq!(p, Point::new(3.0, 4.0));
    }

    #[test]
    fn finite_check() {
        assert!(Point::new(1.0, 2.0).is_finite());
        assert!(!Point::new(f64::NAN, 0.0).is_finite());
        assert!(!Point::new(0.0, f64::INFINITY).is_finite());
    }

    #[test]
    fn display_nonempty() {
        assert!(!format!("{}", Point::new(0.0, 0.0)).is_empty());
    }
}
