//! Circular areas: query regions and hot spots.

use std::fmt;

use crate::{Point, Region};

/// A circular area of the plane.
///
/// The paper uses circles in two places: query regions specified "in a
/// circle with radius γ" (represented for routing as the bounding rectangle
/// `(x, y, 2γ, 2γ)`), and the circular query hot spots of the evaluation
/// whose workload decays linearly from the center (`1 − d/r`).
///
/// # Examples
///
/// ```
/// use geogrid_geometry::{Circle, Point};
///
/// let c = Circle::new(Point::new(0.0, 0.0), 2.0);
/// assert!(c.contains(Point::new(1.0, 1.0)));
/// assert!(!c.contains(Point::new(2.0, 2.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Circle {
    center: Point,
    radius: f64,
}

impl Circle {
    /// Creates a circle from center and radius.
    ///
    /// # Panics
    ///
    /// Panics if the radius is not strictly positive and finite, or the
    /// center is non-finite.
    pub fn new(center: Point, radius: f64) -> Self {
        assert!(center.is_finite(), "circle center must be finite");
        assert!(
            radius.is_finite() && radius > 0.0,
            "circle radius must be positive, got {radius}"
        );
        Self { center, radius }
    }

    /// Center point.
    pub fn center(&self) -> Point {
        self.center
    }

    /// Radius.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Whether `p` lies strictly inside the circle (`d < r`).
    ///
    /// The paper's hot-spot model gives border cells workload 0, so the
    /// border is treated as outside.
    pub fn contains(&self, p: Point) -> bool {
        self.center.distance_squared(p) < self.radius * self.radius
    }

    /// The paper's rectangular representation of a circular query region:
    /// `(x, y, 2γ, 2γ)` centered on the circle.
    pub fn bounding_region(&self) -> Region {
        Region::new(
            self.center.x - self.radius,
            self.center.y - self.radius,
            2.0 * self.radius,
            2.0 * self.radius,
        )
    }

    /// The circle translated by `(dx, dy)`.
    pub fn translated(&self, dx: f64, dy: f64) -> Circle {
        Circle::new(self.center.translated(dx, dy), self.radius)
    }

    /// Normalized linear-decay weight of `p`: `1 − d/r` inside the circle,
    /// 0 outside. This is exactly the paper's hot-spot workload formula.
    pub fn linear_decay(&self, p: Point) -> f64 {
        let d = self.center.distance(p);
        if d >= self.radius {
            0.0
        } else {
            1.0 - d / self.radius
        }
    }
}

impl fmt::Display for Circle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "circle({}, r={:.4})", self.center, self.radius)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn containment_is_strict() {
        let c = Circle::new(Point::new(0.0, 0.0), 1.0);
        assert!(c.contains(Point::new(0.0, 0.0)));
        assert!(!c.contains(Point::new(1.0, 0.0))); // on the border
        assert!(!c.contains(Point::new(0.8, 0.8)));
    }

    #[test]
    fn linear_decay_profile() {
        let c = Circle::new(Point::new(0.0, 0.0), 10.0);
        assert_eq!(c.linear_decay(Point::new(0.0, 0.0)), 1.0);
        assert!((c.linear_decay(Point::new(5.0, 0.0)) - 0.5).abs() < 1e-12);
        assert_eq!(c.linear_decay(Point::new(10.0, 0.0)), 0.0);
        assert_eq!(c.linear_decay(Point::new(100.0, 0.0)), 0.0);
    }

    #[test]
    fn bounding_region_matches_paper_form() {
        let c = Circle::new(Point::new(5.0, 7.0), 2.0);
        let r = c.bounding_region();
        assert_eq!(r, Region::new(3.0, 5.0, 4.0, 4.0));
        assert_eq!(r.center(), c.center());
    }

    #[test]
    #[should_panic(expected = "radius must be positive")]
    fn rejects_bad_radius() {
        Circle::new(Point::new(0.0, 0.0), 0.0);
    }

    #[test]
    fn translation_moves_center_only() {
        let c = Circle::new(Point::new(1.0, 1.0), 3.0).translated(2.0, -1.0);
        assert_eq!(c.center(), Point::new(3.0, 0.0));
        assert_eq!(c.radius(), 3.0);
    }
}
