//! Rectangular regions — the unit of ownership in GeoGrid.

use std::fmt;

use crate::Point;

/// Tolerance for edge-coincidence tests.
///
/// Region coordinates are produced by repeated exact halving of the initial
/// space, so equality would normally be exact; the tolerance guards against
/// drift when regions are reconstructed from serialized values.
pub const EDGE_EPS: f64 = 1e-9;

/// Minimum region extent (miles) a split may produce: ~1.6 meters on the
/// paper's 64-mile plane.
///
/// Without a floor, the dual-peer victim rule ("split the region whose
/// primary is weakest") can re-split the same region geometrically until
/// its edges fall below floating-point comparison tolerances. Real
/// deployments need a floor anyway — a region the size of a doormat
/// serves no location-query purpose. When every nearby candidate is at
/// the floor, the join walks outward ring by ring to the nearest region
/// that can still accept or split.
pub const MIN_SPLIT_EXTENT: f64 = 1e-3;

/// Axis along which a region is split in half.
///
/// The paper splits "following a certain ordering of the dimensions such as
/// latitude dimension first and then longitude dimension". Splitting on
/// [`SplitAxis::Latitude`] halves the *height* (a horizontal cut); splitting
/// on [`SplitAxis::Longitude`] halves the *width* (a vertical cut).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SplitAxis {
    /// Horizontal cut: the y-dimension (height) is halved.
    Latitude,
    /// Vertical cut: the x-dimension (width) is halved.
    Longitude,
}

/// A rectangular region of the GeoGrid plane.
///
/// The paper denotes a region as the quadruple `<x, y, width, height>`
/// where `(x, y)` is the south-west corner. Containment is half-open:
/// a point `o` is covered iff `r.x < o.x ≤ r.x + width` and
/// `r.y < o.y ≤ r.y + height` — i.e. a region owns its north/east edges but
/// not its south/west edges, so sibling regions never both cover a boundary
/// point.
///
/// # Examples
///
/// ```
/// use geogrid_geometry::{Point, Region};
///
/// let r = Region::new(0.0, 0.0, 32.0, 16.0);
/// assert!(r.contains(Point::new(32.0, 16.0)));   // north-east corner: in
/// assert!(!r.contains(Point::new(0.0, 8.0)));    // west edge: out
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Region {
    x: f64,
    y: f64,
    width: f64,
    height: f64,
}

impl Region {
    /// Creates a region from its south-west corner and extents.
    ///
    /// # Panics
    ///
    /// Panics if any component is non-finite or either extent is not
    /// strictly positive.
    pub fn new(x: f64, y: f64, width: f64, height: f64) -> Self {
        assert!(
            x.is_finite() && y.is_finite() && width.is_finite() && height.is_finite(),
            "region components must be finite"
        );
        assert!(
            width > 0.0 && height > 0.0,
            "region extents must be positive (got {width} x {height})"
        );
        Self {
            x,
            y,
            width,
            height,
        }
    }

    /// South-west corner x (longitude).
    pub fn x(&self) -> f64 {
        self.x
    }

    /// South-west corner y (latitude).
    pub fn y(&self) -> f64 {
        self.y
    }

    /// Extent along the longitude axis.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Extent along the latitude axis.
    pub fn height(&self) -> f64 {
        self.height
    }

    /// East edge x-coordinate.
    pub fn east(&self) -> f64 {
        self.x + self.width
    }

    /// North edge y-coordinate.
    pub fn north(&self) -> f64 {
        self.y + self.height
    }

    /// Geometric center of the region.
    pub fn center(&self) -> Point {
        Point::new(self.x + self.width / 2.0, self.y + self.height / 2.0)
    }

    /// Area of the region.
    pub fn area(&self) -> f64 {
        self.width * self.height
    }

    /// The paper's containment test: open on the south/west edges, closed
    /// on the north/east edges.
    pub fn contains(&self, p: Point) -> bool {
        self.x < p.x && p.x <= self.east() && self.y < p.y && p.y <= self.north()
    }

    /// Containment with all edges closed. Used for geometric queries where
    /// the half-open convention would spuriously exclude boundary contacts
    /// (e.g. "does this query rectangle touch my region").
    pub fn contains_closed(&self, p: Point) -> bool {
        self.x <= p.x && p.x <= self.east() && self.y <= p.y && p.y <= self.north()
    }

    /// Axis a fresh split of this region should use: the longer dimension,
    /// preferring latitude on ties.
    ///
    /// For the square initial space this reproduces the paper's
    /// latitude-then-longitude alternation exactly, and it keeps aspect
    /// ratios bounded for non-square deployments.
    pub fn preferred_split_axis(&self) -> SplitAxis {
        if self.width > self.height {
            SplitAxis::Longitude
        } else {
            SplitAxis::Latitude
        }
    }

    /// Whether splitting keeps both halves above [`MIN_SPLIT_EXTENT`].
    pub fn is_splittable(&self) -> bool {
        self.width.max(self.height) >= 2.0 * MIN_SPLIT_EXTENT
            && self.width.min(self.height) >= MIN_SPLIT_EXTENT
    }

    /// Splits the region in half along `axis`.
    ///
    /// Returns the pair `(low, high)`: `(south, north)` for a latitude
    /// split, `(west, east)` for a longitude split. The two halves exactly
    /// tile the original region.
    pub fn split(&self, axis: SplitAxis) -> (Region, Region) {
        match axis {
            SplitAxis::Latitude => {
                let half = self.height / 2.0;
                (
                    Region::new(self.x, self.y, self.width, half),
                    Region::new(self.x, self.y + half, self.width, self.height - half),
                )
            }
            SplitAxis::Longitude => {
                let half = self.width / 2.0;
                (
                    Region::new(self.x, self.y, half, self.height),
                    Region::new(self.x + half, self.y, self.width - half, self.height),
                )
            }
        }
    }

    /// Splits along [`Self::preferred_split_axis`].
    pub fn split_preferred(&self) -> (Region, Region) {
        self.split(self.preferred_split_axis())
    }

    /// Attempts to merge with `other` into the rectangle they jointly tile.
    ///
    /// Succeeds only when the union is exactly a rectangle: the regions
    /// share a full edge (same extent on the perpendicular axis) and are
    /// adjacent. This is the inverse of [`Self::split`].
    pub fn merge(&self, other: &Region) -> Option<Region> {
        let eq = |a: f64, b: f64| (a - b).abs() <= EDGE_EPS;
        // Horizontally adjacent (share a vertical edge)?
        if eq(self.y, other.y) && eq(self.height, other.height) {
            if eq(self.east(), other.x) {
                return Some(Region::new(
                    self.x,
                    self.y,
                    self.width + other.width,
                    self.height,
                ));
            }
            if eq(other.east(), self.x) {
                return Some(Region::new(
                    other.x,
                    self.y,
                    self.width + other.width,
                    self.height,
                ));
            }
        }
        // Vertically adjacent (share a horizontal edge)?
        if eq(self.x, other.x) && eq(self.width, other.width) {
            if eq(self.north(), other.y) {
                return Some(Region::new(
                    self.x,
                    self.y,
                    self.width,
                    self.height + other.height,
                ));
            }
            if eq(other.north(), self.y) {
                return Some(Region::new(
                    self.x,
                    other.y,
                    self.width,
                    self.height + other.height,
                ));
            }
        }
        None
    }

    /// The paper's neighbor predicate: true when the intersection of the
    /// two regions is a line segment — a shared edge of positive length.
    /// Corner-only contact and area overlap both return false.
    pub fn touches_edge(&self, other: &Region) -> bool {
        let eq = |a: f64, b: f64| (a - b).abs() <= EDGE_EPS;
        let overlap =
            |lo1: f64, hi1: f64, lo2: f64, hi2: f64| (hi1.min(hi2) - lo1.max(lo2)) > EDGE_EPS;
        let vertical_contact = (eq(self.east(), other.x) || eq(other.east(), self.x))
            && overlap(self.y, self.north(), other.y, other.north());
        let horizontal_contact = (eq(self.north(), other.y) || eq(other.north(), self.y))
            && overlap(self.x, self.east(), other.x, other.east());
        vertical_contact || horizontal_contact
    }

    /// Whether the two regions overlap with positive area.
    pub fn intersects(&self, other: &Region) -> bool {
        self.x < other.east() - EDGE_EPS
            && other.x < self.east() - EDGE_EPS
            && self.y < other.north() - EDGE_EPS
            && other.y < self.north() - EDGE_EPS
    }

    /// The point of this region closest to `p` (clamping `p` to the
    /// rectangle). Used by greedy routing to guarantee per-hop progress.
    pub fn closest_point_to(&self, p: Point) -> Point {
        Point::new(
            p.x.clamp(self.x, self.east()),
            p.y.clamp(self.y, self.north()),
        )
    }

    /// Euclidean distance from `p` to the region (0 when `p` is inside).
    pub fn distance_to_point(&self, p: Point) -> f64 {
        self.closest_point_to(p).distance(p)
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "<{:.4}, {:.4}, {:.4}, {:.4}>",
            self.x, self.y, self.width, self.height
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> Region {
        Region::new(0.0, 0.0, 1.0, 1.0)
    }

    #[test]
    fn containment_is_half_open() {
        let r = unit();
        assert!(r.contains(Point::new(1.0, 1.0)));
        assert!(r.contains(Point::new(0.5, 0.5)));
        assert!(!r.contains(Point::new(0.0, 0.5)));
        assert!(!r.contains(Point::new(0.5, 0.0)));
        assert!(!r.contains(Point::new(1.0001, 0.5)));
    }

    #[test]
    fn split_halves_tile_parent() {
        let r = Region::new(2.0, 4.0, 8.0, 6.0);
        for axis in [SplitAxis::Latitude, SplitAxis::Longitude] {
            let (a, b) = r.split(axis);
            assert!((a.area() + b.area() - r.area()).abs() < 1e-12);
            assert!(a.touches_edge(&b));
            assert_eq!(a.merge(&b), Some(r));
            assert_eq!(b.merge(&a), Some(r));
        }
    }

    #[test]
    fn split_point_membership_is_exclusive() {
        let r = unit();
        let (a, b) = r.split(SplitAxis::Latitude);
        // Points on the internal boundary belong to exactly one half (the
        // south one, which owns its north edge).
        let boundary = Point::new(0.5, 0.5);
        assert!(a.contains(boundary));
        assert!(!b.contains(boundary));
        // Any interior point is in exactly one half.
        let p = Point::new(0.25, 0.75);
        assert!(a.contains(p) ^ b.contains(p));
    }

    #[test]
    fn preferred_axis_alternates_from_square() {
        let square = Region::new(0.0, 0.0, 64.0, 64.0);
        assert_eq!(square.preferred_split_axis(), SplitAxis::Latitude);
        let (south, _) = square.split(SplitAxis::Latitude);
        assert_eq!(south.preferred_split_axis(), SplitAxis::Longitude);
        let (west, _) = south.split(SplitAxis::Longitude);
        assert_eq!(west.preferred_split_axis(), SplitAxis::Latitude);
    }

    #[test]
    fn corner_contact_is_not_neighbor() {
        let a = Region::new(0.0, 0.0, 1.0, 1.0);
        let b = Region::new(1.0, 1.0, 1.0, 1.0);
        assert!(!a.touches_edge(&b));
        let c = Region::new(1.0, 0.0, 1.0, 1.0);
        assert!(a.touches_edge(&c));
    }

    #[test]
    fn partial_edge_overlap_is_neighbor() {
        let a = Region::new(0.0, 0.0, 1.0, 1.0);
        let b = Region::new(1.0, 0.5, 1.0, 2.0);
        assert!(a.touches_edge(&b));
        assert!(b.touches_edge(&a));
    }

    #[test]
    fn area_overlap_is_not_edge_contact() {
        let a = Region::new(0.0, 0.0, 2.0, 2.0);
        let b = Region::new(1.0, 1.0, 2.0, 2.0);
        assert!(a.intersects(&b));
        assert!(!a.touches_edge(&b));
    }

    #[test]
    fn merge_rejects_non_rectangles() {
        let a = Region::new(0.0, 0.0, 1.0, 1.0);
        let taller = Region::new(1.0, 0.0, 1.0, 2.0);
        assert_eq!(a.merge(&taller), None);
        let gap = Region::new(2.0, 0.0, 1.0, 1.0);
        assert_eq!(a.merge(&gap), None);
        assert_eq!(a.merge(&a), None);
    }

    #[test]
    fn closest_point_and_distance() {
        let r = unit();
        assert_eq!(r.distance_to_point(Point::new(0.5, 0.5)), 0.0);
        assert_eq!(
            r.closest_point_to(Point::new(2.0, 0.5)),
            Point::new(1.0, 0.5)
        );
        assert!((r.distance_to_point(Point::new(2.0, 0.5)) - 1.0).abs() < 1e-12);
        // Diagonal case.
        assert!((r.distance_to_point(Point::new(4.0, 5.0)) - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "extents must be positive")]
    fn rejects_zero_width() {
        Region::new(0.0, 0.0, 0.0, 1.0);
    }

    #[test]
    fn display_matches_paper_quadruple() {
        let r = Region::new(1.0, 2.0, 3.0, 4.0);
        assert_eq!(format!("{r}"), "<1.0000, 2.0000, 3.0000, 4.0000>");
    }
}
