//! Node placement.
//!
//! GeoGrid maps nodes to the regions covering their physical coordinates,
//! so *where* nodes sit shapes the partition. The paper's evaluation places
//! nodes uniformly over the plane; query targets off the hot spots use the
//! same draw.

use geogrid_geometry::{Point, Space};
use rand::Rng;

/// Draws one point uniformly over `space`, bounds included.
///
/// # Examples
///
/// ```
/// use geogrid_geometry::Space;
/// use geogrid_workload::placement::uniform_point;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(2);
/// let space = Space::paper_evaluation();
/// assert!(space.covers(uniform_point(&mut rng, space)));
/// ```
pub fn uniform_point<R: Rng + ?Sized>(rng: &mut R, space: Space) -> Point {
    let b = space.bounds();
    Point::new(
        rng.random_range(b.x()..=b.east()),
        rng.random_range(b.y()..=b.north()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_spreads_over_quadrants() {
        let space = Space::paper_evaluation();
        let mut rng = SmallRng::seed_from_u64(2);
        let pts: Vec<Point> = (0..4000).map(|_| uniform_point(&mut rng, space)).collect();
        let q = |f: &dyn Fn(&Point) -> bool| pts.iter().filter(|p| f(p)).count();
        let nw = q(&|p| p.x < 32.0 && p.y >= 32.0);
        let se = q(&|p| p.x >= 32.0 && p.y < 32.0);
        assert!((nw as f64 - 1000.0).abs() < 150.0);
        assert!((se as f64 - 1000.0).abs() < 150.0);
    }
}
