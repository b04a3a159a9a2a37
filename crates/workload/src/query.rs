//! Location-query generators.
//!
//! Routing workload in GeoGrid comes from location queries traversing the
//! overlay. The generator draws query *target* points — either uniformly
//! or biased toward the hot-spot field (queries concentrate where the
//! action is, per the paper's Super-Bowl parking example) — plus a query
//! rectangle around each target.

use geogrid_geometry::{Point, Region, Space};
use rand::Rng;

use crate::hotspot::HotSpotField;
use crate::placement::uniform_point;

/// A generated location query: a spatial query region and its center.
///
/// The paper tags each request with the coordinate `(x, y)` representing
/// its spatial query region `(x, y, W, H)`; routing aims at the center
/// point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneratedQuery {
    /// Center of the query region (the routing target).
    pub target: Point,
    /// The rectangular spatial query region.
    pub region: Region,
}

/// Draws query targets and rectangles over a space.
///
/// # Examples
///
/// ```
/// use geogrid_geometry::Space;
/// use geogrid_workload::{HotSpotField, QueryGenerator};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(9);
/// let space = Space::paper_evaluation();
/// let field = HotSpotField::random(&mut rng, space, 4);
/// let mut gen = QueryGenerator::new(space).hotspot_bias(0.8);
/// let q = gen.generate(&mut rng, &field);
/// assert!(space.covers(q.target));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QueryGenerator {
    space: Space,
    bias: f64,
}

/// Side-length range of a query rectangle, in miles.
const EXTENT: std::ops::RangeInclusive<f64> = 0.25..=2.0;

impl QueryGenerator {
    /// A generator with no hot-spot bias; query rectangles are between
    /// 0.25 and 2 miles on a side.
    pub fn new(space: Space) -> Self {
        Self { space, bias: 0.0 }
    }

    /// Sets the probability that a query targets the hot-spot field rather
    /// than a uniform location.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is outside `[0, 1]`.
    pub fn hotspot_bias(mut self, bias: f64) -> Self {
        assert!((0.0..=1.0).contains(&bias), "bias must be a probability");
        self.bias = bias;
        self
    }

    /// Draws one query.
    ///
    /// A hot-spot-biased target picks a spot (weighted by radius, larger
    /// spots attract more queries), then a point inside it with the same
    /// linear density the workload field uses. Falls back to uniform when
    /// the field is empty.
    pub fn generate<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        field: &HotSpotField,
    ) -> GeneratedQuery {
        let target = if !field.is_empty() && rng.random::<f64>() < self.bias {
            self.sample_hotspot_target(rng, field)
        } else {
            uniform_point(rng, self.space)
        };
        let w = rng.random_range(EXTENT);
        let h = rng.random_range(EXTENT);
        let region = Region::new(target.x - w / 2.0, target.y - h / 2.0, w, h);
        GeneratedQuery { target, region }
    }

    fn sample_hotspot_target<R: Rng + ?Sized>(&self, rng: &mut R, field: &HotSpotField) -> Point {
        let total: f64 = field.spots().iter().map(|s| s.radius()).sum();
        let mut pick = rng.random_range(0.0..total);
        let mut chosen = field.spots()[field.len() - 1];
        for spot in field.spots() {
            if pick < spot.radius() {
                chosen = *spot;
                break;
            }
            pick -= spot.radius();
        }
        // Radial density proportional to (1 - d/r): inverse-CDF sampling of
        // d/r from density f(u) ∝ u(1-u) on [0, 1] via rejection (cheap and
        // exact).
        loop {
            let u: f64 = rng.random();
            let accept: f64 = rng.random();
            if accept <= 4.0 * u * (1.0 - u) {
                let angle = rng.random_range(0.0..std::f64::consts::TAU);
                let d = u * chosen.radius();
                let p = chosen.center().translated(d * angle.cos(), d * angle.sin());
                return self.space.clamp(p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hotspot::HotSpot;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn queries_stay_in_space_and_center_on_target() {
        let space = Space::paper_evaluation();
        let mut rng = SmallRng::seed_from_u64(1);
        let field = HotSpotField::random(&mut rng, space, 3);
        let mut generator = QueryGenerator::new(space).hotspot_bias(0.5);
        for q in (0..500).map(|_| generator.generate(&mut rng, &field)) {
            assert!(space.covers(q.target));
            assert!(q.region.center().distance(q.target) < 1e-9);
        }
    }

    #[test]
    fn full_bias_concentrates_near_spots() {
        let space = Space::paper_evaluation();
        let mut rng = SmallRng::seed_from_u64(2);
        let spot = HotSpot::new(Point::new(48.0, 48.0), 5.0);
        let field = HotSpotField::new(vec![spot]);
        let mut generator = QueryGenerator::new(space).hotspot_bias(1.0);
        let qs: Vec<_> = (0..300)
            .map(|_| generator.generate(&mut rng, &field))
            .collect();
        let near = qs
            .iter()
            .filter(|q| q.target.distance(spot.center()) <= spot.radius() + 1e-9)
            .count();
        assert_eq!(near, 300);
    }

    #[test]
    fn zero_bias_is_uniform() {
        let space = Space::paper_evaluation();
        let mut rng = SmallRng::seed_from_u64(3);
        let spot = HotSpot::new(Point::new(1.0, 1.0), 1.0);
        let field = HotSpotField::new(vec![spot]);
        let mut generator = QueryGenerator::new(space).hotspot_bias(0.0);
        let qs: Vec<_> = (0..500)
            .map(|_| generator.generate(&mut rng, &field))
            .collect();
        let far = qs
            .iter()
            .filter(|q| q.target.distance(spot.center()) > 10.0)
            .count();
        assert!(far > 350, "uniform targets should mostly be far: {far}");
    }

    #[test]
    fn empty_field_falls_back_to_uniform() {
        let space = Space::paper_evaluation();
        let mut rng = SmallRng::seed_from_u64(4);
        let mut generator = QueryGenerator::new(space).hotspot_bias(1.0);
        // Must not panic despite full bias.
        let q = generator.generate(&mut rng, &HotSpotField::default());
        assert!(space.covers(q.target));
    }

    #[test]
    #[should_panic(expected = "bias must be a probability")]
    fn bias_validated() {
        QueryGenerator::new(Space::paper_evaluation()).hotspot_bias(1.5);
    }
}
