//! Property-based tests for the geometry crate's core invariants.

use geogrid_geometry::{Circle, GridBuckets, Point, Region, Space, SplitAxis, UniformGrid};
use proptest::prelude::*;

fn arb_point(side: f64) -> impl Strategy<Value = Point> {
    (0.0..=side, 0.0..=side).prop_map(|(x, y)| Point::new(x, y))
}

fn arb_region(side: f64) -> impl Strategy<Value = Region> {
    (0.0..side, 0.0..side, 0.01..side, 0.01..side).prop_map(|(x, y, w, h)| Region::new(x, y, w, h))
}

/// A point at fractions `(fx, fy)` of `r`'s closed extent; fractions of
/// exactly 0 and 1 land on the edges bit for bit.
fn point_in(r: &Region, fx: f64, fy: f64) -> Point {
    Point::new(r.x() + fx * r.width(), r.y() + fy * r.height())
}

/// Edge-heavy fractions: the west/south and east/north edges come up as
/// often as interior points.
fn arb_fraction() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), Just(1.0), 0.0..=1.0]
}

proptest! {
    /// Floor is monotone: every point of a rectangle's closed extent falls
    /// in a cell of its span — the property that makes grid `locate`
    /// exact, including on the space's closed west/south edges. Rects
    /// reach past the bounds on every side.
    #[test]
    fn cell_of_closed_point_lies_in_span(bounds in arb_region(64.0), r in arb_region(96.0),
                                         fx in arb_fraction(), fy in arb_fraction()) {
        let p = point_in(&r, fx, fy);
        let g128 = UniformGrid::<128>::new(bounds);
        let c = g128.cell_of(p);
        prop_assert!(g128.span_contains(&r, c) && g128.span(&r).any(|i| i == c));
        let g64 = UniformGrid::<64>::new(bounds);
        let c = g64.cell_of(p);
        prop_assert!(g64.span_contains(&r, c) && g64.span(&r).any(|i| i == c));
        let space = Space::paper_evaluation().bounds();
        let root = UniformGrid::<128>::new(space);
        prop_assert!(root.span_contains(&space, root.cell_of(point_in(&space, fx, fy))));
    }

    /// Points outside the bounds file where their clamped image does, and a
    /// rect outside the bounds spans only border cells.
    #[test]
    fn outside_points_and_rects_clamp_to_border(bounds in arb_region(64.0),
                                                x in -64.0..192.0f64, y in -64.0..192.0f64) {
        let g = UniformGrid::<64>::new(bounds);
        let p = Point::new(x, y);
        prop_assert_eq!(g.cell_of(p), g.cell_of(bounds.closest_point_to(p)));
        let east = Region::new(bounds.east() + 1.0, y, 5.0, 5.0);
        prop_assert!(g.span(&east).all(|i| i % 64 == 63));
        let south = Region::new(x, bounds.y() - 10.0, 5.0, 5.0);
        prop_assert!(g.span(&south).all(|i| i / 64 == 0));
    }

    /// Filing rects by span and unfiling them leaves every bucket empty,
    /// and each removal reports as many cells as its insert did.
    #[test]
    fn span_insert_then_remove_empties_buckets(bounds in arb_region(64.0),
                                               rects in prop::collection::vec(arb_region(96.0), 1..12)) {
        let mut b = GridBuckets::<u32, 64>::new(bounds);
        let inserted: Vec<usize> = rects
            .iter()
            .enumerate()
            .map(|(v, r)| b.insert_span(r, v as u32))
            .collect();
        for (v, r) in rects.iter().enumerate() {
            prop_assert_eq!(inserted[v], b.grid().span(r).count());
            prop_assert_eq!(b.remove_span(r, v as u32), inserted[v]);
        }
        prop_assert!(b.cells().iter().all(Vec::is_empty));
    }

    /// A move within one cell leaves its bucket exactly as it was (order
    /// included); a move across cells re-files the entry.
    #[test]
    fn move_within_a_cell_touches_nothing(col in 0usize..64, row in 0usize..64,
                                          f in (0.0..0.99f64, 0.0..0.99f64, 0.0..0.99f64, 0.0..0.99f64),
                                          far in arb_point(64.0)) {
        // Unit cells: (col + fraction, row + fraction) stays in cell (col, row).
        let mut b = GridBuckets::<u32, 64>::new(Space::paper_evaluation().bounds());
        let p = Point::new(col as f64 + f.0, row as f64 + f.1);
        let q = Point::new(col as f64 + f.2, row as f64 + f.3);
        prop_assert_eq!(b.grid().cell_of(p), b.grid().cell_of(q));
        for v in 0..4 {
            b.insert_at(p, v);
        }
        let before = b.at(p).to_vec();
        b.move_to(0, p, q);
        prop_assert_eq!(b.at(p), &before[..]);
        b.move_to(0, q, far);
        prop_assert!(b.at(far).contains(&0));
        let left = b.at(p).iter().filter(|&&v| v == 0).count();
        prop_assert_eq!(left, usize::from(b.grid().cell_of(far) == b.grid().cell_of(p)));
    }

    /// Splitting a region always yields two halves that tile it and merge
    /// back into it, on both axes.
    #[test]
    fn split_merge_round_trip(r in arb_region(64.0), lat in any::<bool>()) {
        let axis = if lat { SplitAxis::Latitude } else { SplitAxis::Longitude };
        let (a, b) = r.split(axis);
        prop_assert!((a.area() + b.area() - r.area()).abs() < 1e-9);
        prop_assert!(a.touches_edge(&b));
        prop_assert_eq!(a.merge(&b), Some(r));
    }

    /// Any point covered by a region is covered by exactly one of its split
    /// halves (the paper's half-open rule makes halves disjoint).
    #[test]
    fn split_partitions_points(r in arb_region(64.0), p in arb_point(64.0), lat in any::<bool>()) {
        let axis = if lat { SplitAxis::Latitude } else { SplitAxis::Longitude };
        let (a, b) = r.split(axis);
        let parent = r.contains(p);
        let child_count = a.contains(p) as u32 + b.contains(p) as u32;
        prop_assert_eq!(child_count, parent as u32);
    }

    /// The neighbor predicate is symmetric.
    #[test]
    fn touches_edge_is_symmetric(a in arb_region(64.0), b in arb_region(64.0)) {
        prop_assert_eq!(a.touches_edge(&b), b.touches_edge(&a));
    }

    /// Intersection is commutative and contained in both operands.
    #[test]
    fn intersection_properties(a in arb_region(64.0), b in arb_region(64.0)) {
        let ab = a.intersection(&b);
        let ba = b.intersection(&a);
        prop_assert_eq!(ab.is_some(), ba.is_some());
        if let (Some(ab), Some(ba)) = (ab, ba) {
            prop_assert!((ab.area() - ba.area()).abs() < 1e-9);
            prop_assert!(ab.area() <= a.area() + 1e-9);
            prop_assert!(ab.area() <= b.area() + 1e-9);
        }
    }

    /// The closest point of a region to `p` is inside the region (closed)
    /// and no farther from `p` than any sampled region point.
    #[test]
    fn closest_point_is_closest(r in arb_region(64.0), p in arb_point(64.0)) {
        let c = r.closest_point_to(p);
        prop_assert!(r.contains_closed(c));
        prop_assert!(p.distance(c) <= p.distance(r.center()) + 1e-9);
    }

    /// Repeated preferred splits keep every space point covered by exactly
    /// one leaf region.
    #[test]
    fn recursive_split_tiles_space(p in arb_point(64.0), depth in 1usize..8) {
        let space = Space::paper_evaluation();
        let mut leaves = vec![space.bounds()];
        for _ in 0..depth {
            let mut next = Vec::with_capacity(leaves.len() * 2);
            for leaf in leaves {
                let (a, b) = leaf.split_preferred();
                next.push(a);
                next.push(b);
            }
            leaves = next;
        }
        let covering = leaves.iter().filter(|r| space.region_covers(r, p)).count();
        prop_assert_eq!(covering, 1);
    }

    /// Hot-spot decay is within [0, 1], 1 only at the center, and
    /// monotonically non-increasing with distance.
    #[test]
    fn circle_decay_bounds(c_x in 0.0..64.0, c_y in 0.0..64.0, r in 0.1..10.0,
                           p in arb_point(64.0)) {
        let c = Circle::new(Point::new(c_x, c_y), r);
        let w = c.linear_decay(p);
        prop_assert!((0.0..=1.0).contains(&w));
        // A point strictly farther from the center never has higher weight.
        let farther = Point::new(
            c_x + (p.x - c_x) * 2.0,
            c_y + (p.y - c_y) * 2.0,
        );
        prop_assert!(c.linear_decay(farther) <= w + 1e-12);
    }

    /// A circle's bounding region contains every point of the circle.
    #[test]
    fn bounding_region_contains_circle(c_x in 1.0..63.0, c_y in 1.0..63.0,
                                       r in 0.1..10.0, angle in 0.0..std::f64::consts::TAU) {
        let c = Circle::new(Point::new(c_x, c_y), r);
        let inside = Point::new(
            c_x + 0.99 * r * angle.cos(),
            c_y + 0.99 * r * angle.sin(),
        );
        prop_assert!(c.contains(inside));
        prop_assert!(c.bounding_region().contains_closed(inside));
    }
}

#[test]
fn records_file_into_one_cell_and_move_incrementally() {
    let mut g = GridBuckets::<u32, 64>::new(Region::new(0.0, 0.0, 64.0, 64.0));
    g.insert_at(Point::new(1.2, 1.2), 7);
    assert_eq!(g.at(Point::new(1.2, 1.2)), &[7]);
    // Move within the same cell (cells are 1×1 here): bucket untouched.
    g.move_to(7, Point::new(1.2, 1.2), Point::new(1.8, 1.8));
    assert_eq!(g.at(Point::new(1.2, 1.2)), &[7]);
    // Move across cells: re-filed.
    g.move_to(7, Point::new(1.8, 1.8), Point::new(50.0, 50.0));
    assert!(g.at(Point::new(1.2, 1.2)).is_empty());
    assert_eq!(g.at(Point::new(50.0, 50.0)), &[7]);
}

#[test]
fn spans_cover_their_area_and_clamp_outside_areas() {
    let mut g = GridBuckets::<u32, 64>::new(Region::new(0.0, 0.0, 64.0, 64.0));
    let area = Region::new(10.0, 10.0, 5.0, 5.0);
    g.insert_span(&area, 3);
    assert!(g.at(Point::new(12.0, 12.0)).contains(&3));
    assert!(!g.at(Point::new(40.0, 40.0)).contains(&3));
    g.remove_span(&area, 3);
    assert!(g.at(Point::new(12.0, 12.0)).is_empty());
    // An area entirely outside the bounds clamps to the border cells
    // (a superset listing is safe — exact matches follow).
    let outside = Region::new(100.0, 100.0, 5.0, 5.0);
    g.insert_span(&outside, 4);
    assert!(g.at(Point::new(63.9, 63.9)).contains(&4));
}

#[test]
fn tiny_bounds_stay_usable() {
    let g = UniformGrid::<64>::new(Region::new(5.0, 5.0, 1e-9, 1e-9));
    assert!(g.covers(Point::new(5.0, 5.0)));
    assert_eq!(g.cell_of(Point::new(5.0, 5.0)), 0);
    assert!(!g.covers(Point::new(6.0, 5.0)));
}
