//! Property-based tests for the workload models.

use geogrid_geometry::{Point, Region, Space};
use geogrid_workload::placement::uniform_point;
use geogrid_workload::{CapacityProfile, HotSpot, HotSpotField, WorkloadGrid};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Capacity samples always come from the profile's levels.
    #[test]
    fn capacities_are_always_profile_levels(seed in any::<u64>(), n in 1usize..200) {
        let profile = CapacityProfile::gnutella();
        let levels: Vec<f64> = profile.levels().collect();
        let mut rng = SmallRng::seed_from_u64(seed);
        for c in (0..n).map(|_| profile.sample(&mut rng)) {
            prop_assert!(levels.contains(&c), "capacity {c} not a level");
        }
    }

    /// Hot-spot migration keeps the radius constant, the step within
    /// (0, 2r], and the center inside the space — for any trajectory.
    #[test]
    fn migration_invariants(seed in any::<u64>(), x in 0.0..64.0, y in 0.0..64.0,
                            r in 0.1..10.0, steps in 1usize..50) {
        let space = Space::paper_evaluation();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut spot = HotSpot::new(Point::new(x, y), r);
        for _ in 0..steps {
            let before = spot.center();
            spot.migrate(&mut rng, space);
            prop_assert_eq!(spot.radius(), r);
            prop_assert!(space.covers(spot.center()));
            // Clamping can only shorten the step, never lengthen it.
            prop_assert!(before.distance(spot.center()) <= 2.0 * r + 1e-9);
        }
    }

    /// The grid's per-region sums equal its total for any binary-split
    /// partition depth, for any field.
    #[test]
    fn grid_mass_is_partition_invariant(seed in any::<u64>(), spots in 1usize..6,
                                        depth in 0usize..6) {
        let space = Space::paper_evaluation();
        let mut rng = SmallRng::seed_from_u64(seed);
        let field = HotSpotField::random(&mut rng, space, spots);
        let grid = WorkloadGrid::from_field(space, 1.0, &field);
        let mut leaves = vec![space.bounds()];
        for _ in 0..depth {
            leaves = leaves
                .into_iter()
                .flat_map(|r| {
                    let (a, b) = r.split_preferred();
                    [a, b]
                })
                .collect();
        }
        let sum: f64 = leaves.iter().map(|r| grid.region_load(r)).sum();
        prop_assert!((sum - grid.total()).abs() < 1e-9 * grid.total().max(1.0));
    }

    /// Field weight is non-negative everywhere and zero far from all
    /// spots.
    #[test]
    fn field_weight_bounds(seed in any::<u64>(), spots in 1usize..8,
                           px in 0.0..64.0, py in 0.0..64.0) {
        let space = Space::paper_evaluation();
        let mut rng = SmallRng::seed_from_u64(seed);
        let field = HotSpotField::random(&mut rng, space, spots);
        let w = field.weight(Point::new(px, py));
        prop_assert!(w >= 0.0);
        prop_assert!(w <= spots as f64, "weight {w} exceeds spot count");
        // A point far outside every spot's radius sees zero.
        let far = Point::new(px + 1000.0, py + 1000.0);
        prop_assert_eq!(field.weight(far), 0.0);
    }

    /// Placements always land inside the space.
    #[test]
    fn placements_stay_in_space(seed in any::<u64>(), n in 1usize..100) {
        let space = Space::paper_evaluation();
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..n {
            prop_assert!(space.covers(uniform_point(&mut rng, space)));
        }
    }

    /// region_load of a sub-rectangle never exceeds the enclosing
    /// rectangle's load.
    #[test]
    fn region_load_is_monotone_in_containment(seed in any::<u64>(),
                                              x in 0.0..32.0, y in 0.0..32.0,
                                              w in 1.0..32.0, h in 1.0..32.0) {
        let space = Space::paper_evaluation();
        let mut rng = SmallRng::seed_from_u64(seed);
        let field = HotSpotField::random(&mut rng, space, 5);
        let grid = WorkloadGrid::from_field(space, 0.5, &field);
        let outer = Region::new(x, y, w, h);
        let (inner, _) = outer.split_preferred();
        prop_assert!(grid.region_load(&inner) <= grid.region_load(&outer) + 1e-12);
    }
}
