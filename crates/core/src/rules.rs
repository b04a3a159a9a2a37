//! The §2.3 split, seat and placement rules, the §2.4 trigger and donor
//! rules and the express-routing rule as pure functions. The model
//! ([`join`](crate::join), [`balance`](crate::balance),
//! [`routing`](crate::routing)) builds its candidates from the
//! [`Topology`](crate::Topology), the engine from its own region, its
//! neighbor table and its finger table, and both call the same rule.
//! Nothing here imports the model.

use geogrid_geometry::{Point, Region, Space};

/// The split rule (§2.3): halve `region` along its longer side into
/// `(kept, given)`, where `kept` covers `keeper` (with the space-edge
/// closure: a keeper on the space's west or south edge keeps the low half).
pub fn split(region: &Region, space: &Space, keeper: Point) -> (Region, Region) {
    let (low, high) = region.split_preferred();
    if space.region_covers(&low, keeper) {
        (low, high)
    } else {
        (high, low)
    }
}

/// The seat rule (§2.3, "Node Join"): the stronger of two nodes takes the
/// primary seat, and on a tie the `incumbent` keeps it. Returns
/// `(primary, secondary)`. Read the other way, `.1` is the weaker node,
/// ties going to the `challenger`: "a dual-peer joiner pairs with the
/// weaker half-owner, on a tie with the primary's half" is this rule with
/// the primary's half as the challenger.
pub fn seat<T>(incumbent: T, challenger: T, capacity: impl Fn(&T) -> f64) -> (T, T) {
    if capacity(&challenger) > capacity(&incumbent) {
        (challenger, incumbent)
    } else {
        (incumbent, challenger)
    }
}

/// One region a dual-peer joiner could be placed in.
#[derive(Debug, Clone, Copy)]
pub struct Candidate {
    /// Capacity of the region's primary owner.
    pub capacity: f64,
    /// The region has a free seat the joiner may take.
    pub fillable: bool,
    /// The region may still be split (it is above the extent floor).
    pub splittable: bool,
}

/// Where a dual-peer joiner goes, as an index into the candidate slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Take the free seat of this candidate.
    Fill(usize),
    /// Split this candidate and pair with the weaker half-owner.
    Split(usize),
    /// No candidate can take the joiner: look further out.
    Widen,
}

/// The dual-peer placement rule (§2.3, "Node Join"): fill the fillable
/// candidate whose primary is weakest; if none is fillable, split the
/// splittable candidate whose primary is weakest; otherwise widen the
/// search. Ties go to the earliest candidate in the slice.
pub fn place(candidates: &[Candidate]) -> Placement {
    // `min_by` keeps the first of equal minima.
    let weakest = |admits: fn(&Candidate) -> bool| {
        candidates
            .iter()
            .enumerate()
            .filter(|(_, c)| admits(c))
            .min_by(|(_, a), (_, b)| a.capacity.total_cmp(&b.capacity))
            .map(|(i, _)| i)
    };
    if let Some(i) = weakest(|c| c.fillable) {
        Placement::Fill(i)
    } else if let Some(i) = weakest(|c| c.splittable) {
        Placement::Split(i)
    } else {
        Placement::Widen
    }
}

/// The paper's adaptation trigger ratio, √2 (§2.4).
pub const TRIGGER_RATIO: f64 = std::f64::consts::SQRT_2;

/// The adaptation trigger (§2.4): a region adapts when its workload index
/// is positive and exceeds `ratio ×` the lowest index among its neighbors.
/// With no neighbor index known (`lowest` is `None`) it never adapts.
pub fn overloaded(own: f64, lowest: Option<f64>, ratio: f64) -> bool {
    own > 0.0 && lowest.is_some_and(|lowest| own > ratio * lowest)
}

/// A region that could give its secondary to an overloaded one.
#[derive(Debug, Clone, Copy)]
pub struct Donor<K> {
    /// The last tie-break: the model passes the region id, the engine the
    /// primary's node id.
    pub key: K,
    /// Capacity of the candidate's secondary owner.
    pub secondary: f64,
    /// The candidate's workload index (the engine passes ∞ when unknown).
    pub index: f64,
}

/// Which candidate [`donor`] prefers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DonorChoice {
    /// The least-loaded candidate: mechanisms (a) and (f), and both of the
    /// engine's requests.
    LeastLoaded,
    /// The candidate with the strongest secondary: the model's (e) and (g).
    StrongestSecondary,
}

/// The donor rule (§2.4 (a), (e), (f), (g)): among the candidates whose
/// secondary is stronger than the overloaded region's primary
/// (`own_capacity`), pick by `choice`, ties to the lowest key.
pub fn donor<K: Ord>(
    candidates: impl IntoIterator<Item = Donor<K>>,
    own_capacity: f64,
    choice: DonorChoice,
) -> Option<K> {
    candidates
        .into_iter()
        .filter(|d| d.secondary > own_capacity)
        .min_by(|a, b| {
            match choice {
                DonorChoice::LeastLoaded => a.index.total_cmp(&b.index),
                DonorChoice::StrongestSecondary => b.secondary.total_cmp(&a.secondary),
            }
            .then_with(|| a.key.cmp(&b.key))
        })
        .map(|d| d.key)
}

/// Distance scales per finger direction: one finger per doubling of
/// distance, Kleinberg/Chord-style, from [`finger_base`] (a 1024th of the
/// space side, fine enough that the express phase can hand off within a
/// couple of regions of the target even at 2²⁰ regions) up to the full
/// space side.
pub const FINGER_SCALES: usize = 11;

/// Compass directions fingers are laid along (east, north, west, south).
/// Axial-only coverage is enough for geometric progress: the worst-case
/// off-axis target still shrinks its distance by `sin 45° ≈ 0.71` per
/// hop, inside the express qualification window ([`EXPRESS_DECAY`]).
pub const FINGER_DIRS: usize = 4;

/// Fingers per region ([`FINGER_SCALES`] × [`FINGER_DIRS`]).
pub const FINGER_COUNT: usize = FINGER_SCALES * FINGER_DIRS;

const FINGER_DIR_OFFSETS: [(f64, f64); FINGER_DIRS] =
    [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)];

/// Express qualification: a finger may be followed only if it cuts the
/// remaining rectangle distance to at most this fraction. Guarantees
/// geometric decay (so the express phase is loop-free and `O(log N)`
/// hops) and keeps marginal fingers from displacing a greedy hop that
/// would have made the same progress. Must exceed `sin 45° ≈ 0.707`: the
/// fingers are axial, so a perfectly diagonal target can only shed that
/// fraction per jump along the better axis.
pub const EXPRESS_DECAY: f64 = 0.75;

/// Express engagement gate: the remaining distance must exceed this many
/// current-region diameters before a finger is considered. Within a few
/// diameters the target is a couple of greedy hops away and *any* express
/// detour risks costing more hops than plain greedy saves — that near
/// field is exactly the regime the paper's mesh walk is optimal in.
pub const EXPRESS_ENGAGE: f64 = 4.0;

/// Cap on the express hops of one route. The decay bound alone caps the
/// phase at `log(space/floor) / log(1/EXPRESS_DECAY)` ≈ 35 hops; this is
/// a backstop against float-edge stagnation (and, in the engine, against
/// stale fingers), after which the route finishes greedily.
pub const EXPRESS_MAX_HOPS: usize = 64;

/// The smallest finger distance scale in `space`: a 1024th of its longer
/// side. Express routing hands off to the plain greedy walk once the
/// remaining distance drops below this floor.
pub fn finger_base(space: &Space) -> f64 {
    let b = space.bounds();
    b.width().max(b.height()) / 1024.0
}

/// The point finger `k` of a region centered at `center` aims at:
/// `finger_base · 2^scale` miles along compass direction `dir`
/// (`k = scale * FINGER_DIRS + dir`), clamped into the space. The finger
/// names the region covering this point; none when that is the region
/// itself (near the space boundary, or when the region is larger than the
/// scale).
pub fn finger_point(space: &Space, center: Point, k: usize) -> Point {
    let (scale, dir) = (k / FINGER_DIRS, k % FINGER_DIRS);
    let dist = finger_base(space) * (1u64 << scale) as f64;
    let (dx, dy) = FINGER_DIR_OFFSETS[dir];
    space.clamp(center.translated(dx * dist, dy * dist))
}

/// The express gate at region `here` toward `target`: the distance a
/// qualifying finger must get within, or `None` in the near field (at or
/// below the finger `floor`, or within [`EXPRESS_ENGAGE`] diameters of
/// `here`), where the route is greedy.
pub fn express_cutoff(here: &Region, target: Point, floor: f64) -> Option<f64> {
    let d = here.distance_to_point(target);
    let near = floor.max(EXPRESS_ENGAGE * here.width().max(here.height()));
    (d > near).then_some(EXPRESS_DECAY * d)
}

/// The express rule (§2.2 with long-range links): from region `here`
/// toward `target`, the finger to follow, or `None` for a greedy hop.
/// Past the [`express_cutoff`] gate, the best finger that cuts the
/// remaining rectangle distance to at most [`EXPRESS_DECAY`]× is taken
/// when its greedy key `(closest-point distance, center distance, key)`
/// strictly beats every neighbor's; otherwise plain greedy makes at least
/// the same progress. Each candidate is `(rectangle, key)`, and `center`
/// gives a candidate's center (asked only of qualifying fingers): the
/// model keys by region id and reads its center mirror, the engine keys
/// by node id. Ties go to the earliest finger.
pub fn express<K: PartialOrd + Copy>(
    here: &Region,
    target: Point,
    floor: f64,
    fingers: impl IntoIterator<Item = (Region, K)>,
    neighbors: impl IntoIterator<Item = (Region, K)>,
    center: impl Fn(&Region, K) -> Point,
) -> Option<K> {
    let cutoff = express_cutoff(here, target, floor)?;
    let mut best: Option<(f64, f64, K)> = None;
    for (rect, key) in fingers {
        let rect_d = rect.distance_to_point(target);
        if rect_d > cutoff {
            continue;
        }
        let key = (rect_d, center(&rect, key).distance(target), key);
        if best.is_none_or(|b| key < b) {
            best = Some(key);
        }
    }
    let best = best?;
    let mut best_neighbor: Option<(f64, f64, K)> = None;
    for (rect, key) in neighbors {
        let rect_d = rect.distance_to_point(target);
        let key = (rect_d, center(&rect, key).distance(target), key);
        if best_neighbor.is_none_or(|b| key < b) {
            best_neighbor = Some(key);
        }
    }
    match best_neighbor {
        Some(nb) if best >= nb => None,
        _ => Some(best.2),
    }
}

#[cfg(test)]
mod tests {
    use super::Placement::{Fill, Split, Widen};
    use super::*;

    fn at(capacity: f64, fillable: bool, splittable: bool) -> Candidate {
        Candidate {
            capacity,
            fillable,
            splittable,
        }
    }
    fn half(capacity: f64) -> Candidate {
        at(capacity, true, true)
    }
    fn full(capacity: f64) -> Candidate {
        at(capacity, false, true)
    }
    /// Full, and at the split floor.
    fn floor(capacity: f64) -> Candidate {
        at(capacity, false, false)
    }

    #[test]
    fn each_clause_of_the_rule() {
        let cases = [
            // Fill the weakest fillable candidate.
            (vec![half(10.0), full(5.0), half(1.0)], Fill(2)),
            // A tie goes to the earliest candidate.
            (vec![full(5.0), half(1.0), half(1.0)], Fill(1)),
            // Every candidate full: split the weakest splittable one.
            (vec![full(10.0), full(1.0), full(5.0)], Split(1)),
            // A weaker unsplittable candidate is skipped.
            (vec![full(10.0), floor(1.0), full(5.0)], Split(2)),
            // Nothing fillable or splittable: widen.
            (vec![floor(10.0), floor(1.0)], Widen),
            (vec![], Widen),
        ];
        for (i, (candidates, expected)) in cases.into_iter().enumerate() {
            assert_eq!(place(&candidates), expected, "case {i}");
        }
    }

    #[test]
    fn split_keeps_the_keepers_half_and_a_tied_seat_stays() {
        let (space, p) = (Space::paper_evaluation(), Point::new);
        let (all, (low, high)) = (space.bounds(), space.bounds().split_preferred());
        assert_eq!(split(&all, &space, p(50.0, 50.0)), (high, low));
        // The space-edge closure: the corner belongs to the low half.
        assert_eq!(split(&all, &space, p(0.0, 0.0)), (low, high));
        let cap = |&(_, c): &(char, f64)| c;
        assert_eq!(seat(('a', 1.0), ('b', 2.0), cap), (('b', 2.0), ('a', 1.0)));
        assert_eq!(seat(('a', 1.0), ('b', 1.0), cap), (('a', 1.0), ('b', 1.0)));
    }

    #[test]
    fn trigger_needs_a_positive_index_above_the_ratio() {
        assert!(overloaded(1.5, Some(1.0), TRIGGER_RATIO));
        assert!(!overloaded(1.4, Some(1.0), TRIGGER_RATIO));
        assert!(!overloaded(1.0, None, TRIGGER_RATIO));
        assert!(!overloaded(0.0, Some(0.0), TRIGGER_RATIO));
        assert!(overloaded(1e-9, Some(0.0), TRIGGER_RATIO));
    }

    #[test]
    fn each_donor_choice() {
        let d = |key, secondary, index| Donor {
            key,
            secondary,
            index,
        };
        let candidates = [
            d(4, 5.0, 0.1),
            d(3, 50.0, 2.0),
            d(2, 20.0, 1.0),
            d(1, 50.0, 3.0),
        ];
        let pick = |own, choice| donor(candidates, own, choice);
        // Secondaries no stronger than our primary are skipped.
        assert_eq!(pick(5.0, DonorChoice::LeastLoaded), Some(2));
        assert_eq!(pick(50.0, DonorChoice::LeastLoaded), None);
        // The strongest secondary wins; equal ones go to the lowest key.
        assert_eq!(pick(5.0, DonorChoice::StrongestSecondary), Some(1));
        // An unknown (infinite) index loses to any known one.
        let unknown = [d(1, 50.0, f64::INFINITY), d(2, 50.0, 9.0)];
        assert_eq!(donor(unknown, 1.0, DonorChoice::LeastLoaded), Some(2));
    }
}
