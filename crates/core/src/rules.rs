//! The §2.3 placement rule and the §2.4 trigger and donor rules as pure
//! functions over candidate lists. The model ([`join`](crate::join),
//! [`balance`](crate::balance)) builds its candidates from the
//! [`Topology`](crate::Topology), the engine from its own region and its
//! neighbor table, and both call the same rule. Nothing here imports the
//! model.

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
