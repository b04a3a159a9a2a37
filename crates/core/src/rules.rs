//! The §2.3 decision rules as pure functions over candidate lists. The
//! model ([`join`](crate::join)) builds its candidates from the
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
}
