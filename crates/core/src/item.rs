//! Recommendation items: `(measure, focus region)` pairs.

use evorec_kb::TermId;
use evorec_measures::{MeasureCategory, MeasureId};

/// The unit of recommendation: *look at this measure, focused on this
/// part of the knowledge base*. Candidates are drawn from the top
/// regions of each measure's report.
#[derive(Clone, Debug, PartialEq)]
pub struct Item {
    /// Which measure to look at.
    pub measure: MeasureId,
    /// The measure's taxonomy category (drives semantic diversity).
    pub category: MeasureCategory,
    /// The schema element the measure flags.
    pub focus: TermId,
    /// The measure's normalised score of `focus` in [0, 1] — how intense
    /// the evolution signal is, independent of any user.
    pub intensity: f64,
}

impl Item {
    /// Build an item.
    pub fn new(
        measure: MeasureId,
        category: MeasureCategory,
        focus: TermId,
        intensity: f64,
    ) -> Item {
        Item {
            measure,
            category,
            focus,
            intensity,
        }
    }

    /// `true` if two items denote the same `(measure, focus)` pair.
    pub fn same_key(&self, other: &Item) -> bool {
        self.measure == other.measure && self.focus == other.focus
    }
}

/// An item together with its user-facing score decomposition.
#[derive(Clone, Debug)]
pub struct ScoredItem {
    /// The recommended item.
    pub item: Item,
    /// Relatedness to the target user/group (§III(a)), in [0, 1]-ish.
    pub relevance: f64,
    /// Novelty w.r.t. the user's history (1 = unseen).
    pub novelty: f64,
    /// Final objective value the selector used.
    pub objective: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u32) -> TermId {
        TermId::from_u32(n)
    }

    #[test]
    fn same_key_ignores_intensity() {
        let a = Item::new(
            MeasureId::new("m"),
            MeasureCategory::ChangeCounting,
            t(1),
            0.5,
        );
        let b = Item::new(
            MeasureId::new("m"),
            MeasureCategory::ChangeCounting,
            t(1),
            0.9,
        );
        let c = Item::new(
            MeasureId::new("m"),
            MeasureCategory::ChangeCounting,
            t(2),
            0.5,
        );
        assert!(a.same_key(&b));
        assert!(!a.same_key(&c));
    }
}
