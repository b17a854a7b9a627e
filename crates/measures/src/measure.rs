//! The evolution-measure abstraction.

use crate::context::EvolutionContext;
use crate::report::MeasureReport;
use std::fmt;

/// Stable identifier of a measure (unique within a registry).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct MeasureId(pub String);

impl MeasureId {
    /// Build from any string-ish value.
    pub fn new(id: impl Into<String>) -> MeasureId {
        MeasureId(id.into())
    }

    /// The identifier text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for MeasureId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for MeasureId {
    fn from(s: &str) -> Self {
        MeasureId(s.to_string())
    }
}

/// The paper's §II taxonomy of evolution measures. Categories drive the
/// *semantic* diversity dimension of the recommender (§III(c): "selecting
/// items that belong to different categories and topics").
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum MeasureCategory {
    /// Raw change counting (§II(a)).
    ChangeCounting,
    /// Changes aggregated over neighbourhoods (§II(b)).
    Neighbourhood,
    /// Shifts of structural importance — betweenness, bridging (§II(c)).
    StructuralImportance,
    /// Shifts of semantic importance — centrality, relevance (§II(d)).
    SemanticImportance,
}

impl MeasureCategory {
    /// All categories.
    pub const ALL: [MeasureCategory; 4] = [
        MeasureCategory::ChangeCounting,
        MeasureCategory::Neighbourhood,
        MeasureCategory::StructuralImportance,
        MeasureCategory::SemanticImportance,
    ];

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            MeasureCategory::ChangeCounting => "counting",
            MeasureCategory::Neighbourhood => "neighbourhood",
            MeasureCategory::StructuralImportance => "structural",
            MeasureCategory::SemanticImportance => "semantic",
        }
    }

    /// The inverse of [`label`](MeasureCategory::label): parse a wire
    /// label back into a category (`None` for unknown text). The
    /// round-trip `from_label(c.label()) == Some(c)` holds for every
    /// category — the serving edge's feedback decoder relies on it.
    pub fn from_label(label: &str) -> Option<MeasureCategory> {
        MeasureCategory::ALL.into_iter().find(|c| c.label() == label)
    }
}

impl fmt::Display for MeasureCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What kind of schema element a measure scores.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum TargetKind {
    /// The measure ranks classes.
    Classes,
    /// The measure ranks properties.
    Properties,
}

/// An evolution measure: a pure function from an [`EvolutionContext`] to
/// a ranked score vector over schema elements, quantifying "the intensity
/// of the changes that a piece of a knowledge base underwent".
pub trait EvolutionMeasure: Send + Sync {
    /// Unique identifier.
    fn id(&self) -> MeasureId;
    /// Taxonomy category (§II).
    fn category(&self) -> MeasureCategory;
    /// Whether classes or properties are scored.
    fn target(&self) -> TargetKind;
    /// One-line description for explanations.
    fn description(&self) -> String;
    /// Evaluate over one evolution step.
    fn compute(&self, ctx: &EvolutionContext) -> MeasureReport;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_id_construction_and_display() {
        let id = MeasureId::new("class-change-count");
        assert_eq!(id.as_str(), "class-change-count");
        assert_eq!(id.to_string(), "class-change-count");
        assert_eq!(MeasureId::from("x"), MeasureId::new("x"));
    }

    #[test]
    fn categories_have_distinct_labels() {
        let labels: std::collections::HashSet<_> =
            MeasureCategory::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), MeasureCategory::ALL.len());
    }

    #[test]
    fn category_display_matches_label() {
        for c in MeasureCategory::ALL {
            assert_eq!(c.to_string(), c.label());
        }
    }
}
