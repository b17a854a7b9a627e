//! Transparent explanations for recommended items.
//!
//! §III(b): "Transparency helps humans to know what is being recorded for
//! them and the evolution process, and how the recorded information is
//! being used." Every recommended item can be explained: which measure
//! fired, how the score decomposes, which concrete delta triples and
//! high-level changes contributed, and — when a provenance ledger is
//! attached — who made those changes, when, and under which justification
//! (observation / inference / belief adoption).

use crate::item::ScoredItem;
use evorec_kb::{TermInterner, Triple};
use evorec_measures::{EvolutionContext, MeasureRegistry};
use evorec_versioning::{ProvenanceLedger, RecordId};

/// A structured explanation of one recommendation.
#[derive(Clone, Debug)]
pub struct Explanation {
    /// The measure that fired.
    pub measure: String,
    /// Human description of what the measure quantifies.
    pub measure_description: String,
    /// Short label of the focus element.
    pub focus_label: String,
    /// Score decomposition: evolution intensity at the focus.
    pub intensity: f64,
    /// Score decomposition: relatedness to the user.
    pub relevance: f64,
    /// Score decomposition: novelty w.r.t. what the user has seen.
    pub novelty: f64,
    /// Rendered high-level changes attributed to the focus.
    pub contributing_changes: Vec<String>,
    /// Up to `max_triples` raw delta triples mentioning the focus
    /// (rendered, with +/− direction).
    pub contributing_triples: Vec<String>,
    /// Provenance records whose deltas touched the focus (ids into the
    /// ledger), oldest first; empty when no ledger was attached.
    pub provenance: Vec<ProvenanceLine>,
}

/// One provenance citation inside an explanation.
#[derive(Clone, Debug)]
pub struct ProvenanceLine {
    /// Ledger record id.
    pub record: RecordId,
    /// Who performed the change.
    pub actor: String,
    /// What activity it was.
    pub activity: String,
    /// Logical timestamp.
    pub timestamp: u64,
    /// The stated justification.
    pub justification: String,
}

impl Explanation {
    /// Render the explanation as human-readable text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Recommended: {} focused on '{}'\n",
            self.measure, self.focus_label
        ));
        out.push_str(&format!("  What it measures: {}\n", self.measure_description));
        out.push_str(&format!(
            "  Why you: relevance {:.3}, novelty {:.1}, evolution intensity {:.3}\n",
            self.relevance, self.novelty, self.intensity
        ));
        if !self.contributing_changes.is_empty() {
            out.push_str("  Contributing changes:\n");
            for line in &self.contributing_changes {
                out.push_str(&format!("    - {line}\n"));
            }
        }
        if !self.contributing_triples.is_empty() {
            out.push_str("  Raw delta evidence:\n");
            for line in &self.contributing_triples {
                out.push_str(&format!("    {line}\n"));
            }
        }
        if !self.provenance.is_empty() {
            out.push_str("  Provenance:\n");
            for p in &self.provenance {
                out.push_str(&format!(
                    "    - t{}: {} ({}) by {}, justified by {}\n",
                    p.timestamp, p.activity, p.record.0, p.actor, p.justification
                ));
            }
        }
        out
    }
}

/// Builds [`Explanation`]s from the evaluation context.
pub struct Explainer<'a> {
    ctx: &'a EvolutionContext,
    registry: &'a MeasureRegistry,
    interner: &'a TermInterner,
    ledger: Option<&'a ProvenanceLedger>,
    /// Cap on raw delta triples cited per explanation.
    pub max_triples: usize,
    /// Cap on high-level changes cited per explanation.
    pub max_changes: usize,
}

impl<'a> Explainer<'a> {
    /// Build an explainer without provenance.
    pub fn new(
        ctx: &'a EvolutionContext,
        registry: &'a MeasureRegistry,
        interner: &'a TermInterner,
    ) -> Explainer<'a> {
        Explainer {
            ctx,
            registry,
            interner,
            ledger: None,
            max_triples: 5,
            max_changes: 5,
        }
    }

    /// Attach a provenance ledger (enables the who/when/why section).
    pub fn with_ledger(mut self, ledger: &'a ProvenanceLedger) -> Explainer<'a> {
        self.ledger = Some(ledger);
        self
    }

    /// Explain one scored item.
    pub fn explain(&self, scored: &ScoredItem) -> Explanation {
        let item = &scored.item;
        let measure_description = self
            .registry
            .get(&item.measure)
            .map(|m| m.description())
            .unwrap_or_else(|| "(measure not in registry)".to_string());

        let contributing_changes: Vec<String> = self
            .ctx
            .changes()
            .changes_about(item.focus)
            .take(self.max_changes)
            .map(|c| c.describe(self.interner))
            .collect();

        let render_triple = |t: &Triple, added: bool| {
            format!(
                "{} ({} {} {})",
                if added { "+" } else { "−" },
                self.interner.label(t.s),
                self.interner.label(t.p),
                self.interner.label(t.o),
            )
        };
        let contributing_triples: Vec<String> = self
            .ctx
            .delta
            .triples_for_term(item.focus)
            .iter()
            .take(self.max_triples)
            .map(|(t, added)| render_triple(t, *added))
            .collect();

        let provenance = self
            .ledger
            .map(|ledger| {
                ledger
                    .history_of_term(item.focus)
                    .into_iter()
                    .map(|r| ProvenanceLine {
                        record: r.id,
                        actor: r.actor.clone(),
                        activity: r.activity.clone(),
                        timestamp: r.timestamp,
                        justification: r.justification.to_string(),
                    })
                    .collect()
            })
            .unwrap_or_default();

        Explanation {
            measure: item.measure.to_string(),
            measure_description,
            focus_label: self.interner.label(item.focus),
            intensity: item.intensity,
            relevance: scored.relevance,
            novelty: scored.novelty,
            contributing_changes,
            contributing_triples,
            provenance,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::Item;
    use evorec_kb::{TripleStore, Triple};
    use evorec_measures::{MeasureCategory, MeasureId};
    use evorec_versioning::{Justification, VersionedStore};

    fn setup() -> (
        VersionedStore,
        EvolutionContext,
        ProvenanceLedger,
        evorec_kb::TermId,
    ) {
        let mut vs = VersionedStore::new();
        let a = vs.intern_iri("http://x/onto#Protein");
        let b = vs.intern_iri("http://x/onto#Molecule");
        let c = vs.intern_iri("http://x/onto#Enzyme");
        let v = *vs.vocab();
        let mut s0 = TripleStore::new();
        s0.insert(Triple::new(a, v.rdfs_subclassof, b));
        let v0 = vs.commit_snapshot("v0", s0.clone());
        let mut s1 = s0;
        s1.insert(Triple::new(c, v.rdfs_subclassof, a));
        let v1 = vs.commit_snapshot("v1", s1);

        let mut ledger = ProvenanceLedger::new();
        let delta = vs.delta(v0, v1);
        ledger.record_commit(
            "curator-jane",
            "curation",
            Some(v0),
            v1,
            &delta,
            Justification::Observation,
            "added enzyme subtree",
        );
        let ctx = EvolutionContext::build(&vs, v0, v1);
        (vs, ctx, ledger, a)
    }

    fn scored(focus: evorec_kb::TermId) -> ScoredItem {
        ScoredItem {
            item: Item::new(
                MeasureId::new("class-change-count"),
                MeasureCategory::ChangeCounting,
                focus,
                0.8,
            ),
            relevance: 0.7,
            novelty: 1.0,
            objective: 0.75,
        }
    }

    #[test]
    fn explanation_cites_changes_and_triples() {
        let (vs, ctx, _, a) = setup();
        let registry = MeasureRegistry::standard();
        let explainer = Explainer::new(&ctx, &registry, vs.interner());
        let e = explainer.explain(&scored(a));
        assert_eq!(e.measure, "class-change-count");
        assert!(!e.measure_description.contains("not in registry"));
        assert_eq!(e.focus_label, "Protein");
        assert_eq!(e.contributing_triples.len(), 1);
        assert!(e.contributing_triples[0].starts_with('+'));
        assert!(e.contributing_triples[0].contains("Enzyme"));
        assert!(e.provenance.is_empty(), "no ledger attached");
    }

    #[test]
    fn ledger_enables_provenance_section() {
        let (vs, ctx, ledger, a) = setup();
        let registry = MeasureRegistry::standard();
        let explainer = Explainer::new(&ctx, &registry, vs.interner()).with_ledger(&ledger);
        let e = explainer.explain(&scored(a));
        assert_eq!(e.provenance.len(), 1);
        assert_eq!(e.provenance[0].actor, "curator-jane");
        assert_eq!(e.provenance[0].justification, "observation");
    }

    #[test]
    fn render_contains_all_sections() {
        let (vs, ctx, ledger, a) = setup();
        let registry = MeasureRegistry::standard();
        let explainer = Explainer::new(&ctx, &registry, vs.interner()).with_ledger(&ledger);
        let text = explainer.explain(&scored(a)).render();
        assert!(text.contains("Recommended: class-change-count"));
        assert!(text.contains("Protein"));
        assert!(text.contains("relevance 0.700"));
        assert!(text.contains("Provenance:"));
        assert!(text.contains("curator-jane"));
    }

    #[test]
    fn unknown_measure_handled_gracefully() {
        let (vs, ctx, _, a) = setup();
        let registry = MeasureRegistry::new();
        let explainer = Explainer::new(&ctx, &registry, vs.interner());
        let e = explainer.explain(&scored(a));
        assert!(e.measure_description.contains("not in registry"));
    }

    #[test]
    fn caps_respected() {
        let (vs, ctx, _, a) = setup();
        let registry = MeasureRegistry::standard();
        let mut explainer = Explainer::new(&ctx, &registry, vs.interner());
        explainer.max_triples = 0;
        explainer.max_changes = 0;
        let e = explainer.explain(&scored(a));
        assert!(e.contributing_triples.is_empty());
        assert!(e.contributing_changes.is_empty());
    }
}
