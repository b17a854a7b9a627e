//! Synthetic knowledge-base generation.
//!
//! Stands in for the DBpedia/Freebase/YAGO dumps the paper motivates
//! with: a subclass *tree* grown by preferential attachment (scale-free-ish degrees, like
//! real ontologies), cross-hierarchy object properties with declared
//! domains/ranges, Zipf-skewed instance extents, and instance-level
//! property links.

use crate::zipf::Zipf;
use evorec_kb::{TermId, Triple, TripleStore};
use evorec_versioning::{VersionId, VersionedStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shape parameters of a generated knowledge base.
#[derive(Clone, Copy, Debug)]
pub struct SchemaConfig {
    /// Number of classes (≥ 1; class 0 is the root).
    pub classes: usize,
    /// Number of object properties.
    pub properties: usize,
    /// Number of instances.
    pub instances: usize,
    /// Zipf exponent skewing instances across classes.
    pub instance_zipf: f64,
    /// Expected instance-level links per instance.
    pub links_per_instance: f64,
    /// RNG seed (generation is fully deterministic given the config).
    pub seed: u64,
}

impl Default for SchemaConfig {
    fn default() -> Self {
        SchemaConfig {
            classes: 100,
            properties: 20,
            instances: 500,
            instance_zipf: 1.0,
            links_per_instance: 2.0,
            seed: 42,
        }
    }
}

/// A generated knowledge base: the versioned store (with the base
/// snapshot committed as V0) plus the ground-truth structure the
/// experiments need.
pub struct GeneratedKb {
    /// The versioned store; V0 holds the base snapshot.
    pub store: VersionedStore,
    /// All classes; index 0 is the tree root.
    pub classes: Vec<TermId>,
    /// Parent of each class in the subclass tree (`None` for the root).
    pub class_parent: Vec<Option<usize>>,
    /// All properties, with their (domain, range) class indexes.
    pub properties: Vec<(TermId, usize, usize)>,
    /// All instances.
    pub instances: Vec<TermId>,
    /// Class index of each instance.
    pub instance_class: Vec<usize>,
    /// The configuration that produced this KB.
    pub config: SchemaConfig,
    /// The id of the base version.
    pub base_version: VersionId,
}

impl GeneratedKb {
    /// Generate a knowledge base per `config`.
    pub fn generate(config: SchemaConfig) -> GeneratedKb {
        assert!(config.classes >= 1, "need at least a root class");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut store = VersionedStore::new();
        let vocab = *store.vocab();
        let mut snapshot = TripleStore::new();

        // Classes: preferential-attachment tree.
        let mut classes = Vec::with_capacity(config.classes);
        let mut class_parent: Vec<Option<usize>> = Vec::with_capacity(config.classes);
        let mut attach_weight: Vec<usize> = Vec::with_capacity(config.classes);
        for ix in 0..config.classes {
            let id = store.intern_iri(format!("http://evorec.example/class/C{ix}"));
            classes.push(id);
            snapshot.insert(Triple::new(id, vocab.rdf_type, vocab.rdfs_class));
            if ix == 0 {
                class_parent.push(None);
                attach_weight.push(1);
            } else {
                // Weight ∝ 1 + current child count: rich get richer.
                let total: usize = attach_weight.iter().sum();
                let mut needle = rng.gen_range(0..total);
                let mut parent = 0usize;
                for (cand, &w) in attach_weight.iter().enumerate() {
                    if needle < w {
                        parent = cand;
                        break;
                    }
                    needle -= w;
                }
                class_parent.push(Some(parent));
                attach_weight[parent] += 1;
                attach_weight.push(1);
                snapshot.insert(Triple::new(id, vocab.rdfs_subclassof, classes[parent]));
            }
        }

        // Properties with random domain/range.
        let mut properties = Vec::with_capacity(config.properties);
        for ix in 0..config.properties {
            let id = store.intern_iri(format!("http://evorec.example/prop/p{ix}"));
            let domain = rng.gen_range(0..config.classes);
            let range = rng.gen_range(0..config.classes);
            snapshot.insert(Triple::new(id, vocab.rdf_type, vocab.owl_object_property));
            snapshot.insert(Triple::new(id, vocab.rdfs_domain, classes[domain]));
            snapshot.insert(Triple::new(id, vocab.rdfs_range, classes[range]));
            properties.push((id, domain, range));
        }

        // Instances, Zipf-skewed across classes.
        let class_pick = Zipf::new(config.classes, config.instance_zipf);
        let mut instances = Vec::with_capacity(config.instances);
        let mut instance_class = Vec::with_capacity(config.instances);
        let mut instances_of_class: Vec<Vec<usize>> = vec![Vec::new(); config.classes];
        for ix in 0..config.instances {
            let id = store.intern_iri(format!("http://evorec.example/inst/i{ix}"));
            let class = class_pick.sample(&mut rng);
            snapshot.insert(Triple::new(id, vocab.rdf_type, classes[class]));
            instances_of_class[class].push(ix);
            instances.push(id);
            instance_class.push(class);
        }

        // Instance links: subject drawn from the property's domain
        // subtree population when possible, object from the range's.
        if !properties.is_empty() && !instances.is_empty() {
            let link_count = (config.instances as f64 * config.links_per_instance) as usize;
            for _ in 0..link_count {
                let (prop, domain, range) = properties[rng.gen_range(0..properties.len())];
                let subject = pick_instance(&instances_of_class, domain, &mut rng)
                    .unwrap_or_else(|| rng.gen_range(0..instances.len()));
                let object = pick_instance(&instances_of_class, range, &mut rng)
                    .unwrap_or_else(|| rng.gen_range(0..instances.len()));
                snapshot.insert(Triple::new(instances[subject], prop, instances[object]));
            }
        }

        let base_version = store.commit_snapshot("base", snapshot);
        GeneratedKb {
            store,
            classes,
            class_parent,
            properties,
            instances,
            instance_class,
            config,
            base_version,
        }
    }

    /// The subclass-tree children of class index `ix`.
    pub fn children_of(&self, ix: usize) -> Vec<usize> {
        self.class_parent
            .iter()
            .enumerate()
            .filter_map(|(c, &p)| (p == Some(ix)).then_some(c))
            .collect()
    }

    /// Class indexes of `ix`'s subtree (including `ix`), BFS order.
    pub fn subtree_of(&self, ix: usize) -> Vec<usize> {
        let mut out = vec![ix];
        let mut cursor = 0;
        while cursor < out.len() {
            let node = out[cursor];
            cursor += 1;
            out.extend(self.children_of(node));
        }
        out
    }

    /// The parent map `class term → parent term` used by the anonymiser.
    pub fn parent_terms(&self) -> evorec_kb::FxHashMap<TermId, TermId> {
        self.class_parent
            .iter()
            .enumerate()
            .filter_map(|(c, &p)| p.map(|p| (self.classes[c], self.classes[p])))
            .collect()
    }

    /// Number of triples in the base snapshot.
    pub fn base_triples(&self) -> usize {
        self.store.snapshot(self.base_version).len()
    }
}

fn pick_instance(
    instances_of_class: &[Vec<usize>],
    class: usize,
    rng: &mut StdRng,
) -> Option<usize> {
    let pool = &instances_of_class[class];
    if pool.is_empty() {
        None
    } else {
        Some(pool[rng.gen_range(0..pool.len())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SchemaConfig {
        SchemaConfig {
            classes: 30,
            properties: 8,
            instances: 100,
            instance_zipf: 1.0,
            links_per_instance: 1.5,
            seed: 7,
        }
    }

    #[test]
    fn generates_requested_shape() {
        let kb = GeneratedKb::generate(small());
        assert_eq!(kb.classes.len(), 30);
        assert_eq!(kb.properties.len(), 8);
        assert_eq!(kb.instances.len(), 100);
        assert_eq!(kb.store.version_count(), 1);
        assert!(kb.base_triples() > 130, "classes + instances + links");
    }

    #[test]
    fn tree_is_rooted_and_acyclic() {
        let kb = GeneratedKb::generate(small());
        assert_eq!(kb.class_parent[0], None);
        for (ix, &parent) in kb.class_parent.iter().enumerate().skip(1) {
            let p = parent.expect("non-root classes have parents");
            assert!(p < ix, "parents precede children, so no cycles");
        }
    }

    #[test]
    fn schema_view_agrees_with_ground_truth() {
        let kb = GeneratedKb::generate(small());
        let view = kb.store.schema_view(kb.base_version);
        for &class in &kb.classes {
            assert!(view.is_class(class));
        }
        for &(prop, _, _) in &kb.properties {
            assert!(view.is_property(prop));
        }
        // Instance extents match the recorded assignment.
        let total: usize = kb
            .classes
            .iter()
            .map(|&c| view.instance_count(c))
            .sum();
        assert_eq!(total, kb.instances.len());
    }

    #[test]
    fn zipf_concentrates_instances() {
        let mut config = small();
        config.instances = 400;
        config.instance_zipf = 1.3;
        let kb = GeneratedKb::generate(config);
        let view = kb.store.schema_view(kb.base_version);
        let mut counts: Vec<usize> = kb
            .classes
            .iter()
            .map(|&c| view.instance_count(c))
            .collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top3: usize = counts.iter().take(3).sum();
        assert!(
            top3 as f64 > 0.35 * 400.0,
            "head classes should dominate: {counts:?}"
        );
    }

    #[test]
    fn determinism_under_same_seed() {
        let a = GeneratedKb::generate(small());
        let b = GeneratedKb::generate(small());
        assert_eq!(
            a.store.snapshot(a.base_version),
            b.store.snapshot(b.base_version)
        );
        let mut diff_seed = small();
        diff_seed.seed = 8;
        let c = GeneratedKb::generate(diff_seed);
        assert_ne!(
            a.store.snapshot(a.base_version),
            c.store.snapshot(c.base_version)
        );
    }

    #[test]
    fn subtree_and_children_consistent() {
        let kb = GeneratedKb::generate(small());
        let sub = kb.subtree_of(0);
        assert_eq!(sub.len(), 30, "root subtree spans every class");
        for child in kb.children_of(0) {
            assert!(sub.contains(&child));
            assert_eq!(kb.class_parent[child], Some(0));
        }
    }

    #[test]
    fn parent_terms_covers_all_non_roots() {
        let kb = GeneratedKb::generate(small());
        let parents = kb.parent_terms();
        assert_eq!(parents.len(), 29);
        assert!(!parents.contains_key(&kb.classes[0]));
    }

    #[test]
    fn minimal_config_works() {
        let kb = GeneratedKb::generate(SchemaConfig {
            classes: 1,
            properties: 0,
            instances: 0,
            instance_zipf: 0.0,
            links_per_instance: 0.0,
            seed: 1,
        });
        assert_eq!(kb.classes.len(), 1);
        assert_eq!(kb.base_triples(), 1, "just the root class declaration");
    }
}
