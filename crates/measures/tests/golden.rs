//! Golden values for step fingerprints and measure scores.
//!
//! The bit-identity tests elsewhere compare two builds made by the same
//! code, so a change to the step digest, to the centralities or to a
//! measure's inputs would move both sides together and go unseen. These
//! tests pin the exact `ContextFingerprint::digest` of several spans
//! (forward, idle, reversed) and the `(term id, f64::to_bits)` report of
//! every standard and extension measure over one hand-built
//! three-version history.

use evorec_kb::{Triple, TripleStore};
use evorec_measures::{
    BetweennessShift, BridgingShift, EvolutionContext, EvolutionMeasure, MeasureRegistry,
};
use evorec_versioning::{VersionId, VersionedStore};

/// Three versions over eight classes: V0 is a two-branch hierarchy with
/// a cross-branch property and a few typed instances; V1 grafts a new
/// leaf, drops one subclass edge and one instance; V2 restores the
/// dropped edge, adds a second property and retypes an instance.
fn history() -> (VersionedStore, [VersionId; 3]) {
    let mut vs = VersionedStore::new();
    let v = *vs.vocab();
    let c: Vec<_> = (0..8).map(|i| vs.intern_iri(format!("http://g/C{i}"))).collect();
    let p: Vec<_> = (0..2).map(|i| vs.intern_iri(format!("http://g/p{i}"))).collect();
    let inst: Vec<_> = (0..5).map(|i| vs.intern_iri(format!("http://g/i{i}"))).collect();
    let sub = |a: usize, b: usize| Triple::new(c[a], v.rdfs_subclassof, c[b]);
    let typed = |i: usize, k: usize| Triple::new(inst[i], v.rdf_type, c[k]);

    let mut s0 = TripleStore::from_triples([
        sub(1, 0),
        sub(2, 0),
        sub(3, 1),
        sub(4, 1),
        sub(5, 2),
        sub(6, 2),
        Triple::new(p[0], v.rdfs_domain, c[3]),
        Triple::new(p[0], v.rdfs_range, c[6]),
        typed(0, 3),
        typed(1, 4),
        typed(2, 6),
        Triple::new(inst[0], p[0], inst[2]),
    ]);
    let v0 = vs.commit_snapshot("v0", s0.clone());

    s0.insert(sub(7, 5));
    s0.remove(&sub(4, 1));
    s0.remove(&typed(1, 4));
    s0.insert(typed(3, 7));
    let v1 = vs.commit_snapshot("v1", s0.clone());

    s0.insert(sub(4, 1));
    s0.insert(Triple::new(p[1], v.rdfs_domain, c[4]));
    s0.insert(Triple::new(p[1], v.rdfs_range, c[7]));
    s0.remove(&typed(2, 6));
    s0.insert(typed(2, 5));
    s0.insert(typed(4, 4));
    let v2 = vs.commit_snapshot("v2", s0);
    (vs, [v0, v1, v2])
}

fn score_bits(measure: &dyn EvolutionMeasure, ctx: &EvolutionContext) -> Vec<(u32, u64)> {
    measure
        .compute(ctx)
        .scores()
        .iter()
        .map(|&(term, score)| (term.as_u32(), score.to_bits()))
        .collect()
}

#[test]
fn step_digests_are_pinned() {
    let (vs, [v0, v1, v2]) = history();
    let digest = |from, to| EvolutionContext::build(&vs, from, to).fingerprint().digest;
    let got = [
        digest(v0, v1),
        digest(v1, v2),
        digest(v0, v2),
        digest(v2, v2),
        digest(v2, v0),
    ];
    assert_eq!(
        got,
        [
            0x4259_6dd9_9dce_212f, // V0 → V1
            0xfeb1_4114_59e1_d138, // V1 → V2
            0x86c8_e921_8416_99aa, // V0 → V2
            0x4a41_29fc_fa84_0bad, // V2 → V2, idle
            0x9d89_6531_ac94_143c, // V2 → V0, reversed
        ]
    );
}

#[test]
fn structural_shift_scores_are_pinned() {
    let (vs, [v0, _, v2]) = history();
    let ctx = EvolutionContext::build(&vs, v0, v2);
    let betweenness = score_bits(&BetweennessShift, &ctx);
    let bridging = score_bits(&BridgingShift, &ctx);
    assert_eq!(
        betweenness,
        [
            (0x11, 0x4012_0000_0000_0000),
            (0x0c, 0x4004_0000_0000_0000),
            (0x0e, 0x4004_0000_0000_0000),
            (0x0f, 0x4000_0000_0000_0000),
            (0x10, 0x3ff8_0000_0000_0000),
            (0x12, 0x3ff8_0000_0000_0000),
            (0x13, 0x3ff8_0000_0000_0000),
            (0x0d, 0x3ff0_0000_0000_0000),
        ]
    );
    assert_eq!(
        bridging,
        [
            (0x0c, 0x3ffe_0000_0000_0000),
            (0x11, 0x3ff4_9249_2492_4925),
            (0x10, 0x3fec_cccc_cccc_ccce),
            (0x13, 0x3fec_cccc_cccc_ccce),
            (0x12, 0x3fea_6666_6666_6668),
            (0x0d, 0x3fd0_0000_0000_0000),
            (0x0e, 0x3fc0_0000_0000_0000),
            (0x0f, 0x3fad_41d4_1d41_d420),
        ]
    );
}

/// Every standard measure's report over V0 → V2, in registry order.
const V0_V2: &[(&str, &[(u32, u64)])] = &[
    (
        "class-change-count",
        &[
            (0x10, 0x4008_0000_0000_0000),
            (0x13, 0x4008_0000_0000_0000),
            (0x11, 0x4000_0000_0000_0000),
            (0x12, 0x3ff0_0000_0000_0000),
            (0x0c, 0x0000_0000_0000_0000),
            (0x0d, 0x0000_0000_0000_0000),
            (0x0e, 0x0000_0000_0000_0000),
            (0x0f, 0x0000_0000_0000_0000),
        ],
    ),
    (
        "property-change-count",
        &[(0x15, 0x4000_0000_0000_0000), (0x14, 0x0000_0000_0000_0000)],
    ),
    (
        "neighbourhood-change-count-r1",
        &[
            (0x13, 0x4014_0000_0000_0000),
            (0x0d, 0x4008_0000_0000_0000),
            (0x0e, 0x4008_0000_0000_0000),
            (0x0f, 0x4008_0000_0000_0000),
            (0x10, 0x4008_0000_0000_0000),
            (0x11, 0x4008_0000_0000_0000),
            (0x0c, 0x0000_0000_0000_0000),
            (0x12, 0x0000_0000_0000_0000),
        ],
    ),
    (
        "neighbourhood-change-count-r2",
        &[
            (0x0d, 0x4022_0000_0000_0000),
            (0x0f, 0x4022_0000_0000_0000),
            (0x11, 0x401c_0000_0000_0000),
            (0x0c, 0x4018_0000_0000_0000),
            (0x0e, 0x4018_0000_0000_0000),
            (0x10, 0x4014_0000_0000_0000),
            (0x13, 0x4014_0000_0000_0000),
            (0x12, 0x4000_0000_0000_0000),
        ],
    ),
    (
        "betweenness-shift",
        &[
            (0x11, 0x4012_0000_0000_0000),
            (0x0c, 0x4004_0000_0000_0000),
            (0x0e, 0x4004_0000_0000_0000),
            (0x0f, 0x4000_0000_0000_0000),
            (0x10, 0x3ff8_0000_0000_0000),
            (0x12, 0x3ff8_0000_0000_0000),
            (0x13, 0x3ff8_0000_0000_0000),
            (0x0d, 0x3ff0_0000_0000_0000),
        ],
    ),
    (
        "bridging-shift",
        &[
            (0x0c, 0x3ffe_0000_0000_0000),
            (0x11, 0x3ff4_9249_2492_4925),
            (0x10, 0x3fec_cccc_cccc_ccce),
            (0x13, 0x3fec_cccc_cccc_ccce),
            (0x12, 0x3fea_6666_6666_6668),
            (0x0d, 0x3fd0_0000_0000_0000),
            (0x0e, 0x3fc0_0000_0000_0000),
            (0x0f, 0x3fad_41d4_1d41_d420),
        ],
    ),
    (
        "degree-shift",
        &[
            (0x11, 0x4000_0000_0000_0000),
            (0x13, 0x4000_0000_0000_0000),
            (0x0f, 0x3ff0_0000_0000_0000),
            (0x10, 0x3ff0_0000_0000_0000),
            (0x0c, 0x0000_0000_0000_0000),
            (0x0d, 0x0000_0000_0000_0000),
            (0x0e, 0x0000_0000_0000_0000),
            (0x12, 0x0000_0000_0000_0000),
        ],
    ),
    (
        "in-centrality-shift",
        &[
            (0x11, 0x3fe0_0000_0000_0000),
            (0x12, 0x3fe0_0000_0000_0000),
            (0x0c, 0x0000_0000_0000_0000),
            (0x0d, 0x0000_0000_0000_0000),
            (0x0e, 0x0000_0000_0000_0000),
            (0x0f, 0x0000_0000_0000_0000),
            (0x10, 0x0000_0000_0000_0000),
            (0x13, 0x0000_0000_0000_0000),
        ],
    ),
    (
        "out-centrality-shift",
        &[
            (0x0c, 0x0000_0000_0000_0000),
            (0x0d, 0x0000_0000_0000_0000),
            (0x0e, 0x0000_0000_0000_0000),
            (0x0f, 0x0000_0000_0000_0000),
            (0x10, 0x0000_0000_0000_0000),
            (0x11, 0x0000_0000_0000_0000),
            (0x12, 0x0000_0000_0000_0000),
            (0x13, 0x0000_0000_0000_0000),
        ],
    ),
    (
        "relevance-shift",
        &[
            (0x11, 0x3fdd_9303_fea2_f7e9),
            (0x12, 0x3fd6_2e42_fefa_39ee),
            (0x13, 0x3fc6_2e42_fefa_39ef),
            (0x0f, 0x3fad_9303_fea2_f7e8),
            (0x0c, 0x0000_0000_0000_0000),
            (0x0d, 0x0000_0000_0000_0000),
            (0x0e, 0x0000_0000_0000_0000),
            (0x10, 0x0000_0000_0000_0000),
        ],
    ),
];

/// Every standard measure's report over V1 → V2, in registry order.
const V1_V2: &[(&str, &[(u32, u64)])] = &[
    (
        "class-change-count",
        &[
            (0x10, 0x4008_0000_0000_0000),
            (0x0d, 0x3ff0_0000_0000_0000),
            (0x11, 0x3ff0_0000_0000_0000),
            (0x12, 0x3ff0_0000_0000_0000),
            (0x13, 0x3ff0_0000_0000_0000),
            (0x0c, 0x0000_0000_0000_0000),
            (0x0e, 0x0000_0000_0000_0000),
            (0x0f, 0x0000_0000_0000_0000),
        ],
    ),
    (
        "property-change-count",
        &[(0x15, 0x4000_0000_0000_0000), (0x14, 0x0000_0000_0000_0000)],
    ),
    (
        "neighbourhood-change-count-r1",
        &[
            (0x13, 0x4010_0000_0000_0000),
            (0x0d, 0x4008_0000_0000_0000),
            (0x0f, 0x4008_0000_0000_0000),
            (0x0e, 0x4000_0000_0000_0000),
            (0x10, 0x4000_0000_0000_0000),
            (0x0c, 0x3ff0_0000_0000_0000),
            (0x11, 0x3ff0_0000_0000_0000),
            (0x12, 0x0000_0000_0000_0000),
        ],
    ),
    (
        "neighbourhood-change-count-r2",
        &[
            (0x0f, 0x401c_0000_0000_0000),
            (0x0c, 0x4018_0000_0000_0000),
            (0x0d, 0x4018_0000_0000_0000),
            (0x11, 0x4018_0000_0000_0000),
            (0x13, 0x4014_0000_0000_0000),
            (0x0e, 0x4010_0000_0000_0000),
            (0x10, 0x4008_0000_0000_0000),
            (0x12, 0x4000_0000_0000_0000),
        ],
    ),
    (
        "betweenness-shift",
        &[
            (0x0e, 0x4016_0000_0000_0000),
            (0x0d, 0x4010_0000_0000_0000),
            (0x0f, 0x4008_0000_0000_0000),
            (0x12, 0x4004_0000_0000_0000),
            (0x0c, 0x3ff8_0000_0000_0000),
            (0x10, 0x3ff8_0000_0000_0000),
            (0x13, 0x3ff8_0000_0000_0000),
            (0x11, 0x3fe0_0000_0000_0000),
        ],
    ),
    (
        "bridging-shift",
        &[
            (0x12, 0x3ff6_cccc_cccc_ccce),
            (0x0e, 0x3ff2_0000_0000_0000),
            (0x10, 0x3fec_cccc_cccc_ccce),
            (0x13, 0x3fec_cccc_cccc_ccce),
            (0x0d, 0x3fe8_0000_0000_0000),
            (0x0c, 0x3fe5_9999_9999_999c),
            (0x0f, 0x3fe4_9249_2492_4926),
            (0x11, 0x3fe2_db6d_b6db_6db6),
        ],
    ),
    (
        "degree-shift",
        &[
            (0x10, 0x4000_0000_0000_0000),
            (0x0d, 0x3ff0_0000_0000_0000),
            (0x0f, 0x3ff0_0000_0000_0000),
            (0x11, 0x3ff0_0000_0000_0000),
            (0x13, 0x3ff0_0000_0000_0000),
            (0x0c, 0x0000_0000_0000_0000),
            (0x0e, 0x0000_0000_0000_0000),
            (0x12, 0x0000_0000_0000_0000),
        ],
    ),
    (
        "in-centrality-shift",
        &[
            (0x11, 0x3fe0_0000_0000_0000),
            (0x12, 0x3fe0_0000_0000_0000),
            (0x0c, 0x0000_0000_0000_0000),
            (0x0d, 0x0000_0000_0000_0000),
            (0x0e, 0x0000_0000_0000_0000),
            (0x0f, 0x0000_0000_0000_0000),
            (0x10, 0x0000_0000_0000_0000),
            (0x13, 0x0000_0000_0000_0000),
        ],
    ),
    (
        "out-centrality-shift",
        &[
            (0x0c, 0x0000_0000_0000_0000),
            (0x0d, 0x0000_0000_0000_0000),
            (0x0e, 0x0000_0000_0000_0000),
            (0x0f, 0x0000_0000_0000_0000),
            (0x10, 0x0000_0000_0000_0000),
            (0x11, 0x0000_0000_0000_0000),
            (0x12, 0x0000_0000_0000_0000),
            (0x13, 0x0000_0000_0000_0000),
        ],
    ),
    (
        "relevance-shift",
        &[
            (0x11, 0x3fdd_9303_fea2_f7e9),
            (0x12, 0x3fd6_2e42_fefa_39ee),
            (0x13, 0x3fc6_2e42_fefa_39ef),
            (0x0d, 0x3fad_9303_fea2_f7ea),
            (0x0f, 0x3fad_9303_fea2_f7e8),
            (0x0c, 0x0000_0000_0000_0000),
            (0x0e, 0x0000_0000_0000_0000),
            (0x10, 0x0000_0000_0000_0000),
        ],
    ),
];

#[test]
fn standard_measure_scores_are_pinned() {
    let (vs, [v0, v1, v2]) = history();
    let registry = MeasureRegistry::standard();
    for (from, pinned) in [(v0, V0_V2), (v1, V1_V2)] {
        let ctx = EvolutionContext::build(&vs, from, v2);
        let pinned_ids: Vec<_> = pinned.iter().map(|&(id, _)| id.into()).collect();
        assert_eq!(registry.ids(), pinned_ids, "registry order");
        for (measure, &(id, bits)) in registry.all().iter().zip(pinned) {
            assert_eq!(
                score_bits(measure.as_ref(), &ctx),
                bits,
                "{id} over {from} → {v2}"
            );
        }
    }
}

/// The reports of the three measures [`MeasureRegistry::extended`] adds
/// to the standard catalogue, in registry order, over V0 → V2 and
/// V1 → V2.
const EXTENSIONS_V0_V2: &[(&str, &[(u32, u64)])] = &[
    (
        "property-importance-shift",
        &[(0x14, 0x0000_0000_0000_0000), (0x15, 0x0000_0000_0000_0000)],
    ),
    (
        "property-neighbourhood-change-count",
        &[(0x15, 0x4018_0000_0000_0000), (0x14, 0x4008_0000_0000_0000)],
    ),
    (
        "instance-entropy-shift",
        &[
            (0x12, 0x3fd7_6fe3_4e3c_040e),
            (0x11, 0x3fd6_2e42_fefa_39ef),
            (0x13, 0x3fd6_2e42_fefa_39ef),
            (0x0f, 0x3f94_1a04_f41c_a1f0),
            (0x10, 0x3f94_1a04_f41c_a1f0),
            (0x0c, 0x0000_0000_0000_0000),
            (0x0d, 0x0000_0000_0000_0000),
            (0x0e, 0x0000_0000_0000_0000),
        ],
    ),
];

const EXTENSIONS_V1_V2: &[(&str, &[(u32, u64)])] = &[
    (
        "property-importance-shift",
        &[(0x14, 0x0000_0000_0000_0000), (0x15, 0x0000_0000_0000_0000)],
    ),
    (
        "property-neighbourhood-change-count",
        &[(0x15, 0x4010_0000_0000_0000), (0x14, 0x4000_0000_0000_0000)],
    ),
    (
        "instance-entropy-shift",
        &[
            (0x12, 0x3fd7_6fe3_4e3c_040e),
            (0x10, 0x3fd6_2e42_fefa_39ef),
            (0x11, 0x3fd6_2e42_fefa_39ef),
            (0x0f, 0x3f94_1a04_f41c_a1f0),
            (0x13, 0x3f94_1a04_f41c_a1f0),
            (0x0c, 0x0000_0000_0000_0000),
            (0x0d, 0x0000_0000_0000_0000),
            (0x0e, 0x0000_0000_0000_0000),
        ],
    ),
];

#[test]
fn extension_measure_scores_are_pinned() {
    let (vs, [v0, v1, v2]) = history();
    let standard = MeasureRegistry::standard().len();
    let registry = MeasureRegistry::extended();
    let extensions = &registry.all()[standard..];
    for (from, pinned) in [(v0, EXTENSIONS_V0_V2), (v1, EXTENSIONS_V1_V2)] {
        let ctx = EvolutionContext::build(&vs, from, v2);
        let ids: Vec<_> = extensions.iter().map(|m| m.id()).collect();
        let pinned_ids: Vec<_> = pinned.iter().map(|&(id, _)| id.into()).collect();
        assert_eq!(ids, pinned_ids, "extension order");
        for (measure, &(id, bits)) in extensions.iter().zip(pinned) {
            assert_eq!(
                score_bits(measure.as_ref(), &ctx),
                bits,
                "{id} over {from} → {v2}"
            );
        }
    }
}
