//! # evorec-bench — the experiment harness
//!
//! Prints one markdown table per experiment. The paper is a vision
//! paper without an evaluation section, so each experiment
//! operationalises a sentence-level claim:
//!
//! | Id | Claim | Generator |
//! |----|-------|-----------|
//! | E1 | deltas bury humans; measures give overviews | [`experiments::e1`] |
//! | E2 | measures are feasible at KB scale | [`experiments::e2`] |
//! | E3 | measures are complementary viewpoints | [`experiments::e3`] |
//! | E4 | importance shift beats raw counting | [`experiments::e4`] |
//! | E5 | relatedness personalisation pays | [`experiments::e5`] |
//! | E6 | diversity is a set property (MMR sweep) | [`experiments::e6`] |
//! | E7 | group fairness strategies differ | [`experiments::e7`] |
//! | E8 | anonymity/utility trade-off | [`experiments::e8`] |
//! | E9 | transparency + archiving overheads | [`experiments::e9`] |
//! | E10 | neighbourhood radius ablation | [`experiments::e10`] |
//! | E11 | the feedback loop converges | [`experiments::e11`] |
//! | E12 | timelines surface change trends | [`experiments::e12`] |
//!
//! Run all of them with `cargo run -p evorec-bench --bin experiments
//! --release`, or a subset: `… --bin experiments e4 e8`.
//! Criterion micro-benchmarks live under `benches/`.

#![warn(missing_docs)]

pub mod experiments;
pub mod table;
