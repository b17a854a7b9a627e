//! # evorec-graph — graph analytics over schema graphs
//!
//! The structural-measure substrate of the evolution-measure recommender
//! (ICDE'17 §II(c)). Provides:
//!
//! - [`SchemaGraph`] — a compact undirected class graph with
//!   deterministic dense node indexes;
//! - [`bfs_distances`] / [`k_hop_neighbourhood`] / [`k_hop_sums`] —
//!   traversal primitives behind the neighbourhood measures of §II(b);
//! - [`betweenness`] — exact Brandes betweenness (the §II(c)
//!   Betweenness measure);
//! - [`bridging_centrality`] — Hwang-style bridging centrality
//!   (the §II(c) Bridging Centrality measure);
//! - [`personalised_pagerank`] — spreading activation for the
//!   recommender's relatedness scoring (§III(a));
//! - [`connected_components`] / [`UnionFind`] — topology diagnostics.

#![warn(missing_docs)]

mod betweenness;
mod bfs;
mod bridging;
mod components;
mod graph;
mod pagerank;

pub use betweenness::{betweenness, betweenness_reference};
pub use bfs::{bfs_distances, eccentricity, k_hop_neighbourhood, k_hop_sums, UNREACHABLE};
pub use bridging::{
    bridging_centrality, bridging_centrality_with, bridging_coefficient,
    node_bridging_coefficient,
};
pub use components::{connected_components, Components, UnionFind};
pub use graph::{NodeIx, SchemaGraph};
pub use pagerank::{pagerank, personalised_pagerank, PageRankConfig};
