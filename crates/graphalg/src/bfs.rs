//! Breadth-first traversal: distances, k-hop neighbourhoods and their
//! sums.

use crate::graph::{NodeIx, SchemaGraph};
use std::collections::VecDeque;

/// Distance marker for unreachable nodes.
pub const UNREACHABLE: u32 = u32::MAX;

/// Unweighted shortest-path distances from `source` to every node
/// ([`UNREACHABLE`] where no path exists).
pub fn bfs_distances(g: &SchemaGraph, source: NodeIx) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; g.node_count()];
    let mut queue = VecDeque::new();
    dist[source as usize] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in g.neighbours(u) {
            if dist[v as usize] == UNREACHABLE {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Nodes within `radius` hops of `source`, excluding `source` itself,
/// in ascending index order. Radius 0 yields the empty set; radius 1 the
/// direct neighbours — the per-snapshot neighbourhood of the paper's
/// §II(b), generalised to any radius.
pub fn k_hop_neighbourhood(g: &SchemaGraph, source: NodeIx, radius: u32) -> Vec<NodeIx> {
    if radius == 0 {
        return Vec::new();
    }
    let mut dist = vec![UNREACHABLE; g.node_count()];
    let mut queue = VecDeque::new();
    let mut out = Vec::new();
    dist[source as usize] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        if du == radius {
            continue;
        }
        for &v in g.neighbours(u) {
            if dist[v as usize] == UNREACHABLE {
                dist[v as usize] = du + 1;
                out.push(v);
                queue.push_back(v);
            }
        }
    }
    out.sort_unstable();
    out
}

/// For every node `u`, the sum of `values` over `u`'s `radius`-hop
/// neighbourhood, `u` itself excluded: [`k_hop_neighbourhood`] summed,
/// for every source in one sweep. One visit stamp and two frontier
/// vectors serve all sources, so the sweep allocates once rather than
/// once per node, and nothing is sorted. Values are added in BFS order,
/// not in ascending index order, so a sum equals the reference sum
/// exactly when every partial sum is exact — integer counts below 2⁵³,
/// for example. Each sum starts from −0.0, as [`Iterator::sum`] does, so
/// an empty neighbourhood sums to −0.0 like the reference.
///
/// # Panics
/// Panics unless `values` holds one value per node.
pub fn k_hop_sums(g: &SchemaGraph, values: &[f64], radius: u32) -> Vec<f64> {
    assert_eq!(values.len(), g.node_count(), "one value per node");
    let mut sums = vec![-0.0; g.node_count()];
    if radius == 0 {
        return sums;
    }
    // `seen[v] == source`: `v` is already counted for `source`.
    let mut seen = vec![NodeIx::MAX; g.node_count()];
    let mut frontier: Vec<NodeIx> = Vec::new();
    let mut next: Vec<NodeIx> = Vec::new();
    for source in g.node_indexes() {
        seen[source as usize] = source;
        frontier.clear();
        frontier.push(source);
        let mut total = -0.0;
        for _ in 0..radius {
            for &u in &frontier {
                for &v in g.neighbours(u) {
                    if seen[v as usize] != source {
                        seen[v as usize] = source;
                        total += values[v as usize];
                        next.push(v);
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            std::mem::swap(&mut frontier, &mut next);
            next.clear();
        }
        sums[source as usize] = total;
    }
    sums
}

/// Graph eccentricity helpers: the largest finite BFS distance from
/// `source`, or `None` if `source` reaches nothing.
pub fn eccentricity(g: &SchemaGraph, source: NodeIx) -> Option<u32> {
    bfs_distances(g, source)
        .into_iter()
        .filter(|&d| d != UNREACHABLE && d > 0)
        .max()
}

#[cfg(test)]
mod tests {
    use super::*;
    use evorec_kb::TermId;

    fn t(n: u32) -> TermId {
        TermId::from_u32(n)
    }

    /// 0-1-2-3 path plus isolate 4.
    fn path() -> SchemaGraph {
        SchemaGraph::from_edges(
            vec![t(0), t(1), t(2), t(3), t(4)],
            &[(t(0), t(1)), (t(1), t(2)), (t(2), t(3))],
        )
    }

    #[test]
    fn distances_along_path() {
        let g = path();
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3, UNREACHABLE]);
        assert_eq!(bfs_distances(&g, 2), vec![2, 1, 0, 1, UNREACHABLE]);
    }

    #[test]
    fn isolate_reaches_nothing() {
        let g = path();
        let d = bfs_distances(&g, 4);
        assert_eq!(d[4], 0);
        assert!(d[..4].iter().all(|&x| x == UNREACHABLE));
        assert_eq!(eccentricity(&g, 4), None);
    }

    #[test]
    fn k_hop_radii() {
        let g = path();
        assert!(k_hop_neighbourhood(&g, 1, 0).is_empty());
        assert_eq!(k_hop_neighbourhood(&g, 1, 1), vec![0, 2]);
        assert_eq!(k_hop_neighbourhood(&g, 1, 2), vec![0, 2, 3]);
        assert_eq!(k_hop_neighbourhood(&g, 1, 9), vec![0, 2, 3]);
    }

    #[test]
    fn k_hop_excludes_source() {
        let g = path();
        for r in 0..4 {
            assert!(!k_hop_neighbourhood(&g, 2, r).contains(&2));
        }
    }

    #[test]
    fn k_hop_sums_along_path() {
        let g = path();
        let values = [1.0, 2.0, 4.0, 8.0, 16.0];
        assert_eq!(k_hop_sums(&g, &values, 0), vec![0.0; 5]);
        assert_eq!(k_hop_sums(&g, &values, 1), vec![2.0, 5.0, 10.0, 4.0, 0.0]);
        assert_eq!(k_hop_sums(&g, &values, 2), vec![6.0, 13.0, 11.0, 6.0, 0.0]);
        assert_eq!(k_hop_sums(&g, &values, 9), vec![14.0, 13.0, 11.0, 7.0, 0.0]);
        // The isolate's empty neighbourhood sums like `Iterator::sum`.
        let empty: f64 = std::iter::empty::<f64>().sum();
        assert_eq!(k_hop_sums(&g, &values, 1)[4].to_bits(), empty.to_bits());
    }

    #[test]
    fn eccentricity_of_path_ends() {
        let g = path();
        assert_eq!(eccentricity(&g, 0), Some(3));
        assert_eq!(eccentricity(&g, 1), Some(2));
    }

    #[test]
    fn cycle_distances_wrap_both_ways() {
        let nodes: Vec<TermId> = (0..6).map(t).collect();
        let edges: Vec<(TermId, TermId)> = (0..6).map(|i| (t(i), t((i + 1) % 6))).collect();
        let g = SchemaGraph::from_edges(nodes, &edges);
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 2, 1]);
    }
}
