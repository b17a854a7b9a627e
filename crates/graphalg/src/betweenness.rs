//! Betweenness centrality (Brandes' algorithm).
//!
//! The paper's §II(c): "the Betweenness of a class/node counts the number
//! of the shortest paths from all nodes to all others that pass through
//! that node". Brandes' accumulation computes exact betweenness for
//! unweighted graphs in O(V·E).

use crate::graph::{NodeIx, SchemaGraph};
use std::collections::VecDeque;

/// Exact betweenness centrality of every node (undirected convention:
/// each unordered pair counted once).
pub fn betweenness(g: &SchemaGraph) -> Vec<f64> {
    let mut scores = vec![0.0; g.node_count()];
    let mut workspace = Workspace::new(g.node_count());
    for s in g.node_indexes() {
        accumulate_from_source(g, s, &mut workspace, &mut scores);
    }
    for score in &mut scores {
        *score /= 2.0;
    }
    scores
}

/// Reference O(V³)-ish implementation counting shortest paths through
/// each vertex directly. Exposed for differential testing only.
#[doc(hidden)]
pub fn betweenness_reference(g: &SchemaGraph) -> Vec<f64> {
    let n = g.node_count();
    let mut scores = vec![0.0; n];
    // For every ordered pair (s, t), count shortest s→t paths and how many
    // pass through each intermediate v, via path DP over BFS layers.
    for s in 0..n as NodeIx {
        let (dist, sigma) = bfs_counts(g, s);
        for t in 0..n as NodeIx {
            if t == s || dist[t as usize] == u32::MAX {
                continue;
            }
            // share of s-t shortest paths through v =
            //   sigma_s(v) * sigma_t(v) / sigma_s(t)  when
            //   d_s(v) + d_t(v) == d_s(t)
            let (dist_t, sigma_t) = bfs_counts(g, t);
            for v in 0..n as NodeIx {
                if v == s || v == t {
                    continue;
                }
                if dist[v as usize] != u32::MAX
                    && dist_t[v as usize] != u32::MAX
                    && dist[v as usize] + dist_t[v as usize] == dist[t as usize]
                {
                    scores[v as usize] +=
                        (sigma[v as usize] * sigma_t[v as usize]) / sigma[t as usize];
                }
            }
        }
    }
    for score in &mut scores {
        *score /= 2.0; // unordered pairs
    }
    scores
}

fn bfs_counts(g: &SchemaGraph, source: NodeIx) -> (Vec<u32>, Vec<f64>) {
    let n = g.node_count();
    let mut dist = vec![u32::MAX; n];
    let mut sigma = vec![0.0; n];
    let mut queue = VecDeque::new();
    dist[source as usize] = 0;
    sigma[source as usize] = 1.0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in g.neighbours(u) {
            if dist[v as usize] == u32::MAX {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
            if dist[v as usize] == du + 1 {
                sigma[v as usize] += sigma[u as usize];
            }
        }
    }
    (dist, sigma)
}

/// Reusable per-source scratch buffers for Brandes' accumulation.
struct Workspace {
    dist: Vec<i64>,
    sigma: Vec<f64>,
    delta: Vec<f64>,
    preds: Vec<Vec<NodeIx>>,
    stack: Vec<NodeIx>,
    queue: VecDeque<NodeIx>,
}

impl Workspace {
    fn new(n: usize) -> Workspace {
        Workspace {
            dist: vec![-1; n],
            sigma: vec![0.0; n],
            delta: vec![0.0; n],
            preds: vec![Vec::new(); n],
            stack: Vec::with_capacity(n),
            queue: VecDeque::new(),
        }
    }

    fn reset(&mut self) {
        self.dist.fill(-1);
        self.sigma.fill(0.0);
        self.delta.fill(0.0);
        for p in &mut self.preds {
            p.clear();
        }
        self.stack.clear();
        self.queue.clear();
    }
}

fn accumulate_from_source(
    g: &SchemaGraph,
    s: NodeIx,
    w: &mut Workspace,
    scores: &mut [f64],
) {
    w.reset();
    w.dist[s as usize] = 0;
    w.sigma[s as usize] = 1.0;
    w.queue.push_back(s);
    while let Some(u) = w.queue.pop_front() {
        w.stack.push(u);
        let du = w.dist[u as usize];
        for &v in g.neighbours(u) {
            if w.dist[v as usize] < 0 {
                w.dist[v as usize] = du + 1;
                w.queue.push_back(v);
            }
            if w.dist[v as usize] == du + 1 {
                w.sigma[v as usize] += w.sigma[u as usize];
                w.preds[v as usize].push(u);
            }
        }
    }
    while let Some(u) = w.stack.pop() {
        let coeff = (1.0 + w.delta[u as usize]) / w.sigma[u as usize];
        // preds[u] is drained via index loop to sidestep aliasing.
        for ix in 0..w.preds[u as usize].len() {
            let p = w.preds[u as usize][ix];
            w.delta[p as usize] += w.sigma[p as usize] * coeff;
        }
        if u != s {
            scores[u as usize] += w.delta[u as usize];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evorec_kb::TermId;

    fn t(n: u32) -> TermId {
        TermId::from_u32(n)
    }

    fn graph(n: u32, edges: &[(u32, u32)]) -> SchemaGraph {
        SchemaGraph::from_edges(
            (0..n).map(t).collect(),
            &edges.iter().map(|&(a, b)| (t(a), t(b))).collect::<Vec<_>>(),
        )
    }

    fn assert_close(got: &[f64], want: &[f64]) {
        assert_eq!(got.len(), want.len());
        for (ix, (g, w)) in got.iter().zip(want).enumerate() {
            assert!((g - w).abs() < 1e-9, "node {ix}: got {g}, want {w}");
        }
    }

    #[test]
    fn path_graph_centres_dominate() {
        // 0-1-2-3-4: node 2 lies on 0-3,0-4,1-3,1-4 ... exact values:
        // B(0)=B(4)=0, B(1)=B(3)=3, B(2)=4.
        let g = graph(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_close(&betweenness(&g), &[0.0, 3.0, 4.0, 3.0, 0.0]);
    }

    #[test]
    fn star_graph_hub_takes_all() {
        // Hub 0 with 4 leaves: B(hub) = C(4,2) = 6.
        let g = graph(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert_close(&betweenness(&g), &[6.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn cycle_spreads_evenly() {
        // C5: every node has equal betweenness 1.0 (two antipodal-ish
        // pairs route around each node once each: exact value 1.0).
        let g = graph(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let b = betweenness(&g);
        for v in &b {
            assert!((v - b[0]).abs() < 1e-9);
        }
    }

    #[test]
    fn complete_graph_has_zero_betweenness() {
        let edges: Vec<(u32, u32)> = (0..4)
            .flat_map(|i| ((i + 1)..4).map(move |j| (i, j)))
            .collect();
        let g = graph(4, &edges);
        assert_close(&betweenness(&g), &[0.0; 4]);
    }

    #[test]
    fn disconnected_components_independent() {
        let g = graph(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        assert_close(&betweenness(&g), &[0.0, 1.0, 0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn equal_shortest_paths_split_credit() {
        // Diamond: 0-1, 0-2, 1-3, 2-3. Two shortest 0→3 paths; nodes 1
        // and 2 each get 0.5.
        let g = graph(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        assert_close(&betweenness(&g), &[0.5, 0.5, 0.5, 0.5]);
    }

    #[test]
    fn brandes_matches_reference_on_random_graphs() {
        // Deterministic pseudo-random graphs via a tiny LCG.
        let mut state = 0x2545F491u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for trial in 0..5 {
            let n = 8 + (next() % 8);
            let mut edges = Vec::new();
            for i in 0..n {
                for j in (i + 1)..n {
                    if next() % 3 == 0 {
                        edges.push((i, j));
                    }
                }
            }
            let g = graph(n, &edges);
            let fast = betweenness(&g);
            let slow = betweenness_reference(&g);
            for (ix, (f, s)) in fast.iter().zip(&slow).enumerate() {
                assert!(
                    (f - s).abs() < 1e-6,
                    "trial {trial}, node {ix}: brandes {f} vs reference {s}"
                );
            }
        }
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let empty = graph(0, &[]);
        assert!(betweenness(&empty).is_empty());
        let single = graph(1, &[]);
        assert_close(&betweenness(&single), &[0.0]);
    }
}
