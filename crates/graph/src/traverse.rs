//! Traversals over [`CsrGraph`]: breadth-first hop distances.

use crate::csr::CsrGraph;
use std::collections::VecDeque;

/// Breadth-first search from `source`; returns the hop distance to every
/// node (`u32::MAX` when unreachable).
pub fn bfs_distances(g: &CsrGraph, source: u32) -> Vec<u32> {
    let mut dist = vec![u32::MAX; g.n_nodes()];
    if (source as usize) >= g.n_nodes() {
        return dist;
    }
    let mut queue = VecDeque::new();
    dist[source as usize] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in g.neighbors(u) {
            if dist[v as usize] == u32::MAX {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph() -> CsrGraph {
        CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn bfs_hop_counts() {
        let g = path_graph();
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3]);
        assert_eq!(bfs_distances(&g, 3), vec![u32::MAX, u32::MAX, u32::MAX, 0]);
    }

    #[test]
    fn bfs_shortest_over_branches() {
        // 0->1->3 and 0->3 direct: distance to 3 is 1.
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 3), (0, 3)]);
        assert_eq!(bfs_distances(&g, 0)[3], 1);
    }

    #[test]
    fn out_of_range_source_is_empty() {
        let g = path_graph();
        assert!(bfs_distances(&g, 9).iter().all(|&d| d == u32::MAX));
    }
}
