//! Property tests for graph traversals.

use proptest::prelude::*;
use sc_graph::traverse::bfs_distances;
use sc_graph::CsrGraph;

fn arb_graph(n: u32) -> impl Strategy<Value = CsrGraph> {
    prop::collection::vec((0..n, 0..n), 0..(n as usize * 3))
        .prop_map(move |edges| CsrGraph::from_edges(n as usize, &edges))
}

proptest! {
    #[test]
    fn bfs_satisfies_triangle_inequality_on_edges(g in arb_graph(14), src in 0u32..14) {
        let dist = bfs_distances(&g, src);
        for u in 0..g.n_nodes() as u32 {
            if dist[u as usize] == u32::MAX {
                continue;
            }
            for &v in g.neighbors(u) {
                prop_assert!(
                    dist[v as usize] <= dist[u as usize] + 1,
                    "edge ({u},{v}) violates BFS optimality"
                );
            }
        }
        prop_assert_eq!(dist[src as usize], 0);
    }

    #[test]
    fn reverse_preserves_degree_sums(g in arb_graph(14)) {
        let r = g.reverse();
        prop_assert_eq!(g.n_edges(), r.n_edges());
        for u in 0..g.n_nodes() as u32 {
            prop_assert_eq!(g.out_degree(u), r.in_degree(u));
            prop_assert_eq!(g.in_degree(u), r.out_degree(u));
        }
    }
}
