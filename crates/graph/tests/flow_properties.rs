//! Property tests tying the two flow/matching solvers together on
//! random bipartite assignment-shaped instances:
//!
//! * MCMF flow == Hopcroft–Karp matching size (max-flow priority is
//!   preserved).
//! * On tiny instances, an exhaustive search finds the reference
//!   optimum: MCMF's flow and cost equal its size and minimum cost, and
//!   Hopcroft–Karp returns a matching over the given edges of that size.

use proptest::prelude::*;
use sc_graph::{HopcroftKarp, MinCostMaxFlow};

#[derive(Debug, Clone)]
struct BipartiteCase {
    n_left: usize,
    n_right: usize,
    edges: Vec<(usize, usize, f64)>,
}

fn bipartite_case(max_side: usize) -> impl Strategy<Value = BipartiteCase> {
    (1..=max_side, 1..=max_side)
        .prop_flat_map(|(nl, nr)| {
            let edge = (0..nl, 0..nr, 1u32..1000).prop_map(|(l, r, c)| (l, r, c as f64 / 100.0));
            (
                Just(nl),
                Just(nr),
                prop::collection::vec(edge, 0..nl * nr + 1),
            )
        })
        .prop_map(|(n_left, n_right, mut edges)| {
            edges.sort_by_key(|e| (e.0, e.1));
            edges.dedup_by_key(|e| (e.0, e.1));
            BipartiteCase {
                n_left,
                n_right,
                edges,
            }
        })
}

fn mcmf_run(case: &BipartiteCase) -> (i64, f64) {
    let mut g = MinCostMaxFlow::new(case.n_left, case.n_right);
    for &(l, r, c) in &case.edges {
        g.add_edge(l, r, c);
    }
    let res = g.run();
    (res.flow, res.cost)
}

fn hk_solve(case: &BipartiteCase) -> (usize, Vec<Option<u32>>) {
    let mut hk = HopcroftKarp::new(case.n_left, case.n_right);
    for &(l, r, _) in &case.edges {
        hk.add_edge(l, r);
    }
    hk.solve()
}

/// Exhaustively finds the min-cost matching of maximum cardinality on a
/// tiny instance (reference oracle).
fn brute_force(case: &BipartiteCase) -> (usize, f64) {
    fn recurse(
        edges: &[(usize, usize, f64)],
        i: usize,
        used_l: &mut Vec<bool>,
        used_r: &mut Vec<bool>,
        size: usize,
        cost: f64,
        best: &mut (usize, f64),
    ) {
        if i == edges.len() {
            if size > best.0 || (size == best.0 && cost < best.1) {
                *best = (size, cost);
            }
            return;
        }
        let (l, r, c) = edges[i];
        // Skip edge i.
        recurse(edges, i + 1, used_l, used_r, size, cost, best);
        // Take edge i if possible.
        if !used_l[l] && !used_r[r] {
            used_l[l] = true;
            used_r[r] = true;
            recurse(edges, i + 1, used_l, used_r, size + 1, cost + c, best);
            used_l[l] = false;
            used_r[r] = false;
        }
    }
    let mut best = (0usize, 0.0f64);
    recurse(
        &case.edges,
        0,
        &mut vec![false; case.n_left],
        &mut vec![false; case.n_right],
        0,
        0.0,
        &mut best,
    );
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mcmf_flow_equals_hopcroft_karp(case in bipartite_case(7)) {
        let (flow, _) = mcmf_run(&case);
        prop_assert_eq!(flow as usize, hk_solve(&case).0);
    }

    #[test]
    fn mcmf_matches_bruteforce_optimum(case in bipartite_case(4)) {
        // Keep the instance tiny; brute force is exponential in edges.
        prop_assume!(case.edges.len() <= 10);
        let (flow, cost) = mcmf_run(&case);
        let (best_size, best_cost) = brute_force(&case);
        prop_assert_eq!(flow as usize, best_size);
        prop_assert!((cost - best_cost).abs() < 1e-6,
            "cost {} vs brute-force {}", cost, best_cost);

        // Hopcroft–Karp: the same maximum, as a matching over the edges.
        let (hk_size, task_of) = hk_solve(&case);
        prop_assert_eq!(hk_size, best_size);
        let mut used = vec![false; case.n_right];
        for (l, r) in task_of.iter().enumerate().filter_map(|(l, r)| Some((l, (*r)? as usize))) {
            prop_assert!(case.edges.iter().any(|e| (e.0, e.1) == (l, r)),
                "({}, {}) is not an edge", l, r);
            prop_assert!(!std::mem::replace(&mut used[r], true), "task {} matched twice", r);
        }
        prop_assert_eq!(used.iter().filter(|&&u| u).count(), hk_size);
    }
}
