//! Exact-oracle differential suite for the MCMF solver.
//!
//! A bitmask dynamic program computes the *provably optimal*
//! (max-cardinality, then min-cost) assignment for unit-capacity
//! bipartite instances up to 8×8 — small enough for `O(T · 2^W · W)`
//! exhaustion, large enough to exercise multi-pass augmentation,
//! contested workers, and tie plateaus. On every instance the solver
//! must reproduce the oracle's `(flow, cost)` exactly and pass the
//! [`verify`] flow certificate after solving.

use proptest::prelude::*;
use sc_graph::{verify, MinCostMaxFlow};

/// A unit-capacity bipartite assignment instance: `workers` on the
/// left, `tasks` on the right, eligible pairs with non-negative costs.
#[derive(Debug, Clone)]
struct Instance {
    workers: usize,
    tasks: usize,
    edges: Vec<(usize, usize, f64)>,
}

impl Instance {
    /// Node layout shared by every solve: source, workers, tasks, sink.
    fn network(&self) -> (MinCostMaxFlow, usize, usize) {
        let n = self.workers + self.tasks + 2;
        let (s, t) = (0, n - 1);
        let mut g = MinCostMaxFlow::new(n);
        for w in 0..self.workers {
            g.add_edge(s, 1 + w, 1, 0.0);
        }
        for task in 0..self.tasks {
            g.add_edge(1 + self.workers + task, t, 1, 0.0);
        }
        for &(w, task, c) in &self.edges {
            g.add_edge(1 + w, 1 + self.workers + task, 1, c);
        }
        (g, s, t)
    }

    /// Exact oracle: max assigned tasks, then min total cost, by
    /// bitmask DP over `(task index, used-worker set)`. Requires
    /// `workers <= 8`.
    fn oracle(&self) -> (i64, f64) {
        assert!(self.workers <= 8 && self.tasks <= 8, "oracle is for <= 8x8");
        // eligible[task] lists (worker, cost) pairs.
        let mut eligible = vec![Vec::new(); self.tasks];
        for &(w, task, c) in &self.edges {
            eligible[task].push((w, c));
        }
        let full = 1usize << self.workers;
        // dp[mask] = best (count, cost) over the tasks decided so far
        // with exactly the workers in `mask` used. (-1, inf) = unreachable.
        let better = |a: (i64, f64), b: (i64, f64)| -> (i64, f64) {
            if a.0 != b.0 {
                if a.0 > b.0 {
                    a
                } else {
                    b
                }
            } else if a.1 <= b.1 {
                a
            } else {
                b
            }
        };
        let mut dp = vec![(-1i64, f64::INFINITY); full];
        dp[0] = (0, 0.0);
        for workers in &eligible {
            let mut next = vec![(-1i64, f64::INFINITY); full];
            for mask in 0..full {
                let (count, cost) = dp[mask];
                if count < 0 {
                    continue;
                }
                // Leave this task unassigned.
                next[mask] = better(next[mask], (count, cost));
                // Or assign any free eligible worker.
                for &(w, c) in workers {
                    if mask & (1 << w) == 0 {
                        let m2 = mask | (1 << w);
                        next[m2] = better(next[m2], (count + 1, cost + c));
                    }
                }
            }
            dp = next;
        }
        let mut best = (0i64, 0.0f64);
        for &state in &dp {
            if state.0 >= 0 {
                best = better(best, state);
            }
        }
        best
    }
}

fn assert_matches_oracle(inst: &Instance) {
    let (want_flow, want_cost) = inst.oracle();
    let (mut g, s, t) = inst.network();
    let r = g.run(s, t);
    verify(&g, s, t, &r, 1e-9).unwrap_or_else(|e| panic!("flow certificate failed: {e}"));
    assert_eq!(
        r.flow, want_flow,
        "flow {} vs oracle {want_flow} on {inst:?}",
        r.flow
    );
    assert!(
        (r.cost - want_cost).abs() < 1e-6,
        "cost {} vs oracle {want_cost} on {inst:?}",
        r.cost
    );
}

/// Strategy: random unit-capacity bipartite network, ≤ `max_side` per
/// side, distinct pairs, costs drawn from a lattice that manufactures
/// exact ties (the hard case for a deterministic solver).
fn instance(max_side: usize) -> impl Strategy<Value = Instance> {
    (1..=max_side, 1..=max_side)
        .prop_flat_map(|(nw, nt)| {
            let edge = (0..nw, 0..nt, 1u32..40).prop_map(|(w, t, c)| (w, t, c as f64 / 8.0));
            (
                Just(nw),
                Just(nt),
                prop::collection::vec(edge, 0..nw * nt + 1),
            )
        })
        .prop_map(|(workers, tasks, mut edges)| {
            edges.sort_by_key(|e| (e.0, e.1));
            edges.dedup_by_key(|e| (e.0, e.1));
            Instance {
                workers,
                tasks,
                edges,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The solver reproduces the oracle's (flow, cost) on random
    /// 8×8-or-smaller instances, and every solve passes the certificate
    /// checker.
    #[test]
    fn solver_matches_exact_oracle(inst in instance(8)) {
        assert_matches_oracle(&inst);
    }
}

/// Hand-picked regressions the random generator is unlikely to hit
/// every run: full tie plateaus, contested workers, and the empty
/// network.
#[test]
fn oracle_pinned_instances() {
    let cases = [
        // 8x8 full plateau: every pair costs 1.0.
        Instance {
            workers: 8,
            tasks: 8,
            edges: (0..8)
                .flat_map(|w| (0..8).map(move |t| (w, t, 1.0)))
                .collect(),
        },
        // One contested task: both workers want task 0 cheaply.
        Instance {
            workers: 2,
            tasks: 2,
            edges: vec![(0, 0, 0.1), (1, 0, 0.2), (0, 1, 0.9)],
        },
        // Chain forcing residual (reverse-edge) augmentation.
        Instance {
            workers: 3,
            tasks: 3,
            edges: vec![
                (0, 0, 0.1),
                (0, 1, 0.5),
                (1, 1, 0.1),
                (1, 2, 0.5),
                (2, 2, 0.1),
            ],
        },
        // No edges at all.
        Instance {
            workers: 4,
            tasks: 4,
            edges: vec![],
        },
    ];
    for inst in &cases {
        assert_matches_oracle(inst);
    }
}

/// The oracle itself, sanity-checked against hand counting.
#[test]
fn oracle_hand_checks() {
    // w0 can do both tasks, w1 only task 0: max 2 assignments forces
    // w0 onto task 1 even though task 0 is cheaper for it.
    let inst = Instance {
        workers: 2,
        tasks: 2,
        edges: vec![(0, 0, 0.1), (0, 1, 0.9), (1, 0, 0.2)],
    };
    let (flow, cost) = inst.oracle();
    assert_eq!(flow, 2);
    assert!((cost - 1.1).abs() < 1e-12);
}
