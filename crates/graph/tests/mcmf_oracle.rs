//! Exact-oracle differential suite for the MCMF solver.
//!
//! A bitmask dynamic program computes the *provably optimal*
//! (max-cardinality, then min-cost) assignment for unit-capacity
//! bipartite instances up to 8×8 — small enough for `O(T · 2^W · W)`
//! exhaustion, large enough to exercise multi-pass augmentation,
//! contested workers, and tie plateaus. On every instance the solver
//! must reproduce the oracle's `(flow, cost)` exactly, run one search
//! pass per augmentation plus the final empty one, and pass the
//! [`verify`] flow certificate after solving.
//!
//! `serving_scale_matches_the_parent` takes the solver to the sizes
//! the serving workloads solve every round, where the oracle cannot go,
//! and pins each matched edge set to a recorded fingerprint.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use sc_graph::{verify, HopcroftKarp, MinCostMaxFlow};

/// A unit-capacity bipartite assignment instance: `workers` on the
/// left, `tasks` on the right, eligible pairs with non-negative costs.
#[derive(Debug, Clone)]
struct Instance {
    workers: usize,
    tasks: usize,
    edges: Vec<(usize, usize, f64)>,
}

impl Instance {
    /// The assignment network: workers on the left, tasks on the
    /// right, edge ids in `edges` order.
    fn network(&self) -> MinCostMaxFlow {
        let mut g = MinCostMaxFlow::new(self.workers, self.tasks);
        for &(w, task, c) in &self.edges {
            g.add_edge(w, task, c);
        }
        g
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
    let mut g = inst.network();
    let r = g.run();
    verify(&g, &g.matched_edges(), &r, 1e-9)
        .unwrap_or_else(|e| panic!("flow certificate failed: {e}"));
    assert_eq!(r.passes, r.augmentations + 1, "one pass per augmentation");
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
        // Competing workers: augmenting one worker at a time lets w0
        // take task 0 at 0.9 and strands w1; the optimum routes w1 at
        // 0.1.
        Instance {
            workers: 2,
            tasks: 1,
            edges: vec![(0, 0, 0.9), (1, 0, 0.1)],
        },
    ];
    for inst in &cases {
        assert_matches_oracle(inst);
    }
}

/// A hub: worker 0 holds every task's cheapest edge, some through
/// parallel edges (a cheaper and a dearer copy, and two equal ones). The
/// first augmentation matches the hub, and every task's cached seed
/// runs through it, so each must move to its next free edge before the
/// second pass; a seed left on the hub would start a path at a matched
/// worker. The other workers form a ring over tasks 0–4, and task 5 is
/// the hub's alone, so the full matching moves the hub off the cheap
/// edge it takes first.
#[test]
fn hub_worker_seeds_every_task() {
    let tasks = 6;
    let mut edges = Vec::new();
    for task in 0..tasks {
        edges.push((0, task, 0.05 + 0.01 * task as f64));
    }
    edges.push((0, 2, 0.04));
    edges.push((0, 4, 0.3));
    edges.push((0, 5, 0.1));
    edges.push((0, 5, 0.1));
    for w in 1..6 {
        edges.push((w, w - 1, 0.2 + 0.05 * w as f64));
        edges.push((w, w % 5, 0.6));
    }
    let inst = Instance {
        workers: 6,
        tasks,
        edges,
    };
    assert_matches_oracle(&inst);
    let mut g = inst.network();
    let r = g.run();
    assert_eq!(r.flow, 6);
    assert_eq!(r.passes, 7);
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

/// The tie-break jitter of `sc_assign`'s cost models, rebuilt here: a
/// 4-round Feistel bijection of the low 18 bits of the pair index on
/// the dyadic lattice `2⁻³⁷ · [2¹⁸, 2¹⁹)`, so every pair's offset is
/// distinct and every optimum unique.
fn tie_jitter(pi: usize) -> f64 {
    let x = (pi as u32) & 0x3_FFFF;
    let (mut l, mut r) = (x >> 9, x & 0x1FF);
    for round in 1..=4u32 {
        let mut f = r
            .wrapping_add(round.wrapping_mul(0x9E37_79B9))
            .wrapping_mul(0x85EB_CA6B);
        f ^= f >> 13;
        let next = l ^ (f & 0x1FF);
        l = r;
        r = next;
    }
    let k = (1u32 << 18) | (l << 9) | r;
    f64::from(k) / (1u64 << 37) as f64
}

/// A serving-shaped instance: each worker draws `degree` tasks (pairs
/// deduplicated, in worker-major order like an eligibility matrix).
/// Half the pairs sit on the zero-influence plateau at exactly `1.0`,
/// the rest on a coarse `1/(1 + k/16)` lattice, each plus its jitter.
fn serving_instance(workers: usize, tasks: usize, degree: usize, seed: u64) -> Instance {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for w in 0..workers {
        let mut row: Vec<usize> = (0..degree).map(|_| rng.random_range(0..tasks)).collect();
        row.sort_unstable();
        row.dedup();
        for t in row {
            let base = if rng.random_bool(0.5) {
                1.0
            } else {
                1.0 / (1.0 + f64::from(rng.random_range(1..=64u32)) / 16.0)
            };
            let pi = edges.len();
            edges.push((w, t, base + tie_jitter(pi)));
        }
    }
    Instance {
        workers,
        tasks,
        edges,
    }
}

/// FNV-1a over the little-endian bytes of each edge id.
fn fnv1a(ids: &[usize]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &id in ids {
        for b in (id as u64).to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Solves at the sizes of the serving workloads — `contested` (600
/// workers × 500 tasks at ~25 edges a worker) and `steady` (1,500 ×
/// 250 at ~4) — and checks each solve against the certificate,
/// Hopcroft–Karp's cardinality, one pass per augmentation, and the
/// fingerprint of the matched edge list that the source-rooted solver
/// this one replaced produced on the same instance.
#[test]
fn serving_scale_matches_the_parent() {
    let cases = [
        ((600, 500, 25, 1), 0x5382_28ca_bef3_f8dc_u64),
        ((600, 500, 25, 2), 0xd333_8803_e97d_e6c2),
        ((1500, 250, 4, 3), 0x32e5_5635_5126_d264),
        ((1500, 250, 4, 4), 0xcdc3_5704_5097_7e6e),
    ];
    for ((workers, tasks, degree, seed), want) in cases {
        let inst = serving_instance(workers, tasks, degree, seed);
        let mut g = inst.network();
        let r = g.run();
        let matched = g.matched_edges();
        verify(&g, &matched, &r, 1e-9).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let mut hk = HopcroftKarp::new(workers, tasks);
        for &(w, t, _) in &inst.edges {
            hk.add_edge(w, t);
        }
        assert_eq!(r.flow, hk.solve().0 as i64, "seed {seed}: cardinality");
        assert_eq!(r.passes, r.augmentations + 1, "seed {seed}");
        assert_eq!(fnv1a(&matched), want, "seed {seed}: matched edges moved");
    }
}
