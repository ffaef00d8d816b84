//! Empirical verification of the paper's sampling guarantees
//! (Section III-E): with `N ≥ N' = 2|W| ln(1/λ) / (σ(w) ε²)` RRR sets,
//! the estimate `N_p(w)` must reach `(1 − ε) σ(w)` with probability at
//! least `1 − λ` (Lemma 4). We measure the failure rate over many
//! independent pools and check it stays below λ with slack.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sc_influence::{RrrPool, SocialNetwork};

fn test_graph() -> SocialNetwork {
    // 24 workers: three hubs informing rings, plus chords. Moderate,
    // non-trivial spreads.
    let mut edges = Vec::new();
    let n = 24u32;
    for i in 0..n {
        edges.push((i, (i + 1) % n));
        if i % 3 == 0 {
            edges.push((i, (i + 5) % n));
        }
    }
    SocialNetwork::from_directed_edges(n as usize, &edges)
}

/// Ground-truth σ via a very large pool (the estimator is consistent —
/// validated against forward IC elsewhere).
fn sigma_truth(net: &SocialNetwork, worker: u32) -> f64 {
    let mut rng = SmallRng::seed_from_u64(999);
    let pool = RrrPool::generate_sharded(net, 400_000, rng.next_u64(), 2);
    pool.sigma(worker)
}

#[test]
fn lemma4_failure_rate_is_below_lambda() {
    let net = test_graph();
    let n = net.n_workers() as f64;
    let worker = 0u32;
    let sigma = sigma_truth(&net, worker);
    assert!(sigma > 1.0, "need a worker with real spread, got {sigma}");

    let epsilon: f64 = 0.25;
    let lambda: f64 = 0.05;
    let n_prime = (2.0 * n * (1.0 / lambda).ln() / (sigma * epsilon * epsilon)).ceil() as usize;

    let reps = 300;
    let mut failures = 0;
    for rep in 0..reps {
        let mut rng = SmallRng::seed_from_u64(1_000 + rep);
        let pool = RrrPool::generate_sharded(&net, n_prime, rng.next_u64(), 2);
        let np = pool.sigma(worker); // N_p(w) = |W| · f_R(w)
        if np < (1.0 - epsilon) * sigma {
            failures += 1;
        }
    }
    let rate = failures as f64 / reps as f64;
    // The bound guarantees rate ≤ λ; allow binomial noise on top
    // (λ = 0.05 over 300 reps → std ≈ 0.0126).
    assert!(
        rate <= lambda + 0.04,
        "failure rate {rate} exceeds λ = {lambda} (N' = {n_prime}, σ = {sigma:.2})"
    );
}

#[test]
fn undersampling_visibly_degrades_the_guarantee() {
    // Sanity check that the test above has teeth: with N'/50 sets the
    // estimate must fluctuate far more.
    let net = test_graph();
    let worker = 0u32;
    let sigma = sigma_truth(&net, worker);
    let epsilon = 0.25;
    let tiny = 8; // far below N'
    let reps = 1_000;
    let mut failures = 0;
    for rep in 0..reps {
        let mut rng = SmallRng::seed_from_u64(5_000 + rep);
        let pool = RrrPool::generate_sharded(&net, tiny, rng.next_u64(), 2);
        if pool.sigma(worker) < (1.0 - epsilon) * sigma {
            failures += 1;
        }
    }
    let rate = failures as f64 / reps as f64;
    // The true failure rate of an 8-set pool here is ~0.15 — more than
    // double λ = 0.05; the threshold sits between with binomial slack.
    assert!(
        rate > 0.11,
        "an 8-set pool should fail the bound often, got rate {rate}"
    );
}
