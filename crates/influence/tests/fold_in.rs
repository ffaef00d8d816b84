//! Worker fold-in: a late arrival is spliced into the trained network
//! and the live RRR pool without resampling, deterministically.
//!
//! These suites run in release CI alongside the sharded-sampling
//! determinism tests — fold-in mutates the arena and the membership
//! index in flat passes, exactly the kind of code whose bugs only
//! surface under optimizations.

use sc_influence::{RrrPool, SocialNetwork};

/// A 6-worker world: two triangles bridged by the 2–3 edge.
fn bridged() -> SocialNetwork {
    SocialNetwork::from_undirected_edges(
        6,
        &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)],
    )
}

fn pool_of(net: &SocialNetwork, n_sets: usize, seed: u64, threads: usize) -> RrrPool {
    RrrPool::generate_sharded(net, n_sets, seed, threads)
}

/// Membership index and set arena must agree both ways after any
/// mutation — the invariant every estimator relies on.
fn assert_consistent(pool: &RrrPool) {
    for j in 0..pool.n_sets() {
        assert_eq!(pool.set(j)[0], pool.root(j), "root stays first");
        for &w in pool.set(j) {
            assert!(
                pool.sets_containing(w).any(|x| x == j as u32),
                "arena member {w} missing from index of set {j}"
            );
        }
    }
    let total: usize = (0..pool.n_workers() as u32)
        .map(|w| pool.sets_containing(w).len())
        .sum();
    assert_eq!(
        total,
        pool.n_set_members(),
        "index covers the arena exactly"
    );
}

#[test]
fn fold_in_joins_sets_and_stays_consistent() {
    let net = bridged();
    let mut pool = pool_of(&net, 4_000, 11, 2);
    let folded_net = net.fold_in_worker(&[2, 4]);
    let joined = pool.fold_in_worker(&folded_net, 6);
    assert_eq!(pool.n_workers(), 7);
    assert_eq!(pool.sets_containing(6).len(), joined);
    assert!(
        joined > 0,
        "a worker with two well-covered friends joins sets"
    );
    assert_consistent(&pool);
    // The folded worker is a member, never a root, of the joined sets.
    for j in pool.sets_containing(6) {
        assert!(pool.set(j as usize).contains(&6));
        assert_ne!(pool.root(j as usize), 6);
    }
    // Estimators immediately see non-zero propagation.
    assert!(pool.total_propagation(6) > 0.0);
    assert!(pool.sigma(6) > 0.0);
}

#[test]
fn fold_in_is_deterministic() {
    let net = bridged();
    let folded_net = net.fold_in_worker(&[0, 5]);
    let mut a = pool_of(&net, 3_000, 21, 1);
    let mut b = pool_of(&net, 3_000, 21, 4);
    assert_eq!(
        a.fingerprint(),
        b.fingerprint(),
        "precondition: pools identical"
    );
    let ja = a.fold_in_worker(&folded_net, 6);
    let jb = b.fold_in_worker(&folded_net, 6);
    assert_eq!(ja, jb);
    assert_eq!(a.fingerprint(), b.fingerprint());
    assert_eq!(a.membership(), b.membership());
}

#[test]
fn fold_in_with_certain_pull_joins_every_candidate_set() {
    // Two isolated workers, then worker 2 folds in with the single
    // directed edge 2→1. Worker 1's only in-edge is from 2, so the
    // pull probability is 1/indeg(1) = 1: every live set containing
    // worker 1 must recruit the new worker, deterministically.
    let base = SocialNetwork::from_directed_edges(2, &[]);
    let mut pool = pool_of(&base, 1_000, 32, 1);
    let folded = SocialNetwork::from_directed_edges(3, &[(2, 1)]);
    let joined = pool.fold_in_worker(&folded, 2);
    assert_eq!(
        joined,
        pool.sets_containing(1).len(),
        "p = 1/indeg(1) = 1: every set with worker 1 joins"
    );
    assert!(joined > 0, "half the singleton sets are rooted at worker 1");
    assert_consistent(&pool);
}

#[test]
fn fold_in_joins_at_most_the_candidate_sets() {
    // With a 1/2 pull probability (worker 1 keeps its old in-edge from
    // 0 and gains one from the folded worker 2), joins are a strict
    // subset of the sets containing worker 1.
    let net = SocialNetwork::from_directed_edges(2, &[(0, 1)]);
    let mut pool = pool_of(&net, 2_000, 31, 1);
    let candidates = pool.sets_containing(1).len();
    let folded = SocialNetwork::from_directed_edges(3, &[(0, 1), (2, 1), (1, 2)]);
    let joined = pool.fold_in_worker(&folded, 2);
    assert!(joined > 0, "enough candidates that some coins land");
    assert!(
        joined <= candidates,
        "only friend-containing sets are eligible"
    );
    assert_consistent(&pool);
}

#[test]
fn fold_in_isolated_worker_joins_nothing() {
    let net = bridged();
    let mut pool = pool_of(&net, 2_000, 41, 2);
    let fp_sets: Vec<usize> = (0..6).map(|w| pool.sets_containing(w).len()).collect();
    let folded_net = net.fold_in_worker(&[]);
    assert_eq!(pool.fold_in_worker(&folded_net, 6), 0);
    assert_eq!(pool.n_workers(), 7);
    assert!(pool.sets_containing(6).is_empty());
    assert_eq!(pool.total_propagation(6), 0.0);
    // Existing memberships are untouched.
    for w in 0..6u32 {
        assert_eq!(pool.sets_containing(w).len(), fp_sets[w as usize]);
    }
    assert_consistent(&pool);
}

#[test]
fn maintenance_keeps_working_after_fold_in() {
    // Rotation (advance epoch, evict, extend) must stay consistent on a
    // folded pool, and fresh sets are sampled on the grown network so
    // they can recruit — or even be rooted at — the new worker.
    let net = bridged();
    let mut pool = pool_of(&net, 3_000, 51, 2);
    let folded_net = net.fold_in_worker(&[0, 1, 2, 3, 4, 5]);
    pool.fold_in_worker(&folded_net, 6);
    pool.advance_epoch();
    let evicted = pool.evict_before_epoch(1, 500);
    assert_eq!(evicted, 500);
    assert_consistent(&pool);
    pool.extend_to(&folded_net, 3_000, 3);
    assert_eq!(pool.n_sets(), 3_000);
    assert_consistent(&pool);
    // With every worker a friend, the post-fold-in stream (roots drawn
    // from 0..7) gives the new worker organic memberships too.
    assert!(!pool.sets_containing(6).is_empty());
}

#[test]
fn sequential_fold_ins_stack() {
    let net = bridged();
    let mut pool = pool_of(&net, 2_000, 61, 1);
    let net7 = net.fold_in_worker(&[2]);
    pool.fold_in_worker(&net7, 6);
    let net8 = net7.fold_in_worker(&[6, 3]);
    let joined8 = pool.fold_in_worker(&net8, 7);
    assert_eq!(pool.n_workers(), 8);
    assert_consistent(&pool);
    // Worker 7's candidates include sets 6 joined moments ago.
    for j in pool.sets_containing(7) {
        let set = pool.set(j as usize);
        assert!(
            set.contains(&6) || set.contains(&3),
            "worker 7 only joins sets holding one of its friends"
        );
    }
    let _ = joined8;
}

#[test]
#[should_panic(expected = "fold the network first")]
fn fold_in_requires_folded_network() {
    let net = bridged();
    let mut pool = pool_of(&net, 100, 71, 1);
    let _ = pool.fold_in_worker(&net, 6);
}

#[test]
#[should_panic(expected = "old population size")]
fn fold_in_rejects_sparse_ids() {
    let net = bridged();
    let mut pool = pool_of(&net, 100, 81, 1);
    let folded_net = net.fold_in_worker(&[0]);
    let _ = pool.fold_in_worker(&folded_net, 9);
}

#[test]
fn fold_in_weighted_propagation_reaches_roots() {
    // The influence formula's inner sum weights joined sets by their
    // roots' willingness — a folded worker must pick up weight from the
    // roots of the sets it joined, and only those.
    let net = bridged();
    let mut pool = pool_of(&net, 5_000, 91, 2);
    let folded_net = net.fold_in_worker(&[1, 4]);
    pool.fold_in_worker(&folded_net, 6);
    let weights = vec![1.0; 7];
    let wp = pool.weighted_propagation(6, &weights);
    assert!((wp - pool.total_propagation(6)).abs() < 1e-9);
    // Zero weights on every root kill the estimate.
    let zeros = vec![0.0; 7];
    assert_eq!(pool.weighted_propagation(6, &zeros), 0.0);
}
