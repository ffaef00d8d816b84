//! Eviction/maintenance invariants of the RRR pool.
//!
//! The online engine rotates a live pool every round: advance the
//! epoch, evict a bounded prefix of stale sets, extend back up to the
//! target. These tests pin the contract that makes that safe:
//!
//! * the arena and membership index stay mutually consistent through
//!   any evict/extend interleaving,
//! * the live window is a pure function of `(master_seed, stream
//!   window)` — independent of thread count and of *how* the window
//!   was reached (incremental rotation vs from-scratch), and
//! * estimator identities (σ vs AP, membership counts) survive
//!   rotation.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use sc_influence::{RrrPool, SocialNetwork};

fn sparse_net(n: usize, seed: u64) -> SocialNetwork {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for v in 1..n as u32 {
        edges.push((rng.random_range(0..v), v));
        if rng.random_bool(0.4) {
            edges.push((rng.random_range(0..v), v));
        }
    }
    SocialNetwork::from_directed_edges(n, &edges)
}

fn assert_invariants(pool: &RrrPool) {
    let n_sets = pool.n_sets();
    let sets = pool.set_arena();
    let membership = pool.membership();

    // Arenas: one run per set, one run per worker (once indexed), and
    // the same total memberships seen from both sides.
    assert_eq!(sets.n_runs(), n_sets);
    if n_sets > 0 {
        assert_eq!(membership.n_runs(), pool.n_workers());
    }
    assert_eq!(membership.len(), sets.len());
    assert_eq!(pool.n_set_members(), sets.len());

    // Arena → index: every member of every set is indexed.
    for j in 0..n_sets {
        assert_eq!(pool.set(j)[0], pool.root(j), "root is first member");
        for &w in pool.set(j) {
            assert!(
                pool.sets_containing(w).any(|x| x == j as u32),
                "worker {w} missing set {j} in membership index"
            );
        }
    }
    // Index → arena: every indexed id points at a set containing the worker.
    for w in 0..pool.n_workers() as u32 {
        let run: Vec<u32> = pool.sets_containing(w).collect();
        assert!(run.windows(2).all(|x| x[0] < x[1]), "run sorted, unique");
        for j in run {
            assert!(pool.set(j as usize).contains(&w));
        }
    }
    // Epochs non-decreasing (prefix-eviction precondition).
    for j in 1..n_sets {
        assert!(pool.set_epoch(j - 1) <= pool.set_epoch(j));
    }
}

#[test]
fn evict_extend_round_trip_preserves_invariants() {
    let net = sparse_net(200, 5);
    let mut pool = RrrPool::generate_sharded(&net, 4_000, 9, 4);
    assert_invariants(&pool);

    // Ten maintenance rounds: horizon 3 epochs, quantum 512.
    for _ in 0..10 {
        let epoch = pool.advance_epoch();
        if epoch > 3 {
            pool.evict_before_epoch(epoch - 3, 512);
        }
        let target = pool.n_sets() + 512;
        pool.extend_to(&net, target.min(4_000), 4);
        assert_invariants(&pool);
        assert!(pool.n_sets() <= 4_000);
    }
    assert!(pool.stream_base() > 0, "rotation must have evicted");
}

#[test]
fn rotation_is_thread_count_independent() {
    let net = sparse_net(150, 6);
    let script = |threads: usize| {
        let mut pool = RrrPool::generate_sharded(&net, 3_000, 11, threads);
        for _ in 0..6 {
            let epoch = pool.advance_epoch();
            if epoch > 2 {
                pool.evict_before_epoch(epoch - 2, 400);
            }
            let target = pool.n_sets() + 400;
            pool.extend_to(&net, target.min(3_000), threads);
        }
        pool
    };
    let single = script(1);
    let eight = script(8);
    assert_eq!(single.stream_base(), eight.stream_base());
    assert_eq!(single.n_sets(), eight.n_sets());
    assert_eq!(single.fingerprint(), eight.fingerprint());
    assert_eq!(single.membership(), eight.membership());
}

#[test]
fn rotated_window_equals_from_scratch_window() {
    let net = sparse_net(120, 7);
    let seed = 13u64;

    // Rotate incrementally: 2k warm-up, then 4 × (evict 250, add 250).
    let mut rotated = RrrPool::generate_sharded(&net, 2_000, seed, 3);
    for _ in 0..4 {
        let epoch = rotated.advance_epoch();
        rotated.evict_before_epoch(epoch, 250);
        rotated.extend_to(&net, 2_000, 3);
    }
    assert_eq!(rotated.stream_base(), 1_000);
    assert_eq!(rotated.n_sets(), 2_000);

    // From scratch: sample the whole stream, evict the same prefix.
    let mut fresh = RrrPool::generate_sharded(&net, 3_000, seed, 1);
    fresh.advance_epoch();
    fresh.evict_before_epoch(1, 1_000);

    assert_eq!(rotated.fingerprint(), fresh.fingerprint());
    assert_eq!(rotated.roots(), fresh.roots());
    assert_eq!(rotated.set_arena(), fresh.set_arena());
    assert_eq!(rotated.membership(), fresh.membership());

    // Estimators agree on the shared window.
    for w in (0..120).step_by(17) {
        assert_eq!(rotated.sigma(w), fresh.sigma(w));
        assert_eq!(rotated.total_propagation(w), fresh.total_propagation(w));
    }
}

#[test]
fn estimator_identities_survive_rotation() {
    let net = sparse_net(80, 8);
    let mut pool = RrrPool::generate_sharded(&net, 5_000, 17, 2);
    for _ in 0..3 {
        let epoch = pool.advance_epoch();
        pool.evict_before_epoch(epoch, 1_000);
        pool.extend_to(&net, 5_000, 2);
    }
    for w in (0..80u32).step_by(13) {
        let total = pool.total_propagation(w);
        let pairwise: f64 = (0..80u32)
            .filter(|&v| v != w)
            .map(|v| pool.propagation_probability(w, v))
            .sum();
        assert!((total - pairwise).abs() < 1e-9);
        assert!(pool.sigma(w) >= total);
        let ones = vec![1.0; 80];
        assert!((pool.weighted_propagation(w, &ones) - total).abs() < 1e-9);
    }
}
