//! Determinism guarantees of the sharded sampling engine.
//!
//! The arena pool promises: (1) generation is **bit-identical at any
//! thread count** for a fixed master seed (each set's RNG derives from
//! `(master_seed, set_index)`), and (2) an incremental top-up
//! ([`RrrPool::extend_to`]) produces byte-for-byte the pool — arena *and*
//! membership index — that a from-scratch generation of the larger size
//! would. RPO inherits both. These properties are exercised over
//! arbitrary sparse topologies.

use proptest::prelude::*;
use sc_influence::{Parallelism, Rpo, RpoParams, RrrPool, SocialNetwork};

fn arb_edges(n: u32) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0..n, 0..n), 0..(n as usize * 4)).prop_map(|mut e| {
        e.retain(|(u, v)| u != v);
        e
    })
}

/// Structural equality of two pools: every set, root, and membership run.
fn assert_pools_identical(a: &RrrPool, b: &RrrPool) {
    assert_eq!(a.n_sets(), b.n_sets());
    assert_eq!(a.n_workers(), b.n_workers());
    assert_eq!(a.roots(), b.roots());
    assert_eq!(a.set_arena(), b.set_arena());
    assert_eq!(a.membership(), b.membership());
    assert_eq!(a.fingerprint(), b.fingerprint());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn generation_is_bit_identical_across_thread_counts(
        edges in arb_edges(20),
        master_seed in 0u64..1_000_000,
        n_sets in 0usize..600,
    ) {
        let net = SocialNetwork::from_directed_edges(20, &edges);
        let single = RrrPool::generate_sharded(&net, n_sets, master_seed, 1);
        for threads in [2, 3, 4, 8] {
            let sharded = RrrPool::generate_sharded(&net, n_sets, master_seed, threads);
            prop_assert_eq!(single.roots(), sharded.roots(), "roots differ at {} threads", threads);
            prop_assert_eq!(single.set_arena(), sharded.set_arena());
            prop_assert_eq!(single.membership(), sharded.membership());
            // set-for-set, through the public accessors too
            for j in 0..single.n_sets() {
                prop_assert_eq!(single.set(j), sharded.set(j), "set {} differs", j);
                prop_assert_eq!(single.root(j), sharded.root(j));
            }
        }
    }

    #[test]
    fn incremental_topup_equals_from_scratch(
        edges in arb_edges(20),
        master_seed in 0u64..1_000_000,
        first in 0usize..300,
        extra in 0usize..300,
    ) {
        let net = SocialNetwork::from_directed_edges(20, &edges);
        let target = first + extra;

        let scratch = RrrPool::generate_sharded(&net, target, master_seed, 3);
        let mut grown = RrrPool::generate_sharded(&net, first, master_seed, 2);
        grown.extend_to(&net, target, 4);

        prop_assert_eq!(scratch.roots(), grown.roots());
        prop_assert_eq!(scratch.set_arena(), grown.set_arena());
        // The grown membership index keeps the new sets in its tail, so
        // its equality is logical: the same live runs as the
        // from-scratch index.
        prop_assert_eq!(scratch.membership(), grown.membership());
        // And semantically through the query API.
        for w in 0..20u32 {
            prop_assert_eq!(
                scratch.sets_containing(w).collect::<Vec<_>>(),
                grown.sets_containing(w).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn rpo_is_bit_identical_across_thread_counts(
        edges in arb_edges(24),
        master_seed in 0u64..100_000,
    ) {
        let net = SocialNetwork::from_directed_edges(24, &edges);
        let params = |threads| RpoParams {
            max_sets: 20_000,
            threads,
            ..Default::default()
        };
        let (pool1, stats1) =
            Rpo::new(params(Parallelism::Single)).build_pool_seeded(&net, master_seed);
        let (pool4, stats4) =
            Rpo::new(params(Parallelism::Fixed(4))).build_pool_seeded(&net, master_seed);
        prop_assert_eq!(stats1, stats4, "RpoStats (timings excluded) must agree");
        assert_pools_identical(&pool1, &pool4);
    }
}

#[test]
fn multi_shard_generation_is_bit_identical() {
    // The property tests above use small pools that the
    // MIN_SETS_PER_SHARD clamp keeps on one thread; this test crosses
    // the floor so the scoped-thread branch (shard bounds arithmetic,
    // output ordering, per-thread epoch buffers) actually executes.
    let n_sets = 8 * RrrPool::MIN_SETS_PER_SHARD + 37;
    let edges: Vec<(u32, u32)> = (0..50u32)
        .flat_map(|i| [(i, (i + 1) % 50), (i, (i * 7 + 3) % 50)])
        .filter(|(u, v)| u != v)
        .collect();
    let net = SocialNetwork::from_directed_edges(50, &edges);
    let single = RrrPool::generate_sharded(&net, n_sets, 0xABCD, 1);
    for threads in [2usize, 4, 8] {
        // Precondition: the clamp must actually grant this many shards.
        assert!(n_sets.div_ceil(RrrPool::MIN_SETS_PER_SHARD) >= threads);
        let sharded = RrrPool::generate_sharded(&net, n_sets, 0xABCD, threads);
        assert_pools_identical(&single, &sharded);
    }
}

#[test]
fn multi_shard_topup_equals_from_scratch() {
    let floor = RrrPool::MIN_SETS_PER_SHARD;
    let (first, target) = (2 * floor + 11, 7 * floor + 5);
    let edges: Vec<(u32, u32)> = (0..40u32).map(|i| (i, (i + 3) % 40)).collect();
    let net = SocialNetwork::from_directed_edges(40, &edges);
    let scratch = RrrPool::generate_sharded(&net, target, 0x5EED, 4);
    let mut grown = RrrPool::generate_sharded(&net, first, 0x5EED, 2);
    assert!(
        (target - first).div_ceil(floor) >= 4,
        "top-up must multi-shard"
    );
    grown.extend_to(&net, target, 4);
    assert_pools_identical(&scratch, &grown);
}

#[test]
fn extend_to_is_noop_at_or_below_current_size() {
    let net = SocialNetwork::from_directed_edges(6, &[(0, 1), (1, 2), (2, 3), (4, 5)]);
    let mut pool = RrrPool::generate_sharded(&net, 100, 7, 2);
    let before = pool.fingerprint();
    pool.extend_to(&net, 50, 4);
    pool.extend_to(&net, 100, 4);
    assert_eq!(pool.n_sets(), 100);
    assert_eq!(pool.fingerprint(), before);
}

#[test]
fn repeated_small_topups_equal_one_big_generation() {
    // The RPO access pattern: many staircase extensions.
    let net = SocialNetwork::from_directed_edges(
        10,
        &[
            (0, 1),
            (1, 2),
            (2, 0),
            (3, 4),
            (5, 6),
            (6, 7),
            (8, 9),
            (2, 5),
        ],
    );
    let scratch = RrrPool::generate_sharded(&net, 777, 0xFEED, 1);
    let mut grown = RrrPool::generate_sharded(&net, 0, 0xFEED, 3);
    for target in [1usize, 2, 10, 11, 64, 300, 301, 777] {
        grown.extend_to(&net, target, 3);
        assert_eq!(grown.n_sets(), target);
    }
    assert_pools_identical(&scratch, &grown);
}
