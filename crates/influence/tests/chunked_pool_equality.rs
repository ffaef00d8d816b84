//! Chunked pool == contiguous pool, set-for-set.
//!
//! The chunked-arena [`RrrPool`] must be indistinguishable from the
//! pre-chunking [`ContiguousPool`] through every operation — the
//! refactor changed the allocation story, never the bytes. This suite
//! runs in the release-CI determinism job: both layouts are driven
//! through the same scripts (generation at several thread counts,
//! rotation, fold-in) and compared set-for-set, membership-for-
//! membership, and by fingerprint. The contiguous pool renumbers its
//! membership index on every eviction, so it is also the independent
//! oracle for the chunked pool's two-level index, which renumbers only
//! when it compacts.

use sc_influence::{ContiguousPool, PropagationModel, RrrPool, SocialNetwork};

fn sparse_net(n: usize, seed: u64) -> SocialNetwork {
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for v in 1..n as u32 {
        edges.push((rng.random_range(0..v), v));
        if rng.random_bool(0.5) {
            edges.push((rng.random_range(0..v), v));
        }
    }
    SocialNetwork::from_directed_edges(n, &edges)
}

/// Full structural comparison through the public query APIs.
fn assert_layouts_equal(chunked: &RrrPool, contiguous: &ContiguousPool) {
    assert_eq!(chunked.n_sets(), contiguous.n_sets());
    assert_eq!(chunked.n_workers(), contiguous.n_workers());
    assert_eq!(chunked.stream_base(), contiguous.stream_base());
    assert_eq!(
        chunked.fingerprint(),
        contiguous.fingerprint(),
        "fingerprints must agree across layouts"
    );
    for j in 0..chunked.n_sets() {
        assert_eq!(chunked.set(j), contiguous.set(j), "set {j} differs");
        assert_eq!(chunked.root(j), contiguous.root(j));
    }
    for w in 0..chunked.n_workers() as u32 {
        assert_eq!(
            chunked.sets_containing(w).collect::<Vec<_>>(),
            contiguous.sets_containing(w),
            "membership of worker {w} differs"
        );
    }
}

#[test]
fn generation_equal_across_layouts_and_threads() {
    let net = sparse_net(120, 3);
    for n_sets in [0usize, 1, 500, 3_000] {
        for threads in [1usize, 4] {
            let chunked = RrrPool::generate_sharded(
                &net,
                n_sets,
                PropagationModel::WeightedCascade,
                0xC0FFEE,
                threads,
            );
            let contiguous = ContiguousPool::generate_sharded(
                &net,
                n_sets,
                PropagationModel::WeightedCascade,
                0xC0FFEE,
                threads,
            );
            assert_layouts_equal(&chunked, &contiguous);
        }
    }
}

#[test]
fn lt_generation_equal_across_layouts() {
    let net = sparse_net(60, 4);
    let chunked =
        RrrPool::generate_sharded(&net, 2_000, PropagationModel::LinearThreshold, 0xBEEF, 3);
    let contiguous =
        ContiguousPool::generate_sharded(&net, 2_000, PropagationModel::LinearThreshold, 0xBEEF, 1);
    assert_layouts_equal(&chunked, &contiguous);
}

#[test]
fn rotation_equal_across_layouts() {
    // Evict + extend cycles: the chunked pool compacts in place while
    // the contiguous pool rebuilds — same live window either way.
    let net = sparse_net(90, 5);
    let mut chunked =
        RrrPool::generate_sharded(&net, 4_000, PropagationModel::WeightedCascade, 0xAB, 4);
    let mut contiguous =
        ContiguousPool::generate_sharded(&net, 4_000, PropagationModel::WeightedCascade, 0xAB, 2);
    for round in 0..6 {
        let epoch = chunked.advance_epoch();
        assert_eq!(contiguous.advance_epoch(), epoch);
        if epoch > 2 {
            let a = chunked.evict_before_epoch(epoch - 2, 700);
            let b = contiguous.evict_before_epoch(epoch - 2, 700);
            assert_eq!(a, b, "round {round}: eviction counts differ");
        }
        let target = chunked.n_sets() + 700;
        chunked.extend_to(&net, target.min(4_000), 4);
        contiguous.extend_to(&net, target.min(4_000), 1);
        assert_layouts_equal(&chunked, &contiguous);
    }
    assert!(chunked.stream_base() > 0, "rotation must have evicted");
}

/// Folds the next worker, befriending `friends`, into the network and
/// both pools, and compares the layouts.
fn fold_in_both(
    net: &mut SocialNetwork,
    chunked: &mut RrrPool,
    contiguous: &mut ContiguousPool,
    friends: &[u32],
) {
    *net = net.fold_in_worker(friends);
    let worker = chunked.n_workers() as u32;
    assert_eq!(
        chunked.fold_in_worker(net, worker),
        contiguous.fold_in_worker(net, worker),
        "join counts differ for worker {worker}"
    );
    assert_layouts_equal(chunked, contiguous);
}

#[test]
fn long_rotation_with_fold_ins_equal_across_layouts() {
    // Over three full turnovers of a 3,000-set pool (256 sets evicted
    // and added per round for 40 rounds), the chunked pool's two-level
    // membership index rotates in place and compacts every few rounds
    // while the contiguous pool renumbers every round. Workers fold in
    // at three points: before the first eviction, between an eviction
    // and the next extension (the engine's order), and right after a
    // compaction.
    let mut net = sparse_net(90, 8);
    let mut chunked =
        RrrPool::generate_sharded(&net, 3_000, PropagationModel::WeightedCascade, 0x10C, 2);
    let mut contiguous =
        ContiguousPool::generate_sharded(&net, 3_000, PropagationModel::WeightedCascade, 0x10C, 1);
    fold_in_both(&mut net, &mut chunked, &mut contiguous, &[1, 7, 20]);

    let (mut mid_round, mut after_compaction) = (false, false);
    for round in 0..40 {
        let epoch = chunked.advance_epoch();
        assert_eq!(contiguous.advance_epoch(), epoch);
        let a = chunked.evict_before_epoch(epoch, 256);
        let b = contiguous.evict_before_epoch(epoch, 256);
        assert_eq!((a, b), (256, 256), "round {round}: eviction counts");
        if chunked.membership().is_compact() {
            if !after_compaction {
                after_compaction = true;
                fold_in_both(&mut net, &mut chunked, &mut contiguous, &[3, 40, 88]);
            }
        } else if round > 0 && !mid_round {
            // Dead entries and a tail of the last round's sets.
            mid_round = true;
            fold_in_both(&mut net, &mut chunked, &mut contiguous, &[0, 45]);
        }
        chunked.extend_to(&net, 3_000, 3);
        contiguous.extend_to(&net, 3_000, 1);
        assert_layouts_equal(&chunked, &contiguous);
    }
    assert!(mid_round && after_compaction, "every fold-in point was hit");
    assert!(
        chunked.stream_base() >= 3 * 3_000,
        "at least three full turnovers"
    );
}

#[test]
fn fold_in_equal_across_layouts() {
    let net = sparse_net(40, 6);
    let mut chunked =
        RrrPool::generate_sharded(&net, 3_000, PropagationModel::WeightedCascade, 0xF0, 2);
    let mut contiguous =
        ContiguousPool::generate_sharded(&net, 3_000, PropagationModel::WeightedCascade, 0xF0, 1);
    let folded_net = net.fold_in_worker(&[1, 7, 20]);
    let ja = chunked.fold_in_worker(&folded_net, 40);
    let jb = contiguous.fold_in_worker(&folded_net, 40);
    assert_eq!(ja, jb, "join counts differ");
    assert_layouts_equal(&chunked, &contiguous);
    // And a rotation on the folded pools stays in lockstep.
    chunked.advance_epoch();
    contiguous.advance_epoch();
    assert_eq!(
        chunked.evict_before_epoch(1, 800),
        contiguous.evict_before_epoch(1, 800)
    );
    chunked.extend_to(&folded_net, 3_000, 3);
    contiguous.extend_to(&folded_net, 3_000, 1);
    assert_layouts_equal(&chunked, &contiguous);
}

#[test]
fn fold_in_after_partial_eviction_equal_across_layouts() {
    // The online engine's real order: rotate (leaving a dead prefix in
    // the chunked head segment) and only then fold a worker in — the
    // splice must drain from the live cursor, not the segment start.
    let net = sparse_net(40, 6);
    let mut chunked =
        RrrPool::generate_sharded(&net, 3_000, PropagationModel::WeightedCascade, 0xF1, 2);
    let mut contiguous =
        ContiguousPool::generate_sharded(&net, 3_000, PropagationModel::WeightedCascade, 0xF1, 1);
    chunked.advance_epoch();
    contiguous.advance_epoch();
    // 700 is no multiple of anything segment-shaped: the survivor runs
    // start mid-segment.
    assert_eq!(
        chunked.evict_before_epoch(1, 700),
        contiguous.evict_before_epoch(1, 700)
    );
    let folded_net = net.fold_in_worker(&[2, 9, 31]);
    let ja = chunked.fold_in_worker(&folded_net, 40);
    let jb = contiguous.fold_in_worker(&folded_net, 40);
    assert_eq!(ja, jb, "join counts differ");
    assert_layouts_equal(&chunked, &contiguous);
    chunked.extend_to(&folded_net, 3_000, 3);
    contiguous.extend_to(&folded_net, 3_000, 1);
    assert_layouts_equal(&chunked, &contiguous);
}

#[test]
fn chunked_transients_are_additive_contiguous_are_multiplicative() {
    // The point of the refactor, asserted deterministically and
    // scale-independently: the chunked pool's transient overhead above
    // live data is bounded by a few fixed-size segments, while the
    // contiguous layout's replacement copies scale with the pool (its
    // peak strictly exceeds even its steady-state allocation). The
    // absolute ordering — chunked peak < contiguous peak — only
    // materializes once live data dwarfs a segment; bench_scale asserts
    // it at 10⁵ workers where it holds by a wide margin.
    use sc_influence::arena::SEG_BYTES;
    let net = sparse_net(200, 7);
    let mut chunked =
        RrrPool::generate_sharded(&net, 2_000, PropagationModel::WeightedCascade, 0x5CA1E, 2);
    let mut contiguous = ContiguousPool::generate_sharded(
        &net,
        2_000,
        PropagationModel::WeightedCascade,
        0x5CA1E,
        2,
    );
    for target in [4_000usize, 8_000, 16_000] {
        chunked.extend_to(&net, target, 2);
        contiguous.extend_to(&net, target, 2);
    }
    assert_eq!(chunked.fingerprint(), contiguous.fingerprint());
    let a = chunked.mem_stats();
    let b = contiguous.mem_stats();
    assert!(
        a.peak_bytes <= a.live_bytes + 6 * SEG_BYTES,
        "chunked peak {} exceeds live {} + 6 segments",
        a.peak_bytes,
        a.live_bytes
    );
    assert!(
        b.peak_bytes > b.capacity_bytes,
        "contiguous growth must show a transient above its steady state \
         (peak {}, capacity {})",
        b.peak_bytes,
        b.capacity_bytes
    );
}
