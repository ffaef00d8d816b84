//! Random Reverse Reachable set sampling (paper Definition 5).
//!
//! An RRR set for root `v` is sampled by a reverse BFS from `v` in which
//! the edge from in-neighbour `u` into the *currently expanded* node `w`
//! is live independently with probability `1/indeg(w)` — exactly the IC
//! edge weights. By Lemma 2, `Pr[u ∈ RRR(v)] = Pr[cascade from u informs
//! v]`, which is what every estimator in [`crate::pool`] builds on.

use crate::network::SocialNetwork;
use rand::{Rng, RngExt};

/// Samples one RRR set rooted at `root`. The returned set contains the
/// root itself plus every worker whose cascade would have reached it, in
/// discovery order (root first).
///
/// `visited_epoch`/`epoch` implement O(1) reset between samples: callers
/// reuse the buffers across millions of sets.
///
/// # Contract
///
/// `root` must be a valid worker id (`root < net.n_workers()`).
/// Out-of-range roots **panic** — consistent with `sc_graph::CsrGraph`,
/// which panics on out-of-range nodes — instead of silently producing an
/// empty set that would bias every pool estimator built on top.
pub fn sample_rrr_set<R: Rng + ?Sized>(
    net: &SocialNetwork,
    root: u32,
    rng: &mut R,
    visited_epoch: &mut [u32],
    epoch: u32,
    out: &mut Vec<u32>,
) {
    out.clear();
    debug_assert_eq!(visited_epoch.len(), net.n_workers());
    debug_assert!(
        (root as usize) < net.n_workers(),
        "RRR root {root} out of range (|W| = {})",
        net.n_workers()
    );
    visited_epoch[root as usize] = epoch;
    out.push(root);
    let mut cursor = 0usize;
    while cursor < out.len() {
        let w = out[cursor];
        cursor += 1;
        let p = net.inform_probability(w);
        if p <= 0.0 {
            continue;
        }
        for &u in net.informed_by(w) {
            if visited_epoch[u as usize] != epoch && rng.random_bool(p) {
                visited_epoch[u as usize] = epoch;
                out.push(u);
            }
        }
    }
}

/// Convenience wrapper allocating fresh buffers (tests and one-off use).
pub fn sample_rrr_set_alloc<R: Rng + ?Sized>(
    net: &SocialNetwork,
    root: u32,
    rng: &mut R,
) -> Vec<u32> {
    let mut visited = vec![0u32; net.n_workers()];
    let mut out = Vec::new();
    sample_rrr_set(net, root, rng, &mut visited, 1, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn root_is_always_in_its_set() {
        let net = SocialNetwork::from_directed_edges(3, &[(0, 1), (1, 2)]);
        let mut rng = SmallRng::seed_from_u64(0);
        for root in 0..3 {
            let set = sample_rrr_set_alloc(&net, root, &mut rng);
            assert_eq!(set[0], root);
        }
    }

    #[test]
    fn deterministic_chain_reaches_all_ancestors() {
        // indegrees are all 1 → edges always live → RRR(3) = {3,2,1,0}.
        let net = SocialNetwork::from_directed_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut set = sample_rrr_set_alloc(&net, 3, &mut rng);
        set.sort_unstable();
        assert_eq!(set, vec![0, 1, 2, 3]);
    }

    #[test]
    fn no_in_edges_means_singleton() {
        let net = SocialNetwork::from_directed_edges(3, &[(0, 1), (0, 2)]);
        let mut rng = SmallRng::seed_from_u64(2);
        assert_eq!(sample_rrr_set_alloc(&net, 0, &mut rng), vec![0]);
    }

    #[test]
    fn membership_frequency_matches_forward_cascade() {
        // Lemma 2 on a small graph: Pr[0 ∈ RRR(2)] should equal the
        // forward probability that a cascade from 0 informs 2 (≈ 3/4,
        // see the cascade test with the same topology).
        let net = SocialNetwork::from_directed_edges(3, &[(0, 1), (0, 2), (1, 2)]);
        let mut rng = SmallRng::seed_from_u64(3);
        let trials = 40_000;
        let mut hits = 0;
        let mut visited = vec![0u32; 3];
        let mut set = Vec::new();
        for epoch in 1..=trials {
            sample_rrr_set(&net, 2, &mut rng, &mut visited, epoch, &mut set);
            if set.contains(&0) {
                hits += 1;
            }
        }
        let p = hits as f64 / trials as f64;
        assert!((p - 0.75).abs() < 0.01, "estimated {p}");
    }

    #[test]
    fn epoch_reuse_isolates_samples() {
        let net = SocialNetwork::from_directed_edges(2, &[(0, 1)]);
        let mut rng = SmallRng::seed_from_u64(4);
        let mut visited = vec![0u32; 2];
        let mut set = Vec::new();
        sample_rrr_set(&net, 1, &mut rng, &mut visited, 1, &mut set);
        let first = set.clone();
        sample_rrr_set(&net, 1, &mut rng, &mut visited, 2, &mut set);
        // Both must start with the root regardless of buffer reuse.
        assert_eq!(first[0], 1);
        assert_eq!(set[0], 1);
    }

    #[test]
    #[should_panic]
    fn out_of_range_root_panics() {
        // Contract: roots must be in range; a debug assertion (or the
        // buffer bounds check in release) rejects them loudly instead of
        // returning a biased empty set.
        let net = SocialNetwork::from_directed_edges(2, &[(0, 1)]);
        let mut rng = SmallRng::seed_from_u64(5);
        let _ = sample_rrr_set_alloc(&net, 7, &mut rng);
    }

    #[test]
    fn sets_never_contain_duplicates() {
        // Dense graph with a cycle.
        let net = SocialNetwork::from_directed_edges(4, &[(0, 1), (1, 2), (2, 0), (3, 0), (2, 3)]);
        let mut rng = SmallRng::seed_from_u64(6);
        for _ in 0..200 {
            let set = sample_rrr_set_alloc(&net, 0, &mut rng);
            let mut sorted = set.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), set.len());
        }
    }
}
