//! The chunked [`RrrPool`] against a plain-vector model, step by step.
//!
//! [`Model`] keeps a pool's live window the plainest way there is: one
//! `Vec` per set, the roots, and the stream index of live set 0. It
//! follows the rules the pool documents, through the public samplers.
//! Every script drives a pool and the model in lockstep and compares
//! them after every step: set count, stream base, every set and root,
//! every worker's live sets (the transpose of the model's sets), and
//! the fingerprint. The long rotation script thereby checks the pool's
//! two-level membership index, which renumbers only when it compacts,
//! worker by worker through three full turnovers with fold-ins.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use sc_influence::rrr::sample_rrr_set_alloc;
use sc_influence::{RrrPool, SocialNetwork};

/// A pool's live window as plain vectors.
#[derive(Default)]
struct Model {
    seed: u64,
    n_workers: usize,
    /// Stream index of live set 0.
    base: usize,
    roots: Vec<u32>,
    sets: Vec<Vec<u32>>,
}

impl Model {
    /// Grows the window to `target` sets: stream index `j` draws its
    /// root, then its set, from `seed_from_stream(seed, j)` on `net`.
    fn extend_to(&mut self, net: &SocialNetwork, target: usize) {
        for j in self.base + self.sets.len()..self.base + target {
            let mut rng = SmallRng::seed_from_stream(self.seed, j as u64);
            let root = rng.random_range(0..net.n_workers()) as u32;
            self.roots.push(root);
            self.sets.push(sample_rrr_set_alloc(net, root, &mut rng));
        }
    }

    /// Drops the first `k` sets.
    fn evict(&mut self, k: usize) {
        self.roots.drain(..k);
        self.sets.drain(..k);
        self.base += k;
    }

    /// Folds worker `w` (already in `net`) into the live sets: set `j`
    /// seeds one RNG, draws a coin for each friend of `w` it holds,
    /// friends in ascending id order, and `w` joins at the first hit.
    fn fold_in(&mut self, net: &SocialNetwork, w: u32) -> usize {
        self.n_workers = net.n_workers();
        let mut friends = net.informs(w).to_vec();
        friends.sort_unstable();
        let fold_seed = rand::mix_stream(self.seed, 0xF01D ^ w as u64);
        let mut joined = 0;
        for (j, set) in self.sets.iter_mut().enumerate() {
            let mut rng = SmallRng::seed_from_stream(fold_seed, (self.base + j) as u64);
            let mut held = friends.iter().filter(|v| set.contains(v));
            if held.any(|&v| rng.random_bool(net.inform_probability(v))) {
                set.push(w);
                joined += 1;
            }
        }
        joined
    }

    /// FNV-1a over the set count, the roots, a leading 0, the
    /// cumulative ends, then the members.
    fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |v: u64| h = (h ^ v).wrapping_mul(0x100_0000_01b3);
        eat(self.sets.len() as u64);
        self.roots.iter().for_each(|&r| eat(r as u64));
        eat(0);
        let mut end = 0;
        for set in &self.sets {
            end += set.len() as u64;
            eat(end);
        }
        self.sets.iter().flatten().for_each(|&m| eat(m as u64));
        h
    }
}

/// A network, a pool on it and the pool's model, driven in lockstep.
struct Lockstep {
    net: SocialNetwork,
    pool: RrrPool,
    model: Model,
}

impl Lockstep {
    fn new(net: SocialNetwork, n_sets: usize, seed: u64, threads: usize) -> Self {
        let pool = RrrPool::generate_sharded(&net, n_sets, seed, threads);
        let model = Model {
            seed,
            n_workers: net.n_workers(),
            ..Model::default()
        };
        let mut s = Lockstep { net, pool, model };
        s.model.extend_to(&s.net, n_sets);
        s.check(&format!("generation of {n_sets} sets at {threads} threads"));
        s
    }

    /// The pool and the model hold the same live window.
    fn check(&self, step: &str) {
        let (pool, model) = (&self.pool, &self.model);
        assert_eq!(pool.n_sets(), model.sets.len(), "{step}: set count");
        assert_eq!(pool.n_workers(), model.n_workers, "{step}: worker count");
        assert_eq!(pool.stream_base(), model.base, "{step}: stream base");
        assert_eq!(pool.roots(), &model.roots[..], "{step}: roots");
        let mut live_sets = vec![Vec::new(); model.n_workers];
        for (j, set) in model.sets.iter().enumerate() {
            assert_eq!(pool.set(j), &set[..], "{step}: set {j}");
            for &w in set {
                live_sets[w as usize].push(j as u32);
            }
        }
        for (w, ids) in live_sets.iter().enumerate() {
            let got: Vec<u32> = pool.sets_containing(w as u32).collect();
            assert_eq!(&got, ids, "{step}: live sets of worker {w}");
        }
        assert_eq!(pool.fingerprint(), model.fingerprint(), "{step}: digest");
    }

    /// Evicts `k` sets older than `min_epoch` — exactly `k` must go.
    fn evict(&mut self, min_epoch: u32, k: usize, step: &str) {
        let evicted = self.pool.evict_before_epoch(min_epoch, k);
        assert_eq!(evicted, k, "{step}: evicted");
        self.model.evict(k);
        self.check(step);
    }

    /// Grows both to `target` sets, the pool on `threads` shards.
    fn extend(&mut self, target: usize, threads: usize) {
        self.pool.extend_to(&self.net, target, threads);
        self.model.extend_to(&self.net, target);
        self.check(&format!("growth to {target} sets"));
    }

    /// Folds the next worker, befriending `friends`, into all three.
    fn fold_in(&mut self, friends: &[u32]) {
        self.net = self.net.fold_in_worker(friends);
        let w = self.pool.n_workers() as u32;
        let joined = self.pool.fold_in_worker(&self.net, w);
        let expected = self.model.fold_in(&self.net, w);
        assert_eq!(joined, expected, "sets joined by worker {w}");
        assert!(joined > 0, "worker {w} joined no set: no coin was checked");
        self.check(&format!("fold-in of worker {w}"));
    }
}

fn sparse_net(n: usize, seed: u64) -> SocialNetwork {
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

#[test]
fn generation_matches_the_model_at_any_thread_count() {
    // Far more workers than a block's sets touch, so a visited mark can
    // survive from one block to the next: a sampler that restarted its
    // epochs per block would skip live in-neighbours.
    for n_sets in [0usize, 1, 500, 3_000] {
        for threads in [1usize, 4] {
            Lockstep::new(sparse_net(10_000, 3), n_sets, 0xC0FFEE, threads);
        }
    }
}

#[test]
fn rotation_matches_the_model() {
    // Evict + extend cycles at a thread count that changes every round.
    let mut s = Lockstep::new(sparse_net(90, 5), 4_000, 0xAB, 4);
    for round in 0..6 {
        let epoch = s.pool.advance_epoch();
        if epoch > 2 {
            s.evict(epoch - 2, 700, &format!("round {round}"));
        }
        s.extend((s.pool.n_sets() + 700).min(4_000), 1 + round % 4);
    }
    assert_eq!(s.pool.stream_base(), 4 * 700, "four rounds evicted");
}

#[test]
fn long_rotation_with_fold_ins_matches_the_model() {
    // Three full turnovers of a 3,000-set pool, 256 sets out and in per
    // round for 40 rounds: the membership index rotates in place and
    // compacts every few rounds. Workers fold in before the first
    // eviction, between an eviction and the next extension (the
    // engine's order), and right after a compaction.
    let mut s = Lockstep::new(sparse_net(90, 8), 3_000, 0x10C, 2);
    s.fold_in(&[1, 7, 20]);
    let (mut mid_round, mut after_compaction) = (false, false);
    for round in 0..40 {
        let epoch = s.pool.advance_epoch();
        s.evict(epoch, 256, &format!("round {round}"));
        if s.pool.membership().is_compact() {
            if !after_compaction {
                after_compaction = true;
                s.fold_in(&[3, 40, 88]);
            }
        } else if round > 0 && !mid_round {
            // Dead entries and a tail of the last round's sets.
            mid_round = true;
            s.fold_in(&[0, 45]);
        }
        s.extend(3_000, 3);
    }
    assert!(mid_round && after_compaction, "every fold-in point was hit");
    assert!(s.pool.stream_base() >= 3 * 3_000, "three full turnovers");
}

#[test]
fn fold_in_then_rotation_matches_the_model() {
    let mut s = Lockstep::new(sparse_net(40, 6), 3_000, 0xF0, 2);
    s.fold_in(&[1, 7, 20]);
    s.pool.advance_epoch();
    s.evict(1, 800, "eviction after the fold-in");
    s.extend(3_000, 3);
}

#[test]
fn fold_in_after_partial_eviction_matches_the_model() {
    // The online engine's real order: rotate, leaving a dead prefix in
    // the head segment (700 sets is no block multiple), then fold a
    // worker in — the splice must drain from the live cursor.
    let mut s = Lockstep::new(sparse_net(40, 6), 3_000, 0xF1, 2);
    s.pool.advance_epoch();
    s.evict(1, 700, "partial eviction");
    s.fold_in(&[2, 9, 31]);
    s.extend(3_000, 3);
}

#[test]
fn chunked_transients_are_additive() {
    // Growth overhead above the live data is a few fixed-size segments.
    use sc_influence::arena::SEG_BYTES;
    let mut s = Lockstep::new(sparse_net(200, 7), 2_000, 0x5CA1E, 2);
    for target in [4_000usize, 8_000, 16_000] {
        s.extend(target, 2);
    }
    let m = s.pool.mem_stats();
    let bound = m.live_bytes + 6 * SEG_BYTES;
    assert!(
        m.peak_bytes <= bound,
        "peak {} above live + 6 segments",
        m.peak_bytes
    );
}
