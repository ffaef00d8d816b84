//! The pre-chunking contiguous RRR pool, kept as a reference baseline.
//!
//! [`ContiguousPool`] is the doubling-`Vec` CSR layout [`RrrPool`]
//! (../pool.rs) used before the chunked-arena refactor: one flat
//! `set_offsets`/`set_members` pair for the sets and one
//! `member_offsets`/`member_sets` pair for the membership index, grown
//! by splicing shard outputs and rebuilt wholesale on eviction and
//! fold-in. It exists for two jobs:
//!
//! 1. **Equality oracle** — the chunked pool must be set-for-set and
//!    fingerprint-identical to this layout for every operation
//!    (generation, growth, eviction, fold-in) at any thread count; the
//!    `chunked_pool_equality` suite pins that.
//! 2. **Memory baseline** — `bench_scale` A/Bs the two layouts. This
//!    pool deliberately keeps the old allocation story (shard-output
//!    splice copies, full replacement arenas on eviction/fold-in), so
//!    its deterministic [`ContiguousPool::mem_stats`] peak exhibits the
//!    transient ~2× the refactor removes.
//!
//! Sampling is shared with the chunked pool
//! ([`sample_stream_range`](crate::pool)), so the two layouts draw
//! identical RNG bytes by construction.
//!
//! Production code should use [`RrrPool`]; nothing outside the equality
//! tests and `bench_scale` should depend on this type.
//!
//! [`RrrPool`]: crate::RrrPool

use crate::network::SocialNetwork;
use crate::pool::{sample_stream_range, PoolMemStats, PropagationModel};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// One shard's output: sets `[lo, hi)` in index order, ready to splice
/// into the arena (the pre-chunking transfer format — note the
/// `members` copy the chunked pool no longer makes).
struct ShardOut {
    roots: Vec<u32>,
    lens: Vec<u32>,
    members: Vec<u32>,
}

/// The pre-chunking contiguous-CSR RRR pool (see module docs).
#[derive(Debug, Clone, Default)]
pub struct ContiguousPool {
    n_workers: usize,
    master_seed: u64,
    model: PropagationModel,
    stream_base: usize,
    epoch: u32,
    roots: Vec<u32>,
    set_epochs: Vec<u32>,
    /// CSR arena of set members.
    set_offsets: Vec<u32>,
    set_members: Vec<u32>,
    /// CSR index: worker -> ids of sets containing it.
    member_offsets: Vec<u32>,
    member_sets: Vec<u32>,
    /// High-water mark of allocated bytes across mutation checkpoints.
    peak_bytes: usize,
}

impl ContiguousPool {
    /// Samples a pool of `n_sets` sets on up to `threads` shards —
    /// bit-identical to [`RrrPool::generate_sharded`](crate::RrrPool::generate_sharded)
    /// with the same arguments.
    pub fn generate_sharded(
        net: &SocialNetwork,
        n_sets: usize,
        model: PropagationModel,
        master_seed: u64,
        threads: usize,
    ) -> Self {
        let n = net.n_workers();
        let mut pool = ContiguousPool {
            n_workers: n,
            master_seed,
            model,
            stream_base: 0,
            epoch: 0,
            roots: Vec::new(),
            set_epochs: Vec::new(),
            set_offsets: vec![0u32],
            set_members: Vec::new(),
            member_offsets: vec![0u32; n + 1],
            member_sets: Vec::new(),
            peak_bytes: 0,
        };
        pool.extend_to(net, n_sets, threads);
        pool
    }

    /// Grows the pool to `target` live sets by the pre-chunking splice:
    /// every shard materializes a members `Vec` (doubling growth) and
    /// the arena copies all of them — the old arena, the shard copies,
    /// and the reserve live simultaneously, which is the transient the
    /// chunked layout's zero-copy adoption removes.
    pub fn extend_to(&mut self, net: &SocialNetwork, target: usize, threads: usize) {
        debug_assert_eq!(net.n_workers(), self.n_workers, "pool/network mismatch");
        let first_new = self.n_sets();
        if self.n_workers == 0 || target <= first_new {
            return;
        }
        let count = target - first_new;
        let threads = threads.clamp(1, count.div_ceil(crate::RrrPool::MIN_SETS_PER_SHARD).max(1));
        let s_lo = self.stream_base + first_new;

        let (model, seed) = (self.model, self.master_seed);
        let outs: Vec<ShardOut> = sc_stats::par::map_shards(count, threads, |lo, hi| {
            let mut roots = Vec::with_capacity(hi - lo);
            let mut lens = Vec::with_capacity(hi - lo);
            let mut members = Vec::new();
            sample_stream_range(net, model, seed, s_lo + lo, s_lo + hi, |root, set| {
                roots.push(root);
                lens.push(set.len() as u32);
                members.extend_from_slice(set);
            });
            ShardOut {
                roots,
                lens,
                members,
            }
        });

        self.roots.reserve(count);
        self.set_offsets.reserve(count);
        let added: usize = outs.iter().map(|o| o.members.len()).sum();
        self.set_members.reserve(added);
        // Checkpoint: reserved arena + every shard's private copy.
        let outs_bytes: usize = outs
            .iter()
            .map(|o| 4 * (o.roots.capacity() + o.lens.capacity() + o.members.capacity()))
            .sum();
        self.note_peak_abs(self.current_bytes() + outs_bytes);
        for out in outs {
            self.roots.extend_from_slice(&out.roots);
            self.set_members.extend_from_slice(&out.members);
            for len in out.lens {
                let next = self.set_offsets.last().unwrap() + len;
                self.set_offsets.push(next);
            }
        }
        self.set_epochs.resize(self.roots.len(), self.epoch);
        self.note_peak();
        self.index_new_sets(first_new);
    }

    /// Bumps the sampling epoch and returns the new value.
    pub fn advance_epoch(&mut self) -> u32 {
        self.epoch += 1;
        self.epoch
    }

    /// Number of live sets sampled before `min_epoch`.
    pub fn stale_sets(&self, min_epoch: u32) -> usize {
        self.set_epochs.partition_point(|&e| e < min_epoch)
    }

    /// The pre-chunking eviction: the membership index is rebuilt into a
    /// **full replacement arena** (`kept`), so old + new coexist — the
    /// transient-2× the chunked pool's dead-count eviction avoids.
    pub fn evict_before_epoch(&mut self, min_epoch: u32, max_evict: usize) -> usize {
        let k = self.stale_sets(min_epoch).min(max_evict);
        if k == 0 {
            return 0;
        }
        let cut = self.set_offsets[k] as usize;

        self.roots.drain(..k);
        self.set_epochs.drain(..k);
        self.set_members.drain(..cut);
        self.set_offsets.drain(..k);
        for o in &mut self.set_offsets {
            *o -= cut as u32;
        }

        let kk = k as u32;
        let n = self.n_workers;
        let mut offsets = vec![0u32; n + 1];
        let mut kept = Vec::with_capacity(self.member_sets.len() - cut);
        for w in 0..n {
            let lo = self.member_offsets[w] as usize;
            let hi = self.member_offsets[w + 1] as usize;
            let run = &self.member_sets[lo..hi];
            let keep_from = run.partition_point(|&j| j < kk);
            kept.extend(run[keep_from..].iter().map(|&j| j - kk));
            offsets[w + 1] = kept.len() as u32;
        }
        debug_assert_eq!(kept.len(), self.member_sets.len() - cut);
        // Checkpoint: replacement + original index both live.
        let replacement = 4 * (offsets.capacity() + kept.capacity());
        self.note_peak_abs(self.current_bytes() + replacement);
        self.member_offsets = offsets;
        self.member_sets = kept;

        self.stream_base += k;
        k
    }

    /// The pre-chunking fold-in: joins the worker to live sets by the
    /// same coins as [`RrrPool::fold_in_worker`](crate::RrrPool::fold_in_worker)
    /// and splices the set arena through a full replacement copy.
    pub fn fold_in_worker(&mut self, net: &SocialNetwork, worker: u32) -> usize {
        assert_eq!(
            worker as usize, self.n_workers,
            "fold-in worker id must be the old population size"
        );
        assert_eq!(
            net.n_workers(),
            self.n_workers + 1,
            "fold the network first: pool has {} workers, network {}",
            self.n_workers,
            net.n_workers()
        );
        self.n_workers += 1;

        let mut pulls: Vec<(u32, u32)> = Vec::new();
        for &v in net.informs(worker) {
            for &j in self.sets_containing(v) {
                pulls.push((j, v));
            }
        }
        pulls.sort_unstable();

        let fold_seed = rand::mix_stream(self.master_seed, 0xF01D ^ worker as u64);
        let mut joined: Vec<u32> = Vec::new();
        let mut i = 0;
        while i < pulls.len() {
            let j = pulls[i].0;
            let mut rng =
                SmallRng::seed_from_stream(fold_seed, (self.stream_base + j as usize) as u64);
            let mut hit = false;
            while i < pulls.len() && pulls[i].0 == j {
                let v = pulls[i].1;
                if !hit && rng.random_bool(net.inform_probability(v)) {
                    hit = true;
                }
                i += 1;
            }
            if hit {
                joined.push(j);
            }
        }

        let last = *self.member_offsets.last().expect("offsets non-empty");
        self.member_offsets.push(last + joined.len() as u32);
        self.member_sets.extend_from_slice(&joined);

        if !joined.is_empty() {
            let mut offsets = Vec::with_capacity(self.set_offsets.len());
            let mut members = Vec::with_capacity(self.set_members.len() + joined.len());
            offsets.push(0u32);
            let mut ji = 0;
            for j in 0..self.n_sets() {
                let lo = self.set_offsets[j] as usize;
                let hi = self.set_offsets[j + 1] as usize;
                members.extend_from_slice(&self.set_members[lo..hi]);
                if ji < joined.len() && joined[ji] == j as u32 {
                    members.push(worker);
                    ji += 1;
                }
                offsets.push(members.len() as u32);
            }
            // Checkpoint: replacement + original arena both live.
            let replacement = 4 * (offsets.capacity() + members.capacity());
            self.note_peak_abs(self.current_bytes() + replacement);
            self.set_offsets = offsets;
            self.set_members = members;
        }
        joined.len()
    }

    /// The pre-chunking index top-up: a full `merged` replacement copy
    /// of the membership index (old + new coexist).
    fn index_new_sets(&mut self, first_new: usize) {
        let n = self.n_workers;
        if n == 0 {
            return;
        }
        debug_assert_eq!(self.member_offsets.len(), n + 1);
        let new_lo = self.set_offsets[first_new] as usize;
        let mut add = vec![0u32; n];
        for &w in &self.set_members[new_lo..] {
            add[w as usize] += 1;
        }
        let mut offsets = vec![0u32; n + 1];
        for w in 0..n {
            let old_len = self.member_offsets[w + 1] - self.member_offsets[w];
            offsets[w + 1] = offsets[w] + old_len + add[w];
        }
        let mut merged = vec![0u32; offsets[n] as usize];
        let mut cursor = vec![0u32; n];
        for w in 0..n {
            let src_lo = self.member_offsets[w] as usize;
            let src_hi = self.member_offsets[w + 1] as usize;
            let dst = offsets[w] as usize;
            merged[dst..dst + (src_hi - src_lo)].copy_from_slice(&self.member_sets[src_lo..src_hi]);
            cursor[w] = offsets[w] + (src_hi - src_lo) as u32;
        }
        for j in first_new..self.n_sets() {
            let lo = self.set_offsets[j] as usize;
            let hi = self.set_offsets[j + 1] as usize;
            for &w in &self.set_members[lo..hi] {
                merged[cursor[w as usize] as usize] = j as u32;
                cursor[w as usize] += 1;
            }
        }
        // Checkpoint: merged replacement + scratch + original index.
        let replacement =
            4 * (offsets.capacity() + merged.capacity() + cursor.capacity() + add.capacity());
        self.note_peak_abs(self.current_bytes() + replacement);
        self.member_offsets = offsets;
        self.member_sets = merged;
    }

    fn current_bytes(&self) -> usize {
        4 * (self.roots.capacity()
            + self.set_epochs.capacity()
            + self.set_offsets.capacity()
            + self.set_members.capacity()
            + self.member_offsets.capacity()
            + self.member_sets.capacity())
    }

    fn note_peak(&mut self) {
        let b = self.current_bytes();
        self.note_peak_abs(b);
    }

    fn note_peak_abs(&mut self, bytes: usize) {
        if bytes > self.peak_bytes {
            self.peak_bytes = bytes;
        }
    }

    /// Deterministic byte accounting, same contract as
    /// [`RrrPool::mem_stats`](crate::RrrPool::mem_stats).
    pub fn mem_stats(&self) -> PoolMemStats {
        let live = 4
            * (self.roots.len()
                + self.set_epochs.len()
                + self.set_offsets.len()
                + self.set_members.len()
                + self.member_offsets.len()
                + self.member_sets.len());
        let capacity = self.current_bytes();
        PoolMemStats {
            live_bytes: live,
            capacity_bytes: capacity,
            peak_bytes: self.peak_bytes.max(capacity),
        }
    }

    /// Same digest definition as
    /// [`RrrPool::fingerprint`](crate::RrrPool::fingerprint): equal
    /// pools yield equal values across the two layouts.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x100_0000_01b3);
        };
        eat(self.n_sets() as u64);
        for &r in &self.roots {
            eat(r as u64);
        }
        for &o in &self.set_offsets {
            eat(o as u64);
        }
        for &m in &self.set_members {
            eat(m as u64);
        }
        h
    }

    /// Number of sets `N`.
    #[inline]
    pub fn n_sets(&self) -> usize {
        self.roots.len()
    }

    /// Number of workers `|W|`.
    #[inline]
    pub fn n_workers(&self) -> usize {
        self.n_workers
    }

    /// Members of set `j` (root first).
    #[inline]
    pub fn set(&self, j: usize) -> &[u32] {
        let lo = self.set_offsets[j] as usize;
        let hi = self.set_offsets[j + 1] as usize;
        &self.set_members[lo..hi]
    }

    /// Root of set `j`.
    #[inline]
    pub fn root(&self, j: usize) -> u32 {
        self.roots[j]
    }

    /// Ids of sets containing `worker`.
    #[inline]
    pub fn sets_containing(&self, worker: u32) -> &[u32] {
        let lo = self.member_offsets[worker as usize] as usize;
        let hi = self.member_offsets[worker as usize + 1] as usize;
        &self.member_sets[lo..hi]
    }

    /// Stream index of live set 0.
    #[inline]
    pub fn stream_base(&self) -> usize {
        self.stream_base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> SocialNetwork {
        SocialNetwork::from_directed_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn contiguous_pool_self_consistency() {
        let net = net();
        let pool =
            ContiguousPool::generate_sharded(&net, 800, PropagationModel::WeightedCascade, 7, 2);
        assert_eq!(pool.n_sets(), 800);
        for j in 0..pool.n_sets() {
            assert_eq!(pool.set(j)[0], pool.root(j));
            for &w in pool.set(j) {
                assert!(pool.sets_containing(w).contains(&(j as u32)));
            }
        }
    }

    #[test]
    fn eviction_peak_shows_replacement_copy() {
        let net = net();
        let mut pool =
            ContiguousPool::generate_sharded(&net, 4_000, PropagationModel::WeightedCascade, 8, 1);
        let before = pool.mem_stats();
        pool.advance_epoch();
        pool.evict_before_epoch(1, 100);
        let after = pool.mem_stats();
        // The rebuild allocates a near-full replacement index on top of
        // the old one, so the peak strictly exceeds the pre-eviction
        // footprint.
        assert!(after.peak_bytes > before.capacity_bytes);
    }
}
