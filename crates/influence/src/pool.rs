//! A shared pool of RRR sets with the estimators of paper Eq. 3.
//!
//! Algorithm 1 (RPO) is specified per source worker `w_s`, but the sets
//! it generates do not depend on `w_s` — only the final estimation step
//! does. The pool therefore samples `N` sets once (roots uniform at
//! random, per Definition 5) and indexes them two ways:
//!
//! * **membership**: worker → ids of sets containing the worker, and
//! * **roots**: set id → its root.
//!
//! Every per-pair/per-worker quantity is then a linear scan over a
//! membership list:
//!
//! * `σ(w)      = |W|/N · |{j : w ∈ R_j}|`            (Definition 6)
//! * `P_pro(w, r) = |W|/N · |{j : root_j = r, w ∈ R_j}|`   (Eq. 3)
//! * `AP(w)    = |W|/N · |{j : root_j ≠ w, w ∈ R_j}|`  (Σ_i P_pro(w, wᵢ))
//! * weighted form `|W|/N · Σ_{j : w ∈ R_j, root_j ≠ w} weight(root_j)`,
//!   which is exactly the inner sum of the worker-task influence
//!   (Section III-D) with `weight = P_wil(·, s)`.
//!
//! # Storage and parallel generation
//!
//! Sets and the membership index live in chunked
//! [`RunArena`]s — segments of whole runs —
//! so no pool operation ever holds a transient second copy of the live
//! data (see the arena module docs for the per-operation bounds;
//! `bench_scale` asserts the budget at 10⁵–10⁶ workers). Generation is
//! sharded: the RNG of set `j` is derived from
//! `(master_seed, set_index = j)` via [`SeedableRng::seed_from_stream`],
//! so set `j` is the same bytes no matter which shard — or how many
//! threads — sampled it. New sets are cut into fixed blocks of
//! [`RrrPool::MIN_SETS_PER_SHARD`]; shards are contiguous block ranges
//! run on the workspace scheduler, and each block is sealed into a
//! mini-arena whose segments are **adopted** into the pool zero-copy
//! in index order. The pool — its byte accounting included — is
//! therefore **bit-identical at any thread count**, and
//! [`RrrPool::extend_to`] grows a pool to exactly the state a
//! from-scratch generation of the larger size would produce — which is
//! what makes RPO top-ups incremental instead of resampling the whole
//! pool.
//!
//! # Decay and eviction (online maintenance)
//!
//! An online platform keeps a pool alive across assignment rounds, so
//! the pool supports bounded *rotation*: sets carry an epoch tag
//! ([`RrrPool::advance_epoch`]) and [`RrrPool::evict_before_epoch`]
//! drops the oldest sets once they fall behind an eviction horizon.
//! Eviction always removes a *prefix* of the arena (epochs are
//! non-decreasing by construction), so the set arena drops whole
//! segments in place. The membership index ([`MembershipIndex`])
//! stores set ids relative to a moving base instead of live positions,
//! so a rotation renumbers nothing: eviction bumps per-worker dead
//! counts and advances the base, and extension rebuilds only the small
//! tail of recently added sets. A round costs O(quantum), not O(pool).
//! The whole-index passes ([`RunArena::retain_shift`] and
//! [`RunArena::merge_zip`]) run only at the occasional compaction.
//! Evicted stream indices are **never reused**: the live window of a
//! pool that evicted `E` sets covers stream indices
//! `[E, E + n_sets)`, and [`RrrPool::extend_to`] keeps sampling from
//! `E + n_sets` upward. State therefore stays a pure function of
//! `(master_seed, set_index)` — a maintained pool is byte-identical to
//! a from-scratch pool of the same stream window at any thread count.

use crate::arena::RunArena;
use crate::membership::{MembershipIndex, SetIds};
use crate::network::SocialNetwork;
use crate::rrr::sample_rrr_set;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use serde::json::Value;

/// Deterministic byte accounting of a pool's storage (all `u32`
/// arenas). `peak_bytes` is sampled at every mutation checkpoint —
/// including mid-merge transients — and is itself bit-identical at any
/// thread count, which is what lets `bench_scale` assert memory
/// budgets exactly instead of through noisy RSS thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolMemStats {
    /// Bytes of live data (sets + membership + roots + epochs).
    pub live_bytes: usize,
    /// Currently allocated bytes (live + segment slack + eviction
    /// debris awaiting segment turnover).
    pub capacity_bytes: usize,
    /// Largest allocated footprint observed over the pool's lifetime,
    /// including transient merge/rebuild peaks.
    pub peak_bytes: usize,
}

/// A pool of `N` RRR sets over a network of `|W|` workers.
///
/// Serde (snapshot support) carries the pool's state and nothing
/// derived from it: the sets, their epochs, and the
/// `(master_seed, stream_base, epoch)` window, so restored rotations
/// continue the same sampling stream family. Each set's root (its
/// first member), the membership index (the transpose of the sets) and
/// the byte accounting stay out. Restore checks the sets against the
/// population and rebuilds the roots and the index as a cold start
/// builds them ([`RrrPool::extend_to`] from set 0), so every estimator
/// the scorers read is bit-identical; the byte accounting starts from
/// the rebuilt pool.
#[derive(Debug, Clone, Default)]
pub struct RrrPool {
    n_workers: usize,
    /// Seed every set's RNG stream derives from; [`RrrPool::extend_to`]
    /// continues the same stream family.
    master_seed: u64,
    /// Stream index of live set 0 — equivalently, the number of sets
    /// evicted over the pool's lifetime. Live set `j` was seeded from
    /// `(master_seed, stream_base + j)`.
    stream_base: usize,
    /// Sampling epoch stamped onto newly generated sets.
    epoch: u32,
    /// Root of each set. Dense (4 B/set) with exact reservation — the
    /// arenas are the only structures large enough to need chunking.
    roots: Vec<u32>,
    /// Epoch each live set was sampled in (non-decreasing).
    set_epochs: Vec<u32>,
    /// Chunked arena of set-member runs (run `j` = members of set `j`,
    /// root first).
    sets: RunArena,
    /// Worker → live sets index (see [`MembershipIndex`]). Empty until
    /// the first sets are indexed.
    membership: MembershipIndex,
    /// High-water mark of [`RrrPool::current_bytes`] across mutation
    /// checkpoints (not compared by any equality check).
    peak_bytes: usize,
}

/// Samples sets `[lo, hi)`, emitting `(root, members)` per set in index
/// order. Every set's RNG comes from `(master_seed, set_index)`, so the
/// output depends only on the index range — not on which thread runs it
/// or what ran before it. One visited buffer serves the whole range,
/// its epoch counting on across every set.
fn sample_stream_range(
    net: &SocialNetwork,
    master_seed: u64,
    lo: usize,
    hi: usize,
    mut emit: impl FnMut(u32, &[u32]),
) {
    let n = net.n_workers();
    let mut visited = vec![0u32; n];
    let mut buf = Vec::new();
    for j in lo..hi {
        let mut rng = SmallRng::seed_from_stream(master_seed, j as u64);
        let root = rng.random_range(0..n) as u32;
        let epoch = (j - lo + 1) as u32;
        sample_rrr_set(net, root, &mut rng, &mut visited, epoch, &mut buf);
        emit(root, &buf);
    }
}

impl RrrPool {
    /// Sets per generation block. An extension cuts its new sets into
    /// blocks of this many, seals each block into its own arena
    /// segments, and schedules whole blocks over the threads, so the
    /// thread budget passed to [`RrrPool::generate_sharded`] /
    /// [`RrrPool::extend_to`] is clamped to
    /// `ceil(added_sets / MIN_SETS_PER_SHARD)`: below a block, spawn
    /// overhead beats the sampling work. Segment boundaries fall on
    /// block boundaries at any budget, so the sets *and* the byte
    /// accounting are unaffected by it; only the parallel width is.
    pub const MIN_SETS_PER_SHARD: usize = 1024;

    /// Samples a pool of `n_sets` RRR sets with uniformly random roots
    /// under the paper's weighted-cascade IC model, on up to `threads`
    /// shards.
    ///
    /// The pool is **bit-identical for a fixed `master_seed` regardless
    /// of `threads`**: set `j`'s RNG is
    /// `SmallRng::seed_from_stream(master_seed, j)`, so sharding only
    /// changes which thread evaluates an index range, never the bytes.
    pub fn generate_sharded(
        net: &SocialNetwork,
        n_sets: usize,
        master_seed: u64,
        threads: usize,
    ) -> Self {
        let mut pool = RrrPool {
            n_workers: net.n_workers(),
            master_seed,
            stream_base: 0,
            epoch: 0,
            roots: Vec::new(),
            set_epochs: Vec::new(),
            sets: RunArena::new(),
            membership: MembershipIndex::default(),
            peak_bytes: 0,
        };
        pool.extend_to(net, n_sets, threads);
        pool
    }

    /// Grows the pool to `target` live sets (no-op if already that
    /// large).
    ///
    /// Because set `j` depends only on `(master_seed, j)`, the extended
    /// pool is byte-for-byte the pool a from-scratch
    /// [`RrrPool::generate_sharded`] of `target` sets would have
    /// produced. After evictions the new sets continue the stream from
    /// [`RrrPool::stream_base`]` + n_sets` — evicted indices are never
    /// resampled, so a maintained pool equals the from-scratch pool of
    /// its live stream window. New sets are stamped with the current
    /// [`RrrPool::current_epoch`].
    ///
    /// Memory: each block of [`RrrPool::MIN_SETS_PER_SHARD`] new sets
    /// is sealed into an exactly-sized mini-arena whose segments the
    /// pool **adopts** (zero-copy). The new sets' memberships are
    /// scatter-built in set order (so each worker's run is ascending)
    /// into an exactly-sized arena: on a cold start it **is** the
    /// membership index, and on growth it becomes the index's tail,
    /// rebuilt with the tail's live entries (see [`MembershipIndex`]).
    /// The peak is `live + O(tail + delta)` instead of `2 × live`.
    pub fn extend_to(&mut self, net: &SocialNetwork, target: usize, threads: usize) {
        debug_assert_eq!(net.n_workers(), self.n_workers, "pool/network mismatch");
        let first_new = self.n_sets();
        if self.n_workers == 0 || target <= first_new {
            return;
        }
        let count = target - first_new;
        let block = Self::MIN_SETS_PER_SHARD;
        let n_blocks = count.div_ceil(block);
        // First stream index of the new sets: evicted indices stay consumed.
        let s_lo = self.stream_base + first_new;

        // The shared chunked-shard scheduler splits the blocks into
        // contiguous ranges; each shard samples its stream-index window
        // with one visited buffer and seals every block into its own
        // mini-arena, and the pool adopts the segments in block order —
        // the same segments as a single-threaded pass.
        let seed = self.master_seed;
        let outs: Vec<(Vec<u32>, RunArena)> =
            sc_stats::par::map_shards(n_blocks, threads, |b_lo, b_hi| {
                let (lo, hi) = (b_lo * block, (b_hi * block).min(count));
                let mut roots = Vec::with_capacity(hi - lo);
                let mut sets = RunArena::new();
                let (mut data, mut lens) = (Vec::new(), Vec::with_capacity(block));
                sample_stream_range(net, seed, s_lo + lo, s_lo + hi, |root, set| {
                    roots.push(root);
                    data.extend_from_slice(set);
                    lens.push(set.len() as u32);
                    if lens.len() == block || roots.len() == hi - lo {
                        sets.absorb(RunArena::from_runs(&data, &lens));
                        data.clear();
                        lens.clear();
                    }
                });
                (roots, sets)
            });

        self.roots.reserve_exact(count);
        self.set_epochs.reserve_exact(count);
        for (roots, sets) in outs {
            self.roots.extend_from_slice(&roots);
            self.sets.absorb(sets);
        }
        self.set_epochs.resize(self.roots.len(), self.epoch);
        self.index_from(first_new);
    }

    /// Indexes the sets from `first_new` on into the membership index,
    /// checkpointing the byte accounting before and during the build.
    fn index_from(&mut self, first_new: usize) {
        self.note_peak();
        let index_peak = self
            .membership
            .extend(&self.sets, first_new, self.n_workers);
        self.note_index_peak(index_peak);
    }

    /// Bumps the sampling epoch and returns the new value. Sets added by
    /// subsequent [`RrrPool::extend_to`] calls carry the new tag; an
    /// online driver typically advances once per assignment round.
    pub fn advance_epoch(&mut self) -> u32 {
        self.epoch += 1;
        self.epoch
    }

    /// The epoch newly sampled sets are stamped with.
    #[inline]
    pub fn current_epoch(&self) -> u32 {
        self.epoch
    }

    /// Epoch live set `j` was sampled in.
    #[inline]
    pub fn set_epoch(&self, j: usize) -> u32 {
        self.set_epochs[j]
    }

    /// Stream index of live set 0 (== total sets evicted so far). Live
    /// set `j`'s RNG stream is `(master_seed, stream_base + j)`.
    #[inline]
    pub fn stream_base(&self) -> usize {
        self.stream_base
    }

    /// Number of live sets sampled before `min_epoch` (the
    /// eviction-eligible prefix).
    pub fn stale_sets(&self, min_epoch: u32) -> usize {
        self.set_epochs.partition_point(|&e| e < min_epoch)
    }

    /// Drops up to `max_evict` of the oldest sets whose epoch is below
    /// `min_epoch`, returning how many were evicted.
    ///
    /// Epochs are non-decreasing along the arena, so the evicted sets
    /// are always a prefix. The set arena frees whole dead segments and
    /// advances a cursor inside the boundary segment; the membership
    /// index marks each evicted membership dead and advances its base
    /// (see [`MembershipIndex`]), so the cost is `O(evicted
    /// memberships)` — except in the occasional round that compacts the
    /// index. The freed stream indices are retired permanently — see
    /// [`RrrPool::stream_base`] — which preserves the
    /// `(master_seed, set_index)` determinism contract for every
    /// surviving and future set.
    pub fn evict_before_epoch(&mut self, min_epoch: u32, max_evict: usize) -> usize {
        let k = self.stale_sets(min_epoch).min(max_evict);
        if k == 0 {
            return 0;
        }
        // The index reads the evicted sets' members, so it goes first.
        let index_peak = self.membership.evict(&self.sets, k);
        self.note_index_peak(index_peak);
        // Dense prefix drains compact in place (capacity retained).
        self.roots.drain(..k);
        self.set_epochs.drain(..k);
        self.sets.evict_front(k);
        self.stream_base += k;
        k
    }

    /// Folds a new worker (id = old [`RrrPool::n_workers`]) into the
    /// pool's live sets without resampling them.
    ///
    /// `net` must already contain the worker (see
    /// [`SocialNetwork::fold_in_worker`]). For each live set containing
    /// one of the worker's out-neighbours `v`, the worker joins with
    /// probability `1/indeg(v)` — the weighted-cascade pull the reverse
    /// walk of that set would have attempted had the worker existed
    /// when the set was sampled. This is a **first-order
    /// approximation**: the walk is not continued into the folded
    /// worker's own in-neighbours (they were all sampled already), and
    /// the pre-existing members of each set keep the membership they
    /// were sampled with even though the friends' in-degrees changed.
    /// Both second-order effects are `O(1/indeg)` and wash out as
    /// rotation ([`RrrPool::evict_before_epoch`] +
    /// [`RrrPool::extend_to`]) replaces approximated sets with sets
    /// sampled exactly on the grown network — fold-in buys *immediate*
    /// non-zero propagation for a late arrival without a full retrain.
    ///
    /// The join coins are deterministic: set `j` draws from an RNG
    /// seeded by `(master_seed, worker, stream_base + j)`, so folding
    /// the same worker into the same live window joins the same sets no
    /// matter the thread budget or call ordering. Returns the number of
    /// sets joined. The set-arena splice drains the old arena into the
    /// rebuilt one segment-by-segment (peak `live + O(segment)`).
    ///
    /// # Panics
    /// When `net` has not been folded first (its size must be exactly
    /// one more than the pool's).
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

        // Candidate sets: every live set containing an out-neighbour of
        // the worker, with the neighbours that could pull the worker in.
        // Sorted so the coin order per set is canonical (ascending
        // neighbour id) regardless of membership-index layout.
        let mut pulls: Vec<(u32, u32)> = Vec::new();
        for &v in net.informs(worker) {
            pulls.extend(self.sets_containing(v).map(|j| (j, v)));
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

        // Membership index: the worker is the largest id, so its run is
        // appended at the end (`joined` is ascending, runs stay sorted).
        self.membership.push_worker(worker as usize, &joined);

        // Set arena: drain-rebuild with the worker spliced onto the
        // tail of each joined set's run.
        if !joined.is_empty() {
            let sets = std::mem::take(&mut self.sets);
            let others = self.current_bytes();
            let (rebuilt, op_peak) = sets.append_one_to_runs(&joined, worker);
            self.sets = rebuilt;
            self.note_peak_abs(others + 4 * op_peak);
        }
        joined.len()
    }

    /// Allocated bytes across all pool storage right now.
    fn current_bytes(&self) -> usize {
        self.membership.capacity_bytes() + self.non_index_bytes()
    }

    /// Allocated bytes of everything but the membership index.
    fn non_index_bytes(&self) -> usize {
        4 * (self.sets.capacity_elems() + self.roots.capacity() + self.set_epochs.capacity())
    }

    /// Checkpoints the rest of the pool plus the membership index's
    /// peak during an operation on it.
    fn note_index_peak(&mut self, index_peak: usize) {
        let bytes = self.non_index_bytes() + index_peak;
        self.note_peak_abs(bytes);
    }

    /// Checkpoints the current footprint into the peak.
    fn note_peak(&mut self) {
        let b = self.current_bytes();
        self.note_peak_abs(b);
    }

    /// Checkpoints an explicitly computed transient footprint.
    fn note_peak_abs(&mut self, bytes: usize) {
        if bytes > self.peak_bytes {
            self.peak_bytes = bytes;
        }
    }

    /// Deterministic byte accounting (live, allocated, lifetime peak).
    /// The peak is sampled at mutation checkpoints — including the
    /// transients inside merges and rebuilds — and is bit-identical at
    /// any thread count, like the pool itself.
    pub fn mem_stats(&self) -> PoolMemStats {
        let live = 4
            * (self.sets.len() + self.membership.len() + self.roots.len() + self.set_epochs.len());
        let capacity = self.current_bytes();
        PoolMemStats {
            live_bytes: live,
            capacity_bytes: capacity,
            peak_bytes: self.peak_bytes.max(capacity),
        }
    }

    /// The master seed the pool's per-set RNG streams derive from.
    #[inline]
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// The chunked set arena (run `j` = members of set `j`, root
    /// first). Arena equality is logical (run-for-run), so two pools
    /// built through different shard counts or growth histories
    /// compare equal whenever their sets match.
    #[inline]
    pub fn set_arena(&self) -> &RunArena {
        &self.sets
    }

    /// Roots of all sets, indexed by set id.
    #[inline]
    pub fn roots(&self) -> &[u32] {
        &self.roots
    }

    /// The membership index (run `w` = the live sets containing worker
    /// `w`, ascending; no runs until sets are indexed). Its equality is
    /// logical, like the arenas'.
    #[inline]
    pub fn membership(&self) -> &MembershipIndex {
        &self.membership
    }

    /// Total memberships (== total set-arena elements).
    #[inline]
    pub fn n_set_members(&self) -> usize {
        self.sets.len()
    }

    /// Order-sensitive digest of the sampled bytes (roots + arena) —
    /// cheap bit-identity checks for the determinism tests and benches.
    /// FNV-1a over the set count, the roots, a leading 0, one
    /// cumulative end per set, then every set's members: a function of
    /// the sets alone, whatever the segmentation.
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
        eat(0);
        let mut cum = 0u32;
        self.sets.for_each_run(|_, run| {
            cum += run.len() as u32;
            eat(cum as u64);
        });
        self.sets.for_each_run(|_, run| {
            for &m in run {
                eat(m as u64);
            }
        });
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
        self.sets.run(j)
    }

    /// Root of set `j`.
    #[inline]
    pub fn root(&self, j: usize) -> u32 {
        self.roots[j]
    }

    /// Ids of the live sets containing `worker`, ascending.
    #[inline]
    pub fn sets_containing(&self, worker: u32) -> SetIds<'_> {
        if self.membership.n_runs() == 0 {
            assert!(
                (worker as usize) < self.n_workers,
                "worker {worker} out of range ({})",
                self.n_workers
            );
            return SetIds::default();
        }
        self.membership.run(worker as usize)
    }

    /// The estimator scale `|W| / N`.
    #[inline]
    pub fn scale(&self) -> f64 {
        if self.n_sets() == 0 {
            0.0
        } else {
            self.n_workers as f64 / self.n_sets() as f64
        }
    }

    /// Fraction of sets covering `worker` (`f_R(w)` in Section III-E).
    pub fn coverage_fraction(&self, worker: u32) -> f64 {
        if self.n_sets() == 0 {
            0.0
        } else {
            self.sets_containing(worker).len() as f64 / self.n_sets() as f64
        }
    }

    /// Estimated informed range `σ(w)` (Definition 6, includes self).
    pub fn sigma(&self, worker: u32) -> f64 {
        self.scale() * self.sets_containing(worker).len() as f64
    }

    /// The greedy informed worker `wᶿ` (Definition 8) and
    /// `N_p^opt = |W| · f_R(wᶿ)`. `None` on an empty pool.
    pub fn greedy_informed_worker(&self) -> Option<(u32, f64)> {
        if self.n_sets() == 0 || self.n_workers == 0 {
            return None;
        }
        let best = (0..self.n_workers as u32)
            .max_by(|&a, &b| {
                self.sets_containing(a)
                    .len()
                    .cmp(&self.sets_containing(b).len())
            })
            .expect("non-empty worker range");
        Some((best, self.n_workers as f64 * self.coverage_fraction(best)))
    }

    /// `P_pro(source, target)` (Eq. 3): estimated probability that a
    /// cascade from `source` informs `target`.
    pub fn propagation_probability(&self, source: u32, target: u32) -> f64 {
        if source == target {
            return 0.0;
        }
        let count = self
            .sets_containing(source)
            .filter(|&j| self.roots[j as usize] == target)
            .count();
        self.scale() * count as f64
    }

    /// The roots of the live sets that contain `source` but are rooted
    /// elsewhere, in ascending set id: each worker `w ≠ source` that a
    /// cascade from `source` informs, once per set that witnesses it.
    /// The two propagation sums below read their terms from here, and
    /// a caller that gathers these roots once per worker can add the
    /// same terms in the same order for many weight vectors.
    pub fn foreign_roots(&self, source: u32) -> impl Iterator<Item = u32> + '_ {
        self.sets_containing(source)
            .map(|j| self.roots[j as usize])
            .filter(move |&root| root != source)
    }

    /// `Σ_{w ≠ source} P_pro(source, w)` — the Average-Propagation
    /// contribution of one worker (Eq. 7 numerator term).
    pub fn total_propagation(&self, source: u32) -> f64 {
        self.scale() * self.foreign_roots(source).count() as f64
    }

    /// `Σ_{w ≠ source} weight(w) · P_pro(source, w)` with per-worker
    /// weights — the propagation-times-willingness sum of the influence
    /// formula (Section III-D) computed in one pass over the membership
    /// list.
    pub fn weighted_propagation(&self, source: u32, weights: &[f64]) -> f64 {
        debug_assert_eq!(weights.len(), self.n_workers);
        let sum: f64 = self
            .foreign_roots(source)
            .map(|root| weights[root as usize])
            .sum();
        self.scale() * sum
    }
}

impl serde::Serialize for RrrPool {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("n_workers".to_string(), self.n_workers.to_value()),
            ("master_seed".to_string(), self.master_seed.to_value()),
            ("stream_base".to_string(), self.stream_base.to_value()),
            ("epoch".to_string(), self.epoch.to_value()),
            ("set_epochs".to_string(), self.set_epochs.to_value()),
            ("sets".to_string(), self.sets.to_value()),
        ])
    }
}

impl serde::Deserialize for RrrPool {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let obj = value
            .as_object()
            .ok_or_else(|| serde::Error::expected("RRR pool object", value))?;
        let mut pool = RrrPool {
            n_workers: serde::get_field(obj, "n_workers")?,
            master_seed: serde::get_field(obj, "master_seed")?,
            stream_base: serde::get_field(obj, "stream_base")?,
            epoch: serde::get_field(obj, "epoch")?,
            set_epochs: serde::get_field(obj, "set_epochs")?,
            sets: serde::get_field(obj, "sets")?,
            ..RrrPool::default()
        };
        // Every pool operation assumes what sampling guarantees: a set
        // starts with its root and holds workers of the population, and
        // each set has an epoch, rising along the sets to at most the
        // pool's own.
        let mut fault = None;
        pool.roots.reserve_exact(pool.sets.n_runs());
        pool.sets.for_each_run(|j, run| {
            let outsider = run.iter().find(|&&w| w as usize >= pool.n_workers);
            match (&fault, run.first(), outsider) {
                (Some(_), _, _) => {}
                (None, None, _) => fault = Some(format!("RRR set {j} is empty, so it has no root")),
                (None, Some(_), Some(w)) => {
                    fault = Some(format!(
                        "RRR set {j} holds worker {w}, past the pool's {} workers",
                        pool.n_workers
                    ))
                }
                (None, Some(&root), None) => pool.roots.push(root),
            }
        });
        if let Some(fault) = fault {
            return Err(serde::Error::custom(fault));
        }
        let epochs = &pool.set_epochs;
        if epochs.len() != pool.roots.len()
            || epochs.windows(2).any(|e| e[0] > e[1])
            || epochs.last() > Some(&pool.epoch)
        {
            return Err(serde::Error::custom(format!(
                "{} set epochs for {} RRR sets: they must be one a set, non-decreasing, \
                 and at most the pool's epoch {}",
                epochs.len(),
                pool.roots.len(),
                pool.epoch
            )));
        }
        if pool.n_sets() > 0 {
            pool.index_from(0);
        }
        Ok(pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cascade::IndependentCascade;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn diamond_net() -> SocialNetwork {
        // 0 -> 1 -> 3, 0 -> 2 -> 3 (indegrees: 1:1, 2:1, 3:2).
        SocialNetwork::from_directed_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn pool_counts_and_indexing_agree() {
        let net = diamond_net();
        let mut rng = SmallRng::seed_from_u64(1);
        let pool = RrrPool::generate_sharded(&net, 500, rng.next_u64(), 2);
        assert_eq!(pool.n_sets(), 500);
        assert_eq!(pool.n_workers(), 4);
        // Membership index must agree with raw sets.
        for j in 0..pool.n_sets() {
            for &w in pool.set(j) {
                assert!(pool.sets_containing(w).any(|x| x == j as u32));
            }
        }
        // Every set contains its root first.
        for j in 0..pool.n_sets() {
            assert_eq!(pool.set(j)[0], pool.root(j));
        }
    }

    #[test]
    fn sigma_matches_forward_simulation() {
        let net = diamond_net();
        let mut rng = SmallRng::seed_from_u64(2);
        let pool = RrrPool::generate_sharded(&net, 60_000, rng.next_u64(), 2);
        let ic = IndependentCascade::new(&net);
        let mut rng2 = SmallRng::seed_from_u64(3);
        for seed in 0..4u32 {
            let truth = ic.estimate_spread(seed, 20_000, &mut rng2);
            let est = pool.sigma(seed);
            assert!(
                (est - truth).abs() < 0.08,
                "worker {seed}: pool {est} vs forward {truth}"
            );
        }
    }

    #[test]
    fn pair_probability_matches_forward_simulation() {
        // On 0→1, 0→2, 1→2, worker 0 informs 1 surely, and 0 and 1 each
        // inform 2 with probability 1/2, so P_pro(0, 2) = 3/4.
        let triangle = SocialNetwork::from_directed_edges(3, &[(0, 1), (0, 2), (1, 2)]);
        let mut rng = SmallRng::seed_from_u64(4);
        let mut rng2 = SmallRng::seed_from_u64(5);
        for (net, pairs) in [
            (diamond_net(), &[(0u32, 3u32), (0, 1), (1, 3), (2, 3)][..]),
            (triangle, &[(0, 2)]),
        ] {
            let pool = RrrPool::generate_sharded(&net, 120_000, rng.next_u64(), 2);
            let ic = IndependentCascade::new(&net);
            for &(src, dst) in pairs {
                let truth = ic.estimate_pair_probability(src, dst, 30_000, &mut rng2);
                let est = pool.propagation_probability(src, dst);
                assert!(
                    (est - truth).abs() < 0.03,
                    "({src}->{dst}): pool {est} vs forward {truth}"
                );
            }
        }
    }

    #[test]
    fn self_propagation_is_zero() {
        let net = diamond_net();
        let mut rng = SmallRng::seed_from_u64(6);
        let pool = RrrPool::generate_sharded(&net, 1_000, rng.next_u64(), 2);
        for w in 0..4 {
            assert_eq!(pool.propagation_probability(w, w), 0.0);
        }
    }

    #[test]
    fn total_propagation_excludes_self_rooted_sets() {
        let net = diamond_net();
        let mut rng = SmallRng::seed_from_u64(7);
        let pool = RrrPool::generate_sharded(&net, 5_000, rng.next_u64(), 2);
        for w in 0..4u32 {
            let total = pool.total_propagation(w);
            let pairwise: f64 = (0..4u32)
                .filter(|&v| v != w)
                .map(|v| pool.propagation_probability(w, v))
                .sum();
            assert!((total - pairwise).abs() < 1e-9);
            // σ includes the self-rooted sets, so it is at least AP + scale·(#self-rooted).
            assert!(pool.sigma(w) >= total);
        }
    }

    #[test]
    fn weighted_propagation_with_unit_weights_is_total() {
        let net = diamond_net();
        let mut rng = SmallRng::seed_from_u64(8);
        let pool = RrrPool::generate_sharded(&net, 3_000, rng.next_u64(), 2);
        let ones = vec![1.0; 4];
        for w in 0..4 {
            assert!((pool.weighted_propagation(w, &ones) - pool.total_propagation(w)).abs() < 1e-9);
        }
    }

    #[test]
    fn weighted_propagation_is_linear_in_weights() {
        let net = diamond_net();
        let mut rng = SmallRng::seed_from_u64(9);
        let pool = RrrPool::generate_sharded(&net, 3_000, rng.next_u64(), 2);
        let w1 = vec![0.3, 0.5, 0.1, 0.9];
        let w2: Vec<f64> = w1.iter().map(|x| x * 2.0).collect();
        for w in 0..4 {
            let a = pool.weighted_propagation(w, &w1);
            let b = pool.weighted_propagation(w, &w2);
            assert!((b - 2.0 * a).abs() < 1e-9);
        }
    }

    #[test]
    fn greedy_informed_worker_is_source_in_dag() {
        // Worker 0 reaches everyone; it must cover the most sets.
        let net = diamond_net();
        let mut rng = SmallRng::seed_from_u64(10);
        let pool = RrrPool::generate_sharded(&net, 20_000, rng.next_u64(), 2);
        let (best, n_opt) = pool.greedy_informed_worker().unwrap();
        assert_eq!(best, 0);
        assert!(n_opt > 0.0);
        assert!((n_opt - pool.sigma(0)).abs() < 1e-9);
    }

    #[test]
    fn empty_pool_behaviour() {
        let net = diamond_net();
        let mut rng = SmallRng::seed_from_u64(11);
        let pool = RrrPool::generate_sharded(&net, 0, rng.next_u64(), 2);
        assert_eq!(pool.n_sets(), 0);
        assert_eq!(pool.scale(), 0.0);
        assert!(pool.greedy_informed_worker().is_none());
        for w in 0..4 {
            assert!(pool.sets_containing(w).is_empty());
        }
    }

    #[test]
    fn empty_network_behaviour() {
        let net = SocialNetwork::from_directed_edges(0, &[]);
        let mut rng = SmallRng::seed_from_u64(12);
        let pool = RrrPool::generate_sharded(&net, 100, rng.next_u64(), 2);
        assert_eq!(pool.n_sets(), 0, "no roots can be drawn");
    }

    #[test]
    fn generation_is_deterministic() {
        let net = diamond_net();
        let seed = SmallRng::seed_from_u64(13).next_u64();
        let a = RrrPool::generate_sharded(&net, 100, seed, 2);
        let b = RrrPool::generate_sharded(&net, 100, seed, 2);
        assert_eq!(a.roots, b.roots);
        assert_eq!(a.sets, b.sets);
        assert_eq!(a.membership, b.membership);
    }

    #[test]
    fn eviction_drops_prefix_and_reindexes() {
        let net = diamond_net();
        let mut pool = RrrPool::generate_sharded(&net, 2_000, 21, 2);
        assert_eq!(pool.current_epoch(), 0);
        pool.advance_epoch();
        pool.extend_to(&net, 2_500, 2);
        assert_eq!(pool.set_epoch(0), 0);
        assert_eq!(pool.set_epoch(2_400), 1);
        assert_eq!(pool.stale_sets(1), 2_000);

        let evicted = pool.evict_before_epoch(1, 300);
        assert_eq!(evicted, 300);
        assert_eq!(pool.n_sets(), 2_200);
        assert_eq!(pool.stream_base(), 300);
        assert_eq!(pool.stale_sets(1), 1_700);
        // Membership index must still agree with the arena both ways.
        for j in 0..pool.n_sets() {
            assert_eq!(pool.set(j)[0], pool.root(j));
            for &w in pool.set(j) {
                assert!(pool.sets_containing(w).any(|x| x == j as u32));
            }
        }
        let total_memberships: usize = (0..4).map(|w| pool.sets_containing(w).len()).sum();
        assert_eq!(total_memberships, pool.n_set_members());
    }

    #[test]
    fn evicting_nothing_is_a_noop() {
        let net = diamond_net();
        let mut pool = RrrPool::generate_sharded(&net, 500, 22, 1);
        let before = pool.fingerprint();
        assert_eq!(pool.evict_before_epoch(0, usize::MAX), 0);
        assert_eq!(pool.evict_before_epoch(5, 0), 0);
        assert_eq!(pool.fingerprint(), before);
        assert_eq!(pool.stream_base(), 0);
    }

    #[test]
    fn maintained_pool_matches_fresh_stream_window() {
        // Rotating a pool (evict + extend) must land on byte-for-byte
        // the same live window a from-scratch pool of the full stream
        // would hold after evicting the same prefix.
        let net = diamond_net();
        let seed = 23u64;

        let mut maintained = RrrPool::generate_sharded(&net, 1_000, seed, 2);
        maintained.advance_epoch();
        maintained.evict_before_epoch(1, 200); // live window [200, 1000)
        maintained.extend_to(&net, 1_100, 3); // live window [200, 1300)

        let mut fresh = RrrPool::generate_sharded(&net, 1_300, seed, 1);
        fresh.advance_epoch();
        fresh.evict_before_epoch(1, 200); // live window [200, 1300)

        assert_eq!(maintained.n_sets(), fresh.n_sets());
        assert_eq!(maintained.stream_base(), fresh.stream_base());
        assert_eq!(maintained.fingerprint(), fresh.fingerprint());
        assert_eq!(maintained.membership(), fresh.membership());
        assert_eq!(maintained.roots(), fresh.roots());
    }

    #[test]
    fn eviction_can_empty_the_pool_and_recover() {
        let net = diamond_net();
        let mut pool = RrrPool::generate_sharded(&net, 400, 24, 1);
        pool.advance_epoch();
        assert_eq!(pool.evict_before_epoch(1, usize::MAX), 400);
        assert_eq!(pool.n_sets(), 0);
        assert_eq!(pool.scale(), 0.0);
        for w in 0..4 {
            assert!(pool.sets_containing(w).is_empty());
        }
        // Growth resumes from the retired stream position.
        pool.extend_to(&net, 100, 1);
        assert_eq!(pool.n_sets(), 100);
        assert_eq!(pool.stream_base(), 400);
        let mut fresh = RrrPool::generate_sharded(&net, 500, 24, 1);
        fresh.advance_epoch();
        fresh.evict_before_epoch(1, 400);
        assert_eq!(pool.fingerprint(), fresh.fingerprint());
    }

    #[test]
    fn snapshot_with_a_tail_restores_equal() {
        let net = diamond_net();
        let mut pool = RrrPool::generate_sharded(&net, 2_000, 27, 2);
        pool.advance_epoch();
        pool.evict_before_epoch(1, 200);
        pool.extend_to(&net, 2_000, 2);
        assert!(
            !pool.membership().is_compact(),
            "dead entries and a tail of the 200 new sets"
        );

        let value = serde::Serialize::to_value(&pool);
        let mut restored: RrrPool = serde::Deserialize::from_value(&value).unwrap();
        assert!(restored.membership().is_compact());
        for w in 0..4 {
            assert_eq!(
                restored.sets_containing(w).collect::<Vec<_>>(),
                pool.sets_containing(w).collect::<Vec<_>>(),
                "worker {w}"
            );
        }
        assert_eq!(restored.membership(), pool.membership());
        assert_eq!(restored.roots(), pool.roots());
        assert_eq!(restored.fingerprint(), pool.fingerprint());

        // The restored pool keeps rotating in lockstep.
        for p in [&mut pool, &mut restored] {
            let epoch = p.advance_epoch();
            p.evict_before_epoch(epoch, 300);
            p.extend_to(&net, 2_000, 2);
        }
        assert_eq!(restored.membership(), pool.membership());
        assert_eq!(restored.fingerprint(), pool.fingerprint());
    }

    #[test]
    fn restore_refuses_sets_the_pool_could_not_hold() {
        use serde::Serialize;
        let net = diamond_net();
        let pool = RrrPool::generate_sharded(&net, 50, 28, 1);
        let refusal = |key: &str, value: Value| {
            let Value::Object(mut fields) = pool.to_value() else {
                unreachable!("a pool serializes as an object");
            };
            fields.iter_mut().find(|(k, _)| k == key).unwrap().1 = value;
            let restored: Result<RrrPool, _> =
                serde::Deserialize::from_value(&Value::Object(fields));
            restored.unwrap_err().to_string()
        };
        let sets = |runs: &[&[u32]]| {
            let mut arena = RunArena::new();
            runs.iter().for_each(|run| arena.push_run(run));
            arena.to_value()
        };
        // The pool's 50 sets were all sampled in epoch 0.
        let epochs = |first: u32, last: u32| {
            let mut epochs = vec![0u32; 50];
            (epochs[0], epochs[49]) = (first, last);
            epochs.to_value()
        };
        for (key, value, why) in [
            ("sets", sets(&[&[0][..], &[]]), "RRR set 1 is empty"),
            (
                "sets",
                sets(&[&[0, 4]]),
                "holds worker 4, past the pool's 4",
            ),
            (
                "set_epochs",
                vec![0u32; 45].to_value(),
                "45 set epochs for 50",
            ),
            ("set_epochs", epochs(1, 1), "non-decreasing"),
            ("set_epochs", epochs(0, 3), "at most the pool's epoch 0"),
        ] {
            let err = refusal(key, value);
            assert!(err.contains(why), "{key}: {err}");
        }
    }

    #[test]
    fn mem_stats_track_live_and_peak() {
        let net = diamond_net();
        let mut pool = RrrPool::generate_sharded(&net, 2_000, 25, 2);
        let after_gen = pool.mem_stats();
        assert!(after_gen.live_bytes > 0);
        assert!(after_gen.capacity_bytes >= after_gen.live_bytes);
        assert!(after_gen.peak_bytes >= after_gen.capacity_bytes);
        pool.advance_epoch();
        pool.evict_before_epoch(1, 500);
        let after_evict = pool.mem_stats();
        assert!(after_evict.live_bytes < after_gen.live_bytes);
        assert!(after_evict.peak_bytes >= after_gen.peak_bytes);
    }

    #[test]
    fn peak_accounting_is_thread_invariant() {
        // The determinism contract covers the accounting too: the same
        // call sequence reports the same bytes at any thread count.
        // Evicting 1,100 sets frees the first block's segment and leaves
        // a dead prefix in the next one, so the bytes depend on where
        // segment boundaries fall, and those must not move with the
        // thread budget.
        let net = diamond_net();
        let run = |threads: usize| {
            let mut pool = RrrPool::generate_sharded(&net, 3_000, 26, threads);
            pool.advance_epoch();
            pool.evict_before_epoch(1, 1_100);
            pool.extend_to(&net, 3_500, threads);
            pool.mem_stats()
        };
        let one = run(1);
        for threads in [2, 3, 4] {
            assert_eq!(run(threads), one, "{threads} threads");
        }
    }
}
