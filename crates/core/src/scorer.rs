//! The worker-task influence oracle (paper Section III-D).
//!
//! `if(w_s, s) = P_aff(w_s, s) · Σ_{w_i ≠ w_s} P_wil(w_i, s) · P_pro(w_s, w_i)`
//!
//! Through the RRR pool the inner sum collapses to a single scan of the
//! sets containing `w_s`, weighting each set by the willingness of its
//! root towards the task (see `sc_influence::RrrPool::weighted_propagation`).
//! The per-task quantities — the task's topic distribution and the
//! population willingness vector — are cached on first use, because every
//! algorithm queries many workers against the same task.
//!
//! The cache is a [`ScorerCache`] the scorer borrows
//! ([`InfluenceScorer::new`]); [`crate::DitaPipeline`] keeps one across
//! rounds. Keeping it outside the scorer is what lets entries survive
//! between rounds: the scorer borrows the model only for the duration
//! of one scoring pass, while the cache outlives both the scorer *and*
//! any pool maintenance that mutably borrows the model in between.
//!
//! Entries are keyed by **task content** (exact location bits plus a
//! digest of the category list), not task id: recurring venues re-hit
//! the cache across rounds even though every posting gets a fresh id.
//! Each entry is a pure function of `(task content, frozen LDA +
//! willingness models, population size)` — see
//! [`InfluenceModel::task_topics`] / [`InfluenceModel::willingness_all`]
//! — and pool rotation and eviction never touch cached quantities
//! because propagation is always read live off the pool. The one
//! model mutation an entry must follow is population growth (worker
//! fold-in): the cache tags itself with the population it was filled
//! for, and when a scorer binds it to a grown model every resident
//! entry is **extended** with the new workers' willingness. Topics
//! depend only on task content and the frozen LDA, and
//! `willingness_all` is elementwise, so an extended entry equals a
//! freshly computed one bit for bit.
//!
//! The map sits behind a reader-writer lock.
//! [`InfluenceScorer::warm_eligible`] fills it up front over the thread
//! budget — per-task work items evaluated in parallel, merged in index
//! order. The round's scoring scan, the scorer's
//! [`InfluenceOracle::influence_matrix`] that `sc_assign::score_pairs`
//! calls, then reads it once:
//!
//! * one shared read resolves each task's entry (entries a cache
//!   nobody warmed lacks are warmed first);
//! * the pairs are scored in pair order, which is worker by worker
//!   (the matrix is worker-major), sharded in contiguous pair ranges;
//! * a shard gathers each worker's foreign set roots
//!   (`InfluenceModel::foreign_roots`) once, into a buffer it reuses,
//!   and replays them for every task the worker is paired with.
//!
//! The scan and [`InfluenceScorer::score`] run one formula,
//! `score_with`, over the same roots in the same order, so the scan
//! equals `score` bit for bit (`crates/core/tests/scoring_kernel.rs`).
//! Cache entries derive deterministically from task content, so lazy,
//! warmed, sequential, and sharded paths all see identical values; the
//! hit and miss counts ([`WarmStats`]) are computed in the sequential
//! todo filter, so they too are identical at any thread count.

use crate::model::InfluenceModel;
use sc_assign::{EligibilityMatrix, EligiblePair, InfluenceOracle};
use sc_types::{Instance, Location, Task, WorkerId};
use std::collections::HashMap;
use std::fmt;
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Which factors of the influence product are active — the evaluation's
/// ablation variants (Section V-B1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum InfluenceVariant {
    /// Full IA influence: affinity × Σ willingness × propagation.
    #[default]
    Full,
    /// IA-WP: willingness + propagation (affinity factor dropped).
    NoAffinity,
    /// IA-AP: affinity + propagation (willingness weights dropped;
    /// the inner sum degenerates to total propagation).
    NoWillingness,
    /// IA-AW: affinity + willingness (propagation dropped; the model
    /// falls back to the candidate's own willingness towards the task).
    NoPropagation,
}

impl InfluenceVariant {
    /// The evaluation's display name.
    pub fn label(&self) -> &'static str {
        match self {
            InfluenceVariant::Full => "IA",
            InfluenceVariant::NoAffinity => "IA-WP",
            InfluenceVariant::NoWillingness => "IA-AP",
            InfluenceVariant::NoPropagation => "IA-AW",
        }
    }

    /// All four variants in the order the figures plot them.
    pub const ALL: [InfluenceVariant; 4] = [
        InfluenceVariant::Full,
        InfluenceVariant::NoAffinity,
        InfluenceVariant::NoWillingness,
        InfluenceVariant::NoPropagation,
    ];
}

/// Per-task cached quantities: the task's topic distribution and one
/// willingness value per worker of the population the cache is tagged
/// with.
struct TaskEntry {
    topics: Vec<f64>,
    willingness: Vec<f64>,
}

/// Content identity of a task's cached quantities: exact location bits
/// plus the length and two independent FNV-1a digests of the category
/// sequence. Topics depend only on the category document and
/// willingness only on the location (module docs), so two tasks with
/// equal content share one entry. The digests make the key compact
/// enough for an allocation-free lookup per score; a false share would
/// need two *different* category sequences of equal length at the
/// *same exact coordinates* to collide in 128 independent bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct TaskKey {
    x: u64,
    y: u64,
    cats_a: u64,
    cats_b: u64,
    n_cats: u32,
}

impl TaskKey {
    /// The task location, exact: the key holds its coordinate bits.
    fn location(&self) -> Location {
        Location::new(f64::from_bits(self.x), f64::from_bits(self.y))
    }
}

fn task_key(task: &Task) -> TaskKey {
    let mut a = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
    let mut b = 0x9e37_79b9_7f4a_7c15u64; // independent second stream
    for c in &task.categories {
        let w = c.raw() as u64 + 1;
        a = (a ^ w).wrapping_mul(0x100_0000_01b3);
        b = (b ^ w.rotate_left(17)).wrapping_mul(0x100_0000_01b3);
    }
    TaskKey {
        x: task.location.x.to_bits(),
        y: task.location.y.to_bits(),
        cats_a: a,
        cats_b: b,
        n_cats: task.categories.len() as u32,
    }
}

/// Outcome of one cache-warming pass
/// ([`InfluenceScorer::warm_eligible`]), counted over **distinct
/// content keys** in the warmed batch. Computed in the sequential todo
/// filter before any parallel work fans out, so the counts are
/// identical at any thread count — [`sc_sim`-level] round reports can
/// carry them without weakening the determinism contract.
///
/// [`sc_sim`-level]: crate::DitaPipeline::assign
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmStats {
    /// Distinct content keys that were already resident.
    pub hits: usize,
    /// Distinct content keys this pass had to compute.
    pub misses: usize,
}

/// An owned, shareable store of per-task scoring quantities — the
/// extraction of the scorer's former internal cache into a value a
/// [`crate::DitaPipeline`] can hold *across* rounds (and across the
/// pool maintenance that mutably borrows the model between them).
///
/// Interior-mutable behind a reader-writer lock: concurrent scorers
/// share reads; misses compute outside any lock and first insert wins
/// (both compute identical bytes). The cache records the population it
/// was filled for. When [`InfluenceScorer::new`] binds it to a model
/// that has since grown (worker fold-in), each resident entry's
/// willingness vector is extended with the new workers' values; a
/// population that shrank clears it. Rotation and eviction leave
/// entries valid (module docs).
///
/// The extension assumes every model the cache is bound to is the
/// *same* model, grown only by fold-in: the values already resident are
/// kept, not recomputed. [`crate::DitaPipeline`] upholds this by owning
/// both the model and its cache, and a cloned or restored pipeline
/// starts with an empty cache. A caller sharing one cache across
/// different models must [`ScorerCache::clear`] it in between.
#[derive(Default)]
pub struct ScorerCache {
    inner: RwLock<CacheInner>,
}

#[derive(Default)]
struct CacheInner {
    /// Population the resident entries were computed for.
    population: usize,
    map: HashMap<TaskKey, TaskEntry>,
}

impl ScorerCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// A shared read of the map. A panic under the lock does not
    /// poison the cache: later readers and writers carry on.
    fn read(&self) -> RwLockReadGuard<'_, CacheInner> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// An exclusive write of the map, ignoring poison as [`Self::read`].
    fn write(&self) -> RwLockWriteGuard<'_, CacheInner> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.read().map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (the population tag is kept).
    pub fn clear(&self) {
        self.write().map.clear();
    }

    /// Re-tags the cache for `model`'s population. When the model grew
    /// from `n` to `n' > n` workers, appends `P_wil(w, s)` for `w` in
    /// `n..n'` to every resident entry — the per-worker evaluator
    /// `willingness_all` runs, so the extended vector equals a fresh
    /// one bit for bit. A shrunken population drops every entry (their
    /// vectors would be too long). Called by every scorer that binds
    /// this cache to a model.
    fn sync_population(&self, model: &InfluenceModel) {
        let population = model.n_workers();
        if self.read().population == population {
            return;
        }
        let mut inner = self.write();
        let old = inner.population;
        if population > old {
            // lint:allow(D001, reason = "each entry is extended on its own, so the order reaches nothing")
            for (key, entry) in inner.map.iter_mut() {
                let loc = key.location();
                entry
                    .willingness
                    .extend((old..population).map(|w| model.willingness(WorkerId::from(w), &loc)));
            }
        } else if population < old {
            inner.map.clear();
        }
        inner.population = population;
    }
}

impl fmt::Debug for ScorerCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.read();
        f.debug_struct("ScorerCache")
            .field("entries", &inner.map.len())
            .field("population", &inner.population)
            .finish()
    }
}

/// A factor-by-factor breakdown of one worker-task influence value —
/// useful for debugging assignments and for explaining to a task issuer
/// *why* a worker was chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InfluenceBreakdown {
    /// `P_aff(w, s)` — topic affinity of the worker towards the task.
    pub affinity: f64,
    /// `Σ_{w_i ≠ w} P_wil(w_i, s) · P_pro(w, w_i)` — the expected
    /// willingness-weighted audience the worker can inform.
    pub weighted_propagation: f64,
    /// The worker's own willingness `P_wil(w, s)` to visit the task.
    pub own_willingness: f64,
    /// `Σ_{w_i ≠ w} P_pro(w, w_i)` — raw expected audience size.
    pub total_propagation: f64,
    /// The full influence `affinity × weighted_propagation`
    /// (Section III-D).
    pub score: f64,
}

/// An influence oracle over a trained [`InfluenceModel`].
pub struct InfluenceScorer<'a> {
    model: &'a InfluenceModel,
    variant: InfluenceVariant,
    cache: &'a ScorerCache,
}

impl<'a> InfluenceScorer<'a> {
    /// Creates a scorer for `variant` over `cache`. Entries this scorer
    /// computes survive it and are re-hit by the next scorer bound to
    /// the same cache. If the model's population has grown since the
    /// cache was filled (worker fold-in), the resident entries are
    /// extended to it here (see [`ScorerCache`] for the one-model
    /// assumption). Entries hold the raw per-task quantities, not
    /// scores, so one cache serves every ablation variant.
    pub fn new(
        model: &'a InfluenceModel,
        cache: &'a ScorerCache,
        variant: InfluenceVariant,
    ) -> Self {
        cache.sync_population(model);
        InfluenceScorer {
            model,
            variant,
            cache,
        }
    }

    /// The active variant.
    pub fn variant(&self) -> InfluenceVariant {
        self.variant
    }

    /// The per-task quantities every score of `task` needs — derived
    /// purely from task content and the frozen model, so any thread
    /// computing the entry produces the same bytes.
    fn compute_task_entry(&self, task: &Task) -> TaskEntry {
        let topics = self.model.task_topics(task);
        let mut willingness = Vec::new();
        self.model.willingness_all(&task.location, &mut willingness);
        TaskEntry {
            topics,
            willingness,
        }
    }

    /// Pre-fills the per-task cache for `tasks` using up to `threads`
    /// worker threads. Each distinct content key is one work item;
    /// items are evaluated over the workspace's chunked-shard scheduler
    /// and merged into the cache in index order. Warming is an
    /// optimization only: values are identical whether entries were
    /// warmed or computed lazily, at any thread count. The returned
    /// hit/miss counts come from the sequential todo filter, so they
    /// are thread-count-independent too.
    fn warm_tasks(&self, tasks: &[&Task], threads: usize) -> WarmStats {
        let mut stats = WarmStats::default();
        let mut seen = std::collections::HashSet::new();
        let mut todo: Vec<(&Task, TaskKey)> = Vec::new();
        {
            let inner = self.cache.read();
            for &task in tasks {
                let key = task_key(task);
                if !seen.insert(key) {
                    continue; // duplicate content within the batch
                }
                if inner.map.contains_key(&key) {
                    stats.hits += 1;
                } else {
                    todo.push((task, key));
                }
            }
        }
        stats.misses = todo.len();
        if todo.is_empty() {
            return stats;
        }
        let entries = sc_stats::par::map_chunked(todo.len(), threads.max(1), |i| {
            self.compute_task_entry(todo[i].0)
        });
        let mut inner = self.cache.write();
        for (&(_, key), entry) in todo.iter().zip(entries) {
            inner.map.entry(key).or_insert(entry);
        }
        stats
    }

    /// Warms the cache for every task of `instance` that has at least
    /// one eligible pair in `matrix` (tasks nobody can reach are never
    /// scored, so warming them would be wasted fold-in work). The one
    /// eligibility-driven warming rule, shared by
    /// [`crate::DitaPipeline::assign`] and the sweep harness.
    pub fn warm_eligible(
        &self,
        instance: &Instance,
        matrix: &EligibilityMatrix,
        threads: usize,
    ) -> WarmStats {
        let mut used = vec![false; instance.tasks.len()];
        for pair in matrix.pairs() {
            used[pair.task_idx as usize] = true;
        }
        let tasks: Vec<&Task> = instance
            .tasks
            .iter()
            .enumerate()
            .filter(|&(ti, _)| used[ti])
            .map(|(_, t)| t)
            .collect();
        self.warm_tasks(&tasks, threads)
    }

    fn with_task_entry<T>(&self, task: &Task, f: impl FnOnce(&TaskEntry) -> T) -> T {
        let key = task_key(task);
        {
            // Warm path: a shared read — concurrent `score` calls
            // never serialize on the lock.
            let inner = self.cache.read();
            if let Some(entry) = inner.map.get(&key) {
                return f(entry);
            }
        }
        // Miss: compute outside any lock (another thread may race on
        // the same content; both compute identical bytes and the first
        // insert wins), then publish.
        let computed = self.compute_task_entry(task);
        let mut inner = self.cache.write();
        let entry = inner.map.entry(key).or_insert(computed);
        f(entry)
    }

    /// Evaluates the (variant's) influence of `worker` on `task`.
    pub fn score(&self, worker: WorkerId, task: &Task) -> f64 {
        if worker.index() >= self.model.n_workers() {
            return 0.0;
        }
        self.with_task_entry(task, |entry| {
            self.score_with(worker, entry, self.model.foreign_roots(worker))
        })
    }

    /// The one influence formula: the (variant's) influence of `worker`
    /// on the task whose cached quantities are `entry`, given the
    /// worker's foreign set roots (`InfluenceModel::foreign_roots`, in
    /// its order). [`InfluenceScorer::score`] streams them off the pool;
    /// the whole-matrix scan replays a gathered copy for each of the
    /// worker's tasks.
    fn score_with(
        &self,
        worker: WorkerId,
        entry: &TaskEntry,
        roots: impl Iterator<Item = u32>,
    ) -> f64 {
        if worker.index() >= self.model.n_workers() {
            return 0.0;
        }
        match self.variant {
            InfluenceVariant::Full => {
                let aff = self.model.affinity_with(worker, &entry.topics);
                if aff == 0.0 {
                    return 0.0;
                }
                aff * self.spread(entry, roots)
            }
            InfluenceVariant::NoAffinity => self.spread(entry, roots),
            InfluenceVariant::NoWillingness => {
                let aff = self.model.affinity_with(worker, &entry.topics);
                aff * (self.model.pool().scale() * roots.count() as f64)
            }
            InfluenceVariant::NoPropagation => {
                let aff = self.model.affinity_with(worker, &entry.topics);
                aff * entry.willingness[worker.index()]
            }
        }
    }

    /// `Σ_{w_i ≠ w} P_wil(w_i, s) · P_pro(w, w_i)` over `w`'s foreign
    /// set roots: the terms, order and fold (`Iterator::sum`, from
    /// `−0.0`) of `sc_influence::RrrPool::weighted_propagation`.
    fn spread(&self, entry: &TaskEntry, roots: impl Iterator<Item = u32>) -> f64 {
        let sum: f64 = roots.map(|root| entry.willingness[root as usize]).sum();
        self.model.pool().scale() * sum
    }
}

impl InfluenceScorer<'_> {
    /// Explains the full influence value of a pair factor by factor.
    /// Always reports the *full* model regardless of the active variant.
    pub fn explain(&self, worker: WorkerId, task: &Task) -> InfluenceBreakdown {
        if worker.index() >= self.model.n_workers() {
            return InfluenceBreakdown {
                affinity: 0.0,
                weighted_propagation: 0.0,
                own_willingness: 0.0,
                total_propagation: 0.0,
                score: 0.0,
            };
        }
        self.with_task_entry(task, |cache| {
            let affinity = self.model.affinity_with(worker, &cache.topics);
            let weighted_propagation = self.spread(cache, self.model.foreign_roots(worker));
            InfluenceBreakdown {
                affinity,
                weighted_propagation,
                own_willingness: cache.willingness[worker.index()],
                total_propagation: self.model.total_propagation(worker),
                score: affinity * weighted_propagation,
            }
        })
    }
}

impl InfluenceOracle for InfluenceScorer<'_> {
    fn influence(&self, worker: WorkerId, task: &Task) -> f64 {
        self.score(worker, task)
    }

    /// The scan in pair order (module docs): one cache read resolves
    /// each task's entry, and each worker's foreign set roots are
    /// gathered once per shard and replayed for every task it is paired
    /// with. Equal to [`InfluenceScorer::score`] per pair, bit for bit.
    fn influence_matrix(
        &self,
        instance: &Instance,
        matrix: &EligibilityMatrix,
        threads: usize,
    ) -> Vec<f64> {
        let pairs = matrix.pairs();
        let mut keys: Vec<Option<TaskKey>> = vec![None; instance.tasks.len()];
        for pair in pairs {
            let ti = pair.task_idx as usize;
            keys[ti].get_or_insert_with(|| task_key(&instance.tasks[ti]));
        }
        // One shared read resolves every task's entry. Only a cache
        // nobody warmed lacks some; those are warmed first.
        let inner = loop {
            let inner = self.cache.read();
            let missing: Vec<&Task> = instance
                .tasks
                .iter()
                .zip(&keys)
                .filter(|(_, key)| key.is_some_and(|key| !inner.map.contains_key(&key)))
                .map(|(task, _)| task)
                .collect();
            if missing.is_empty() {
                break inner;
            }
            drop(inner);
            self.warm_tasks(&missing, threads);
        };
        let entries: Vec<Option<&TaskEntry>> = keys
            .iter()
            .map(|key| key.map(|key| &inner.map[&key]))
            .collect();

        let entry = |pair: &EligiblePair| {
            entries[pair.task_idx as usize].expect("a paired task is resolved")
        };
        let shards = sc_assign::score_shards(pairs.len(), threads);
        let scores = sc_stats::par::map_shards(pairs.len(), shards, |lo, hi| {
            let mut out = Vec::with_capacity(hi - lo);
            let mut roots = Vec::new();
            for group in pairs[lo..hi].chunk_by(|a, b| a.worker_idx == b.worker_idx) {
                let worker = instance.workers[group[0].worker_idx as usize].id;
                roots.clear();
                roots.extend(self.model.foreign_roots(worker));
                out.extend(
                    group
                        .iter()
                        .map(|pair| self.score_with(worker, entry(pair), roots.iter().copied())),
                );
            }
            out
        });
        scores.concat()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DitaConfig;
    use sc_influence::SocialNetwork;
    use sc_types::{
        CategoryId, CheckIn, Duration, HistoryStore, Location, TaskId, TimeInstant, VenueId,
    };

    fn world() -> (SocialNetwork, HistoryStore) {
        // 6 workers in two triangles bridged by an edge; two category
        // groups and two home regions as in the model tests.
        let social = SocialNetwork::from_undirected_edges(
            6,
            &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)],
        );
        let mut store = HistoryStore::with_workers(6);
        for w in 0..6u32 {
            let (x, cat) = if w < 3 { (0.0, 0) } else { (10.0, 20) };
            for i in 0..10 {
                store.push(CheckIn::at(
                    WorkerId::new(w),
                    VenueId::new(w * 10 + (i % 2)),
                    Location::new(x + (i % 2) as f64, 0.0),
                    TimeInstant::from_seconds(w as i64 * 100 + i as i64),
                    vec![CategoryId::new(cat + (i % 2))],
                ));
            }
        }
        (social, store)
    }

    fn config() -> DitaConfig {
        DitaConfig {
            n_topics: 4,
            lda_sweeps: 60,
            infer_sweeps: 20,
            rpo: sc_influence::RpoParams {
                max_sets: 30_000,
                ..Default::default()
            },
            seed: 3,
            ..Default::default()
        }
    }

    fn task_a() -> Task {
        Task::new(
            TaskId::new(0),
            Location::new(0.5, 0.0),
            TimeInstant::EPOCH,
            Duration::hours(5),
            CategoryId::new(0),
        )
    }

    #[test]
    fn full_influence_is_nonnegative_and_finite() {
        let (social, store) = world();
        let model = InfluenceModel::train(&config(), &social, &store);
        let cache = ScorerCache::new();
        let scorer = InfluenceScorer::new(&model, &cache, InfluenceVariant::Full);
        for w in 0..6 {
            let v = scorer.score(WorkerId::new(w), &task_a());
            assert!(v.is_finite() && v >= 0.0, "worker {w}: {v}");
        }
    }

    #[test]
    fn full_score_is_product_of_factors() {
        let (social, store) = world();
        let model = InfluenceModel::train(&config(), &social, &store);
        let cache = ScorerCache::new();
        let scorer = InfluenceScorer::new(&model, &cache, InfluenceVariant::Full);
        let task = task_a();
        let w = WorkerId::new(1);
        let theta = model.task_topics(&task);
        let aff = model.affinity_with(w, &theta);
        let mut wil = Vec::new();
        model.willingness_all(&task.location, &mut wil);
        let spread = model.pool().weighted_propagation(w.raw(), &wil);
        assert!((scorer.score(w, &task) - aff * spread).abs() < 1e-12);
    }

    #[test]
    fn variants_drop_their_factor() {
        let (social, store) = world();
        let model = InfluenceModel::train(&config(), &social, &store);
        let task = task_a();
        let w = WorkerId::new(0);

        let theta = model.task_topics(&task);
        let aff = model.affinity_with(w, &theta);
        let mut wil = Vec::new();
        model.willingness_all(&task.location, &mut wil);

        let cache = ScorerCache::new();
        let wp = InfluenceScorer::new(&model, &cache, InfluenceVariant::NoAffinity);
        assert!(
            (wp.score(w, &task) - model.pool().weighted_propagation(w.raw(), &wil)).abs() < 1e-12
        );

        let ap = InfluenceScorer::new(&model, &cache, InfluenceVariant::NoWillingness);
        assert!((ap.score(w, &task) - aff * model.total_propagation(w)).abs() < 1e-12);

        let aw = InfluenceScorer::new(&model, &cache, InfluenceVariant::NoPropagation);
        assert!((aw.score(w, &task) - aff * wil[w.index()]).abs() < 1e-12);
    }

    #[test]
    fn local_affine_worker_outranks_remote_on_full_model() {
        let (social, store) = world();
        let model = InfluenceModel::train(&config(), &social, &store);
        let cache = ScorerCache::new();
        let scorer = InfluenceScorer::new(&model, &cache, InfluenceVariant::Full);
        // Worker 0 lives at x≈0 doing category 0; worker 5 lives at x≈10
        // doing category 20. Task A (cat 0, x=0.5) should favour worker 0
        // decisively.
        let s0 = scorer.score(WorkerId::new(0), &task_a());
        let s5 = scorer.score(WorkerId::new(5), &task_a());
        assert!(s0 > s5, "local worker {s0} vs remote {s5}");
    }

    #[test]
    fn cache_returns_identical_values() {
        let (social, store) = world();
        let model = InfluenceModel::train(&config(), &social, &store);
        let cache = ScorerCache::new();
        let scorer = InfluenceScorer::new(&model, &cache, InfluenceVariant::Full);
        let a = scorer.score(WorkerId::new(2), &task_a());
        let b = scorer.score(WorkerId::new(2), &task_a());
        assert_eq!(a, b);
    }

    #[test]
    fn oracle_trait_dispatch() {
        let (social, store) = world();
        let model = InfluenceModel::train(&config(), &social, &store);
        let cache = ScorerCache::new();
        let scorer = InfluenceScorer::new(&model, &cache, InfluenceVariant::Full);
        let oracle: &dyn InfluenceOracle = &scorer;
        assert_eq!(
            oracle.influence(WorkerId::new(1), &task_a()),
            scorer.score(WorkerId::new(1), &task_a())
        );
    }

    #[test]
    fn unknown_worker_scores_zero() {
        let (social, store) = world();
        let model = InfluenceModel::train(&config(), &social, &store);
        let cache = ScorerCache::new();
        let scorer = InfluenceScorer::new(&model, &cache, InfluenceVariant::Full);
        assert_eq!(scorer.score(WorkerId::new(100), &task_a()), 0.0);
    }

    #[test]
    fn explain_is_consistent_with_score() {
        let (social, store) = world();
        let model = InfluenceModel::train(&config(), &social, &store);
        let cache = ScorerCache::new();
        let scorer = InfluenceScorer::new(&model, &cache, InfluenceVariant::Full);
        let task = task_a();
        for w in 0..6 {
            let worker = WorkerId::new(w);
            let b = scorer.explain(worker, &task);
            assert!((b.score - b.affinity * b.weighted_propagation).abs() < 1e-12);
            assert!((b.score - scorer.score(worker, &task)).abs() < 1e-12);
            // The willingness-weighted audience can never exceed the raw
            // audience (weights are probabilities ≤ 1).
            assert!(b.weighted_propagation <= b.total_propagation + 1e-9);
            assert!((0.0..=1.0 + 1e-9).contains(&b.own_willingness));
        }
    }

    #[test]
    fn explain_reports_full_model_under_any_variant() {
        let (social, store) = world();
        let model = InfluenceModel::train(&config(), &social, &store);
        let (full_cache, wp_cache) = (ScorerCache::new(), ScorerCache::new());
        let full = InfluenceScorer::new(&model, &full_cache, InfluenceVariant::Full);
        let wp = InfluenceScorer::new(&model, &wp_cache, InfluenceVariant::NoAffinity);
        let task = task_a();
        let a = full.explain(WorkerId::new(1), &task);
        let b = wp.explain(WorkerId::new(1), &task);
        assert_eq!(a, b, "explain is variant-independent");
    }

    #[test]
    fn explain_out_of_range_worker_is_zeroed() {
        let (social, store) = world();
        let model = InfluenceModel::train(&config(), &social, &store);
        let cache = ScorerCache::new();
        let scorer = InfluenceScorer::new(&model, &cache, InfluenceVariant::Full);
        let b = scorer.explain(WorkerId::new(99), &task_a());
        assert_eq!(b.score, 0.0);
        assert_eq!(b.total_propagation, 0.0);
    }

    #[test]
    fn shared_cache_persists_across_scorers_and_keys_by_content() {
        let (social, store) = world();
        let model = InfluenceModel::train(&config(), &social, &store);
        let cache = ScorerCache::new();

        let first = {
            let scorer = InfluenceScorer::new(&model, &cache, InfluenceVariant::Full);
            let stats = scorer.warm_tasks(&[&task_a()], 1);
            assert_eq!((stats.hits, stats.misses, cache.len()), (0, 1, 1));
            scorer.score(WorkerId::new(1), &task_a())
        };
        // A *different* posting (fresh id, same venue content) re-hits
        // the surviving entry through a brand-new scorer.
        let mut same_venue = task_a();
        same_venue.id = TaskId::new(77);
        let scorer = InfluenceScorer::new(&model, &cache, InfluenceVariant::Full);
        let stats = scorer.warm_tasks(&[&same_venue], 1);
        assert_eq!((stats.hits, stats.misses, cache.len()), (1, 0, 1));
        assert_eq!(scorer.score(WorkerId::new(1), &same_venue), first);

        // Values through the surviving entry match a fresh cache's bit
        // for bit.
        let fresh_cache = ScorerCache::new();
        let fresh = InfluenceScorer::new(&model, &fresh_cache, InfluenceVariant::Full);
        assert_eq!(fresh.score(WorkerId::new(1), &task_a()), first);
    }

    #[test]
    fn shared_cache_extends_when_population_grows() {
        let (social, store) = world();
        let mut model = InfluenceModel::train(&config(), &social, &store);
        let cache = ScorerCache::new();
        InfluenceScorer::new(&model, &cache, InfluenceVariant::Full)
            .score(WorkerId::new(0), &task_a());
        assert_eq!(cache.len(), 1);

        // A real fold-in: a category-0 regular near task A, befriending
        // workers 0 and 1, so its own willingness is non-zero.
        let mut hist = sc_types::History::new();
        hist.push(CheckIn::at(
            WorkerId::new(6),
            VenueId::new(99),
            Location::new(0.5, 0.0),
            TimeInstant::from_seconds(5_000),
            vec![CategoryId::new(0)],
        ));
        let folded_net = social.fold_in_worker(&[0, 1]);
        let late = model.fold_in_worker(&folded_net, &hist);
        assert_eq!(late, WorkerId::new(6));

        // Re-binding extends the resident entry instead of dropping it.
        let shared = InfluenceScorer::new(&model, &cache, InfluenceVariant::Full);
        assert_eq!(cache.len(), 1, "fold-in must not clear the cache");
        let fresh_cache = ScorerCache::new();
        let fresh = InfluenceScorer::new(&model, &fresh_cache, InfluenceVariant::Full);
        for w in [WorkerId::new(1), late] {
            let (a, b) = (shared.explain(w, &task_a()), fresh.explain(w, &task_a()));
            assert_eq!(a.score.to_bits(), b.score.to_bits(), "worker {w:?}");
            assert_eq!(a.own_willingness.to_bits(), b.own_willingness.to_bits());
            assert_eq!(
                shared.score(w, &task_a()).to_bits(),
                fresh.score(w, &task_a()).to_bits()
            );
        }
        assert!(shared.explain(late, &task_a()).own_willingness > 0.0);
        let stats = shared.warm_tasks(&[&task_a()], 1);
        assert_eq!((stats.hits, stats.misses, cache.len()), (1, 0, 1));
    }

    #[test]
    fn shared_cache_clears_when_population_shrinks() {
        let (social, store) = world();
        let model = InfluenceModel::train(&config(), &social, &store);
        let cache = ScorerCache::new();
        cache.write().population = model.n_workers() + 1;
        cache.write().map.insert(
            task_key(&task_a()),
            TaskEntry {
                topics: Vec::new(),
                willingness: vec![0.0; model.n_workers() + 1],
            },
        );
        InfluenceScorer::new(&model, &cache, InfluenceVariant::Full);
        assert!(cache.is_empty(), "too-long vectors must be dropped");
    }

    #[test]
    fn cache_survives_a_panicked_lock_holder() {
        let cache = std::sync::Arc::new(ScorerCache::new());
        let held = std::sync::Arc::clone(&cache);
        let holder = std::thread::spawn(move || {
            let _guard = held.write();
            panic!("poison the cache lock");
        });
        assert!(holder.join().is_err());
        assert!(cache.inner.is_poisoned());
        cache.write().population = 3;
        assert_eq!((cache.len(), cache.read().population), (0, 3));
    }

    #[test]
    fn task_keys_separate_content_not_ids() {
        let a = task_a();
        let mut renamed = task_a();
        renamed.id = TaskId::new(9);
        assert_eq!(task_key(&a), task_key(&renamed));

        let mut moved = task_a();
        moved.location = Location::new(0.5 + 1e-12, 0.0);
        assert_ne!(task_key(&a), task_key(&moved));

        let mut recat = task_a();
        recat.categories = vec![CategoryId::new(1)];
        assert_ne!(task_key(&a), task_key(&recat));
    }

    #[test]
    fn variant_labels() {
        assert_eq!(InfluenceVariant::Full.label(), "IA");
        assert_eq!(InfluenceVariant::NoAffinity.label(), "IA-WP");
        assert_eq!(InfluenceVariant::NoWillingness.label(), "IA-AP");
        assert_eq!(InfluenceVariant::NoPropagation.label(), "IA-AW");
    }
}
