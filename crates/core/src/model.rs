//! The trained influence model: affinity + willingness + propagation +
//! entropy, for a whole worker population.

use crate::config::DitaConfig;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sc_influence::{Rpo, RpoStats, RrrPool, SocialNetwork};
use sc_mobility::{LocationEntropy, WillingnessModel};
use sc_topics::{topic_affinity, LdaModel, StreamingLda};
use sc_types::{History, HistoryStore, Location, Task, VenueId, WorkerId};

/// The frozen output of DITA's influence-modeling component
/// (left half of paper Figure 2).
///
/// `Clone` exists so an online engine can take a private live copy of
/// a trained model and maintain its RRR pool across rounds without
/// disturbing the original.
///
/// Serde (snapshot support) round-trips every trained sub-model —
/// LDA `φ`/`θ`, per-worker topic distributions, willingness fits,
/// venue entropies, and the live RRR pool with its epoch window — so a
/// restored model scores bit-identically to the original.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct InfluenceModel {
    config: DitaConfig,
    lda: LdaModel,
    /// θ of every worker's historical category document.
    worker_topics: Vec<Vec<f64>>,
    willingness: WillingnessModel,
    entropy: LocationEntropy,
    pool: RrrPool,
    rpo_stats: RpoStats,
    n_workers: usize,
}

impl InfluenceModel {
    /// Trains every sub-model. Deterministic for a given config.
    pub fn train(config: &DitaConfig, social: &SocialNetwork, histories: &HistoryStore) -> Self {
        let n_workers = social.n_workers().max(histories.n_workers());

        // Affinity: one document per worker (paper Section III-A),
        // streamed straight out of the history store into Gibbs state —
        // no corpus copy of every check-in. A cheap max pre-pass sizes
        // the vocabulary (what `Corpus::from_documents` inferred).
        let vocab = (0..n_workers)
            .map(|w| {
                histories
                    .history(WorkerId::from(w))
                    .category_document()
                    .iter()
                    .map(|c| c.raw() as usize + 1)
                    .max()
                    .unwrap_or(0)
            })
            .max()
            .unwrap_or(0);
        let mut lda_rng = SmallRng::seed_from_u64(config.phase_seed("lda"));
        let (lda, worker_topics) = if vocab == 0 {
            // No check-ins anywhere: train over the clamped 1-word
            // vocabulary with zero documents so inference stays
            // well-defined (the pre-streaming fallback path, bit
            // included).
            let lda = StreamingLda::new(config.lda_params(), 1).finish(&mut lda_rng);
            (lda, Vec::new())
        } else {
            let mut gibbs = StreamingLda::new(config.lda_params(), vocab);
            for w in 0..n_workers {
                gibbs.feed_doc(
                    histories
                        .history(WorkerId::from(w))
                        .category_document()
                        .iter()
                        .map(|c| c.raw()),
                    &mut lda_rng,
                );
            }
            let lda = gibbs.finish(&mut lda_rng);
            let worker_topics: Vec<Vec<f64>> =
                (0..n_workers).map(|d| lda.doc_topics(d).to_vec()).collect();
            (lda, worker_topics)
        };

        // Willingness + entropy (Sections III-B, IV-B).
        let willingness = WillingnessModel::fit(histories);
        let entropy = LocationEntropy::from_history(histories);

        // Propagation (Sections III-C, III-E). The phase seed goes in
        // directly as the sharded sampler's master seed, so the pool is
        // bit-identical at any `config.rpo.threads` setting.
        let (pool, rpo_stats) =
            Rpo::new(config.rpo).build_pool_seeded(social, config.phase_seed("rpo"));

        InfluenceModel {
            config: *config,
            lda,
            worker_topics,
            willingness,
            entropy,
            pool,
            rpo_stats,
            n_workers,
        }
    }

    /// Number of workers in the population.
    #[inline]
    pub fn n_workers(&self) -> usize {
        self.n_workers
    }

    /// The configuration the model was trained with.
    #[inline]
    pub fn config(&self) -> &DitaConfig {
        &self.config
    }

    /// Re-targets the thread budget without retraining. Every result —
    /// training pools, assignments, round reports — is bit-identical
    /// at any budget, so this changes only the wall time of subsequent
    /// scoring and pool maintenance. Used by serving deployments (and
    /// `bench_round`) to scale one trained model across machines.
    pub fn set_threads(&mut self, threads: sc_influence::Parallelism) {
        self.config.rpo.threads = threads;
    }

    /// RPO diagnostics (pool size, bounds, rounds).
    #[inline]
    pub fn rpo_stats(&self) -> &RpoStats {
        &self.rpo_stats
    }

    /// The RRR pool (propagation estimators).
    #[inline]
    pub fn pool(&self) -> &RrrPool {
        &self.pool
    }

    /// Mutable access to the RRR pool — the online-maintenance hook.
    ///
    /// The engine uses it to rotate the pool (advance epoch, evict a
    /// bounded stale prefix, extend back to the target) between
    /// assignment rounds. Any scorer is created per round, so a pool
    /// mutated here is consistently visible to the next round's
    /// scoring. Replacing the pool wholesale (e.g. with a freshly
    /// retrained one) is the retrain-oracle path of `bench_online`.
    #[inline]
    pub fn pool_mut(&mut self) -> &mut RrrPool {
        &mut self.pool
    }

    /// The willingness model.
    #[inline]
    pub fn willingness_model(&self) -> &WillingnessModel {
        &self.willingness
    }

    /// Folds a previously-unseen worker into the trained model without
    /// retraining, returning the worker's new (dense) id.
    ///
    /// `net` must be the social network *after*
    /// [`sc_influence::SocialNetwork::fold_in_worker`] — i.e. it already
    /// contains the new worker and their friendships. `history` is
    /// whatever check-in evidence has been observed for the worker so
    /// far (possibly a single record); it drives all three per-worker
    /// components:
    ///
    /// * **affinity** — the worker's topic distribution is inferred by
    ///   LDA fold-in over the history's category document (seeded by
    ///   content, like [`InfluenceModel::task_topics`]);
    /// * **willingness** — a [`WillingnessModel`] entry fitted from the
    ///   history (zero everywhere if the history is empty);
    /// * **propagation** — the RRR pool splices the worker into live
    ///   sets via [`sc_influence::RrrPool::fold_in_worker`]'s bounded
    ///   first-order approximation.
    ///
    /// Location entropy is venue-keyed and stays frozen. The result is
    /// a late arrival that scores **non-zero influence immediately**,
    /// at a per-worker cost orders of magnitude below a retrain
    /// (measured in `bench_replay`); subsequent pool rotation replaces
    /// the approximated memberships with exactly-sampled ones.
    pub fn fold_in_worker(&mut self, net: &SocialNetwork, history: &History) -> WorkerId {
        let id = WorkerId::from(self.n_workers);
        debug_assert_eq!(
            net.n_workers(),
            self.n_workers + 1,
            "fold the network first"
        );

        // Affinity: infer θ from the (possibly tiny) category document,
        // deterministically per content.
        let doc: Vec<u32> = history
            .category_document()
            .iter()
            .map(|c| c.raw())
            .collect();
        let mut h = 0x9E37_79B9_7F4A_7C15u64 ^ self.config.seed ^ (id.raw() as u64).rotate_left(32);
        for &w in &doc {
            h ^= w as u64 + 1;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        let mut rng = SmallRng::seed_from_u64(h);
        self.worker_topics
            .push(self.lda.infer(&doc, self.config.infer_sweeps, &mut rng));

        // Willingness: pad any gap first (a training store may cover
        // fewer workers than the social network), then fit the arrival.
        while self.willingness.n_workers() < self.n_workers {
            self.willingness.fold_in(&History::new());
        }
        self.willingness.fold_in(history);

        // Propagation: splice into the live RRR sets.
        self.pool.fold_in_worker(net, id.raw());

        self.n_workers += 1;
        id
    }

    /// θ of a worker's historical document (uniform for unknown workers).
    pub fn worker_topics(&self, worker: WorkerId) -> &[f64] {
        static EMPTY: Vec<f64> = Vec::new();
        self.worker_topics.get(worker.index()).unwrap_or(&EMPTY)
    }

    /// Infers θ of a task's category document (paper: `dc_s`).
    /// Deterministic per task content.
    pub fn task_topics(&self, task: &Task) -> Vec<f64> {
        let doc: Vec<u32> = task.categories.iter().map(|c| c.raw()).collect();
        // Seed from the category content so identical venues always get
        // identical topic distributions.
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ self.config.seed;
        for &w in &doc {
            h ^= w as u64 + 1;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        let mut rng = SmallRng::seed_from_u64(h);
        self.lda.infer(&doc, self.config.infer_sweeps, &mut rng)
    }

    /// `P_aff(w, s)` given a precomputed task θ.
    pub fn affinity_with(&self, worker: WorkerId, task_topics: &[f64]) -> f64 {
        let wt = self.worker_topics(worker);
        if wt.is_empty() {
            return 0.0;
        }
        topic_affinity(wt, task_topics)
    }

    /// `P_wil(w, s)` for a task location.
    pub fn willingness(&self, worker: WorkerId, location: &Location) -> f64 {
        self.willingness.willingness(worker, location)
    }

    /// Willingness of the entire population towards one location.
    pub fn willingness_all(&self, location: &Location, out: &mut Vec<f64>) {
        self.willingness.willingness_all(location, out);
        out.resize(self.n_workers, 0.0);
    }

    /// `P_pro(source, target)` from the RRR pool (Eq. 3).
    pub fn propagation(&self, source: WorkerId, target: WorkerId) -> f64 {
        if source.index() >= self.pool.n_workers() || target.index() >= self.pool.n_workers() {
            return 0.0;
        }
        self.pool
            .propagation_probability(source.raw(), target.raw())
    }

    /// `Σ_{w ≠ source} P_pro(source, w)` — the AP metric contribution.
    pub fn total_propagation(&self, source: WorkerId) -> f64 {
        if source.index() >= self.pool.n_workers() {
            return 0.0;
        }
        self.pool.total_propagation(source.raw())
    }

    /// Location entropy `s.e` of a venue.
    pub fn entropy_of_venue(&self, venue: VenueId) -> f64 {
        self.entropy.entropy_of(venue)
    }

    /// Entropies for a task-aligned venue list.
    pub fn task_entropies(&self, task_venues: &[VenueId]) -> Vec<f64> {
        task_venues
            .iter()
            .map(|&v| self.entropy.entropy_of(v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_types::{CategoryId, CheckIn, Duration, TaskId, TimeInstant};

    /// Small world: 4 workers in a chain social net; workers 0/1 do
    /// category-A tasks at venue cluster x≈0, workers 2/3 do category-B
    /// tasks at x≈10.
    fn tiny_world() -> (SocialNetwork, HistoryStore) {
        let social = SocialNetwork::from_undirected_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut store = HistoryStore::with_workers(4);
        for w in 0..4u32 {
            let (base_x, cat) = if w < 2 { (0.0, 0u32) } else { (10.0, 30u32) };
            for i in 0..12 {
                store.push(CheckIn::at(
                    WorkerId::new(w),
                    VenueId::new(w * 20 + (i % 3)),
                    Location::new(base_x + (i % 3) as f64 * 0.5, 0.0),
                    TimeInstant::from_seconds((w as i64) * 1000 + i as i64),
                    vec![CategoryId::new(cat + (i % 3))],
                ));
            }
        }
        (social, store)
    }

    fn small_config() -> DitaConfig {
        DitaConfig {
            n_topics: 4,
            lda_sweeps: 80,
            infer_sweeps: 30,
            rpo: sc_influence::RpoParams {
                max_sets: 20_000,
                ..Default::default()
            },
            seed: 7,
            ..Default::default()
        }
    }

    fn task_with(cat: u32, x: f64) -> Task {
        Task::new(
            TaskId::new(0),
            Location::new(x, 0.0),
            TimeInstant::EPOCH,
            Duration::hours(5),
            CategoryId::new(cat),
        )
    }

    #[test]
    fn affinity_separates_category_groups() {
        let (social, store) = tiny_world();
        let model = InfluenceModel::train(&small_config(), &social, &store);
        let task_a = task_with(0, 0.0);
        let theta_a = model.task_topics(&task_a);
        let aff_w0 = model.affinity_with(WorkerId::new(0), &theta_a);
        let aff_w3 = model.affinity_with(WorkerId::new(3), &theta_a);
        assert!(
            aff_w0 > aff_w3,
            "category-A worker should prefer the A task: {aff_w0} vs {aff_w3}"
        );
    }

    #[test]
    fn willingness_reflects_home_region() {
        let (social, store) = tiny_world();
        let model = InfluenceModel::train(&small_config(), &social, &store);
        let near_home = model.willingness(WorkerId::new(0), &Location::new(0.0, 0.0));
        let far = model.willingness(WorkerId::new(0), &Location::new(10.0, 0.0));
        assert!(near_home > far);
        // Worker 3 mirrors it.
        let w3_near = model.willingness(WorkerId::new(3), &Location::new(10.0, 0.0));
        let w3_far = model.willingness(WorkerId::new(3), &Location::new(0.0, 0.0));
        assert!(w3_near > w3_far);
    }

    #[test]
    fn propagation_respects_network_distance() {
        let (social, store) = tiny_world();
        let model = InfluenceModel::train(&small_config(), &social, &store);
        // Chain 0-1-2-3: informing a direct neighbour is more likely than
        // the far end.
        let near = model.propagation(WorkerId::new(0), WorkerId::new(1));
        let far = model.propagation(WorkerId::new(0), WorkerId::new(3));
        assert!(near > far, "near {near} vs far {far}");
        assert_eq!(model.propagation(WorkerId::new(0), WorkerId::new(0)), 0.0);
    }

    #[test]
    fn total_propagation_sums_pairs() {
        let (social, store) = tiny_world();
        let model = InfluenceModel::train(&small_config(), &social, &store);
        let total = model.total_propagation(WorkerId::new(1));
        let sum: f64 = (0..4)
            .filter(|&i| i != 1)
            .map(|i| model.propagation(WorkerId::new(1), WorkerId::new(i)))
            .sum();
        assert!((total - sum).abs() < 1e-9);
    }

    #[test]
    fn out_of_range_workers_are_harmless() {
        let (social, store) = tiny_world();
        let model = InfluenceModel::train(&small_config(), &social, &store);
        let w9 = WorkerId::new(9);
        assert_eq!(model.willingness(w9, &Location::ORIGIN), 0.0);
        assert_eq!(model.propagation(w9, WorkerId::new(0)), 0.0);
        assert_eq!(model.total_propagation(w9), 0.0);
        assert!(model.worker_topics(w9).is_empty());
        let theta = model.task_topics(&task_with(0, 0.0));
        assert_eq!(model.affinity_with(w9, &theta), 0.0);
    }

    #[test]
    fn task_topics_are_deterministic_per_content() {
        let (social, store) = tiny_world();
        let model = InfluenceModel::train(&small_config(), &social, &store);
        let a = model.task_topics(&task_with(0, 0.0));
        let b = model.task_topics(&task_with(0, 5.0)); // location differs, content same
        assert_eq!(a, b);
    }

    #[test]
    fn training_is_deterministic() {
        let (social, store) = tiny_world();
        let a = InfluenceModel::train(&small_config(), &social, &store);
        let b = InfluenceModel::train(&small_config(), &social, &store);
        assert_eq!(
            a.worker_topics(WorkerId::new(0)),
            b.worker_topics(WorkerId::new(0))
        );
        assert_eq!(a.pool().n_sets(), b.pool().n_sets());
    }

    #[test]
    fn entropies_follow_history() {
        let (social, store) = tiny_world();
        let model = InfluenceModel::train(&small_config(), &social, &store);
        // Every venue in the tiny world is visited by exactly one worker.
        assert_eq!(model.entropy_of_venue(VenueId::new(0)), 0.0);
        let es = model.task_entropies(&[VenueId::new(0), VenueId::new(999)]);
        assert_eq!(es, vec![0.0, 0.0]);
    }

    #[test]
    fn fold_in_worker_scores_nonzero_immediately() {
        let (social, store) = tiny_world();
        let mut model = InfluenceModel::train(&small_config(), &social, &store);

        // The arrival: one category-A check-in near the A cluster,
        // friends with workers 0 and 1 (category-A regulars).
        let mut hist = History::new();
        hist.push(sc_types::CheckIn::at(
            WorkerId::new(4),
            VenueId::new(99),
            Location::new(0.5, 0.0),
            TimeInstant::from_seconds(5_000),
            vec![CategoryId::new(0)],
        ));
        let folded_net = social.fold_in_worker(&[0, 1]);
        let id = model.fold_in_worker(&folded_net, &hist);
        assert_eq!(id, WorkerId::new(4));
        assert_eq!(model.n_workers(), 5);

        // All three factors are live: affinity from the inferred θ,
        // willingness from the fitted entry, propagation from the
        // spliced pool memberships.
        let task = task_with(0, 0.0);
        let theta = model.task_topics(&task);
        assert!(model.affinity_with(id, &theta) > 0.0);
        assert!(model.willingness(id, &Location::new(0.5, 0.0)) > 0.0);
        assert!(
            model.total_propagation(id) > 0.0,
            "fold-in must land the worker in live RRR sets"
        );
        // willingness_all covers the grown population without panicking.
        let mut buf = Vec::new();
        model.willingness_all(&task.location, &mut buf);
        assert_eq!(buf.len(), 5);
    }

    #[test]
    fn fold_in_is_deterministic() {
        let (social, store) = tiny_world();
        let mut a = InfluenceModel::train(&small_config(), &social, &store);
        let mut b = InfluenceModel::train(&small_config(), &social, &store);
        let mut hist = History::new();
        hist.push(sc_types::CheckIn::at(
            WorkerId::new(4),
            VenueId::new(7),
            Location::new(1.0, 1.0),
            TimeInstant::from_seconds(10),
            vec![CategoryId::new(1), CategoryId::new(2)],
        ));
        let net = social.fold_in_worker(&[1, 2]);
        a.fold_in_worker(&net, &hist);
        b.fold_in_worker(&net, &hist);
        assert_eq!(
            a.worker_topics(WorkerId::new(4)),
            b.worker_topics(WorkerId::new(4))
        );
        assert_eq!(a.pool().fingerprint(), b.pool().fingerprint());
        assert_eq!(
            a.total_propagation(WorkerId::new(4)),
            b.total_propagation(WorkerId::new(4))
        );
    }

    #[test]
    fn empty_world_trains() {
        let social = SocialNetwork::from_directed_edges(0, &[]);
        let store = HistoryStore::default();
        let model = InfluenceModel::train(&small_config(), &social, &store);
        assert_eq!(model.n_workers(), 0);
    }
}
