//! The end-to-end DITA pipeline (paper Figure 2).

use crate::config::DitaConfig;
use crate::model::InfluenceModel;
use crate::scorer::{InfluenceScorer, InfluenceVariant, ScorerCache};
use sc_assign::{run_scored, score_pairs, AlgorithmKind, AssignInput, EligibilityMatrix};
use sc_influence::SocialNetwork;
use sc_types::{Assignment, HistoryStore, Instance, VenueId};
use std::time::Instant;

/// Builder for [`DitaPipeline`].
#[derive(Debug, Clone, Default)]
pub struct DitaBuilder {
    config: DitaConfig,
}

impl DitaBuilder {
    /// Starts from the paper-default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the full configuration.
    #[must_use]
    pub fn config(mut self, config: DitaConfig) -> Self {
        self.config = config;
        self
    }

    /// Overrides the topic count `|Top|`.
    #[must_use]
    pub fn topics(mut self, n_topics: usize) -> Self {
        self.config.n_topics = n_topics;
        self
    }

    /// Overrides the master seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Overrides the RPO sampling parameters.
    #[must_use]
    pub fn rpo(mut self, rpo: sc_influence::RpoParams) -> Self {
        self.config.rpo = rpo;
        self
    }

    /// Overrides the thread budget. One knob governs every parallel
    /// phase of the pipeline: RRR-pool sampling during training *and*
    /// the per-instance scoring passes of every
    /// [`DitaPipeline::assign`] call (eligibility sharding,
    /// influence-cache warming, the pair scan).
    /// Results are bit-identical at any setting — this knob trades
    /// wall time only.
    ///
    /// ```
    /// use sc_core::{AlgorithmKind, DitaBuilder, OnlineConfig, Parallelism};
    /// use sc_influence::{RpoParams, SocialNetwork};
    /// use sc_types::*;
    ///
    /// // A 4-worker toy world: a chain social network and two
    /// // check-ins per worker.
    /// let social = SocialNetwork::from_undirected_edges(4, &[(0, 1), (1, 2), (2, 3)]);
    /// let mut histories = HistoryStore::with_workers(4);
    /// for w in 0..4u32 {
    ///     for i in 0..2 {
    ///         histories.push(CheckIn::at(
    ///             WorkerId::new(w),
    ///             VenueId::new(w * 2 + i),
    ///             Location::new(w as f64, i as f64),
    ///             TimeInstant::from_seconds((w * 10 + i) as i64),
    ///             vec![CategoryId::new(w % 2)],
    ///         ));
    ///     }
    /// }
    ///
    /// // The threads knob parallelizes training *and* per-round
    /// // scoring; the online knob configures bounded pool rotation
    /// // for serving. Both are plumbed through the one builder.
    /// let pipeline = DitaBuilder::new()
    ///     .topics(2)
    ///     .seed(7)
    ///     .rpo(RpoParams { max_sets: 2_000, ..Default::default() })
    ///     .threads(Parallelism::Fixed(2))
    ///     .online(OnlineConfig::streaming())
    ///     .build(&social, &histories)
    ///     .unwrap();
    /// assert_eq!(pipeline.scoring_threads(), 2);
    /// assert!(pipeline.model().config().online.maintains_pool());
    ///
    /// // Assignments are bit-identical at any thread count.
    /// let instance = Instance::new(
    ///     TimeInstant::at(0, 9),
    ///     (0..4).map(|w| Worker::new(WorkerId::new(w), Location::new(w as f64, 0.0), 30.0)).collect(),
    ///     (0..3).map(|t| Task::new(
    ///         TaskId::new(t),
    ///         Location::new(t as f64, 0.5),
    ///         TimeInstant::at(0, 8),
    ///         Duration::hours(4),
    ///         CategoryId::new(t % 2),
    ///     )).collect(),
    /// );
    /// let (a, _perf) = pipeline.assign(&instance, None, AlgorithmKind::Ia);
    /// assert_eq!(a.len(), 3);
    /// ```
    #[must_use]
    pub fn threads(mut self, threads: sc_influence::Parallelism) -> Self {
        self.config.rpo.threads = threads;
        self
    }

    /// Overrides the online-maintenance configuration (round length,
    /// rotation quantum, eviction horizon). Ignored by batch sweeps;
    /// the online engine reads it off the trained pipeline.
    #[must_use]
    pub fn online(mut self, online: crate::config::OnlineConfig) -> Self {
        self.config.online = online;
        self
    }

    /// Trains every model (LDA, willingness, entropy, RRR pool) and
    /// returns the ready pipeline. Refuses histories of workers the
    /// social network lacks: the RRR pool could never reach them.
    pub fn build(
        self,
        social: &SocialNetwork,
        histories: &HistoryStore,
    ) -> sc_types::Result<DitaPipeline> {
        if self.config.n_topics == 0 {
            return Err(sc_types::ScError::invalid("n_topics must be positive"));
        }
        if histories.n_workers() > social.n_workers() {
            return Err(sc_types::ScError::invalid(format!(
                "histories cover {} workers but the social network has {}",
                histories.n_workers(),
                social.n_workers()
            )));
        }
        let model = InfluenceModel::train(&self.config, social, histories);
        Ok(DitaPipeline {
            model,
            cache: ScorerCache::new(),
        })
    }
}

/// Wall-time and cache telemetry of one [`DitaPipeline::assign`] call,
/// split by phase. The `*_ms` fields are measurements (they vary
/// run to run); the cache and solve counters are deterministic facts of
/// the round and the cache's state. Deliberately **not** `PartialEq`:
/// round-report equality is asserted over assignment outcomes, never
/// over perf telemetry (warm- and cold-cache rounds legitimately differ
/// here while producing identical assignments).
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundPerf {
    /// Eligibility phase (the from-scratch build).
    pub eligibility_ms: f64, // lint: timing
    /// Scorer-cache warming over the eligible tasks.
    pub warm_ms: f64, // lint: timing
    /// The sharded pair scan (influence scoring).
    pub score_ms: f64, // lint: timing
    /// The assignment solve (MCMF / greedy).
    pub solve_ms: f64, // lint: timing
    /// Distinct task-content keys already resident at warm time.
    pub cache_hits: usize,
    /// Distinct task-content keys computed this round.
    pub cache_misses: usize,
    /// Shortest-path search passes the MCMF solve ran (0 for non-flow
    /// algorithms).
    pub solve_passes: usize,
    /// Augmenting paths the MCMF solve committed (0 for non-flow
    /// algorithms).
    pub solve_augmentations: usize,
}

/// A trained DITA pipeline: influence modeling plus task assignment.
///
/// `Clone` lets an [`sc_types`]-level caller hand a live copy to an
/// online engine (which mutates its pool between rounds) while keeping
/// the original frozen for batch sweeps. The clone starts with an
/// *empty* scorer cache — cached values are derived data, and a fresh
/// copy must not share interior-mutable state with the original.
#[derive(Debug)]
pub struct DitaPipeline {
    model: InfluenceModel,
    /// The persistent per-task scorer cache (see [`ScorerCache`]):
    /// survives across rounds and across the pool maintenance that
    /// mutably borrows `model` between them. Population-tagged —
    /// after a worker fold-in the next scorer bind extends every entry
    /// to the grown population; rotation/eviction leave it valid.
    cache: ScorerCache,
}

impl Clone for DitaPipeline {
    fn clone(&self) -> Self {
        DitaPipeline {
            model: self.model.clone(),
            cache: ScorerCache::new(),
        }
    }
}

/// Snapshot serde: only the trained model travels. The scorer cache is
/// derived data (entries are pure functions of task content and the
/// frozen models), so a restored pipeline starts cold exactly like a
/// [`Clone`] — and serves bit-identical scores from the first round.
impl serde::Serialize for DitaPipeline {
    fn to_value(&self) -> serde::json::Value {
        serde::json::Value::Object(vec![("model".to_string(), self.model.to_value())])
    }
}

impl serde::Deserialize for DitaPipeline {
    fn from_value(value: &serde::json::Value) -> Result<Self, serde::Error> {
        let obj = value
            .as_object()
            .ok_or_else(|| serde::Error::expected("pipeline object", value))?;
        Ok(DitaPipeline {
            model: serde::get_field(obj, "model")?,
            cache: ScorerCache::new(),
        })
    }
}

impl DitaPipeline {
    /// The trained influence model.
    pub fn model(&self) -> &InfluenceModel {
        &self.model
    }

    /// The resolved thread budget the per-instance scoring passes run
    /// on (from [`DitaConfig::threads`], the same knob that governed
    /// training). [`DitaPipeline::assign`] shards eligibility
    /// construction, influence-cache warming, and the pair scan over
    /// this many threads; results are bit-identical at any value.
    pub fn scoring_threads(&self) -> usize {
        self.model.config().threads().resolve()
    }

    /// Mutable access to the model — the online-maintenance hook (see
    /// [`InfluenceModel::pool_mut`]).
    pub fn model_mut(&mut self) -> &mut InfluenceModel {
        &mut self.model
    }

    /// Folds a previously-unseen worker into the trained model without
    /// retraining (see [`InfluenceModel::fold_in_worker`]): topic
    /// fold-in for affinity, a fitted willingness entry, and an
    /// approximate splice into the live RRR pool. Returns the worker's
    /// new dense id. `net` must already contain the worker
    /// ([`sc_influence::SocialNetwork::fold_in_worker`]).
    pub fn fold_in_worker(
        &mut self,
        net: &SocialNetwork,
        history: &sc_types::History,
    ) -> sc_types::WorkerId {
        self.model.fold_in_worker(net, history)
    }

    /// Creates an influence oracle (full product) bound to the
    /// pipeline's persistent [`ScorerCache`] — per-task quantities
    /// computed by one scorer are re-hit by the next, across rounds
    /// and across pool maintenance. Values are bit-identical to a
    /// fresh-cache scorer (entries are pure functions of task content
    /// and the frozen models).
    pub fn scorer(&self) -> InfluenceScorer<'_> {
        self.scorer_variant(InfluenceVariant::Full)
    }

    /// Creates an ablation oracle, sharing the same persistent cache
    /// (entries hold raw per-task quantities, not scores, so one cache
    /// serves every variant).
    pub fn scorer_variant(&self, variant: InfluenceVariant) -> InfluenceScorer<'_> {
        InfluenceScorer::new(&self.model, &self.cache, variant)
    }

    /// The pipeline's persistent per-task scorer cache. Scorers manage
    /// it automatically; clearing it makes the next round score cold,
    /// as a round with `OnlineConfig::incremental` off does.
    pub fn scorer_cache(&self) -> &ScorerCache {
        &self.cache
    }

    /// Runs `kind` on one instance along paper Figure 2's path — the
    /// one assignment call of the online engine, `dita assign` and the
    /// examples: build the eligibility matrix from scratch, warm the
    /// pipeline's persistent [`ScorerCache`] for every task with an
    /// eligible pair, score the pairs, solve. `task_venues`
    /// maps tasks to venues so EIA can weigh real location entropies;
    /// with `None` every `s.e` is 0 and EIA weighs like IA.
    ///
    /// Eligibility, warming and scoring run on
    /// [`DitaPipeline::scoring_threads`] threads. The `Assignment` is
    /// bit-identical at any thread budget and whatever the cache holds;
    /// a caller that wants the cold-cache baseline clears
    /// [`DitaPipeline::scorer_cache`] first. The returned [`RoundPerf`]
    /// is the only thing that differs.
    pub fn assign(
        &self,
        instance: &Instance,
        task_venues: Option<&[VenueId]>,
        kind: AlgorithmKind,
    ) -> (Assignment, RoundPerf) {
        let threads = self.scoring_threads();
        let mut perf = RoundPerf::default();

        let t = Instant::now();
        let matrix = EligibilityMatrix::build_with_threads(instance, threads);
        perf.eligibility_ms = t.elapsed().as_secs_f64() * 1e3;

        let scorer = self.scorer();

        let t = Instant::now();
        let warm = scorer.warm_eligible(instance, &matrix, threads);
        perf.cache_hits = warm.hits;
        perf.cache_misses = warm.misses;
        perf.warm_ms = t.elapsed().as_secs_f64() * 1e3;

        let entropies = task_venues.map(|tv| self.model.task_entropies(tv));
        let mut input = AssignInput::new(instance, &scorer).with_threads(threads);
        if let Some(e) = &entropies {
            input = input.with_entropy(e);
        }

        let t = Instant::now();
        let influences = score_pairs(&input, &matrix);
        perf.score_ms = t.elapsed().as_secs_f64() * 1e3;

        let t = Instant::now();
        let (assignment, solve) = run_scored(kind, &input, &matrix, &influences);
        perf.solve_ms = t.elapsed().as_secs_f64() * 1e3;
        perf.solve_passes = solve.passes;
        perf.solve_augmentations = solve.augmentations;

        (assignment, perf)
    }

    /// Average Propagation (paper Eq. 7) of an assignment:
    /// `AP = Σ_{(s,w) ∈ A} Σ_{w' ≠ w} P_pro(w, w') / |A|`.
    pub fn average_propagation(&self, assignment: &Assignment) -> f64 {
        if assignment.is_empty() {
            return 0.0;
        }
        let total: f64 = assignment
            .pairs()
            .iter()
            .map(|p| self.model.total_propagation(p.worker))
            .sum();
        total / assignment.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_types::{
        CategoryId, CheckIn, Duration, Location, Task, TaskId, TimeInstant, Worker, WorkerId,
    };

    fn tiny_pipeline() -> DitaPipeline {
        let social = SocialNetwork::from_undirected_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut store = HistoryStore::with_workers(4);
        for w in 0..4u32 {
            let x = w as f64 * 2.0;
            for i in 0..8 {
                store.push(CheckIn::at(
                    WorkerId::new(w),
                    sc_types::VenueId::new(w * 10 + (i % 2)),
                    Location::new(x, (i % 2) as f64),
                    TimeInstant::from_seconds(w as i64 * 100 + i as i64),
                    vec![CategoryId::new(w % 3)],
                ));
            }
        }
        DitaBuilder::new()
            .topics(3)
            .seed(11)
            .rpo(sc_influence::RpoParams {
                max_sets: 10_000,
                ..Default::default()
            })
            .build(&social, &store)
            .unwrap()
    }

    fn instance() -> Instance {
        Instance::new(
            TimeInstant::at(0, 9),
            (0..4)
                .map(|w| Worker::new(WorkerId::new(w), Location::new(w as f64 * 2.0, 0.0), 25.0))
                .collect(),
            (0..3)
                .map(|t| {
                    Task::new(
                        TaskId::new(t),
                        Location::new(t as f64 * 3.0, 0.5),
                        TimeInstant::at(0, 8),
                        Duration::hours(5),
                        CategoryId::new(t % 3),
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn builder_rejects_zero_topics() {
        let social = SocialNetwork::from_directed_edges(2, &[(0, 1)]);
        let store = HistoryStore::with_workers(2);
        let err = DitaBuilder::new().topics(0).build(&social, &store);
        assert!(err.is_err());
    }

    #[test]
    fn builder_rejects_histories_beyond_the_network() {
        let social = SocialNetwork::from_undirected_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let build = |n| {
            DitaBuilder::new()
                .rpo(sc_influence::RpoParams {
                    max_sets: 1_000,
                    ..Default::default()
                })
                .build(&social, &HistoryStore::with_workers(n))
        };
        assert!(build(6).is_err());
        assert!(build(4).is_ok());
        assert!(build(2).is_ok());
    }

    #[test]
    fn assign_produces_valid_assignment() {
        let p = tiny_pipeline();
        let inst = instance();
        let (a, _) = p.assign(&inst, None, AlgorithmKind::Ia);
        assert_eq!(a.len(), 3, "all tasks reachable with r=25");
        for pair in a.pairs() {
            assert!(pair.influence >= 0.0);
            assert!(pair.distance_km <= 25.0);
        }
    }

    /// IA under an ablation variant, as the sweep harness runs it.
    fn ia_under(p: &DitaPipeline, inst: &Instance, variant: InfluenceVariant) -> Assignment {
        let scorer = p.scorer_variant(variant);
        let matrix = EligibilityMatrix::build(inst);
        let input = AssignInput::new(inst, &scorer);
        let influences = score_pairs(&input, &matrix);
        run_scored(AlgorithmKind::Ia, &input, &matrix, &influences).0
    }

    #[test]
    fn variants_run_and_differ_from_full() {
        let p = tiny_pipeline();
        let inst = instance();
        let full = ia_under(&p, &inst, InfluenceVariant::Full);
        assert_eq!(full.len(), 3);
        for v in InfluenceVariant::ALL {
            let a = ia_under(&p, &inst, v);
            assert_eq!(a.len(), 3, "{}", v.label());
        }
    }

    #[test]
    fn average_propagation_is_mean_of_worker_totals() {
        let p = tiny_pipeline();
        let inst = instance();
        let (a, _) = p.assign(&inst, None, AlgorithmKind::Ia);
        let ap = p.average_propagation(&a);
        let manual: f64 = a
            .pairs()
            .iter()
            .map(|pair| p.model().total_propagation(pair.worker))
            .sum::<f64>()
            / a.len() as f64;
        assert!((ap - manual).abs() < 1e-12);
        assert_eq!(p.average_propagation(&Assignment::new()), 0.0);
    }

    #[test]
    fn warm_round_equals_cold_round() {
        let p = tiny_pipeline();
        let inst = instance();
        let venues = vec![
            sc_types::VenueId::new(0),
            sc_types::VenueId::new(10),
            sc_types::VenueId::new(20),
        ];
        // Fill the cache once, so every round below starts warm.
        p.assign(&inst, Some(&venues), AlgorithmKind::Ia);
        for kind in [AlgorithmKind::Ia, AlgorithmKind::Eia, AlgorithmKind::Mta] {
            let (warm, warm_perf) = p.assign(&inst, Some(&venues), kind);
            p.scorer_cache().clear();
            let (cold, cold_perf) = p.assign(&inst, Some(&venues), kind);
            assert_eq!(warm, cold, "{kind}: warm cache != cold cache");
            assert_eq!(warm.len(), 3);
            // Telemetry counters are deterministic facts of the round.
            assert_eq!(warm_perf.cache_misses, 0, "{kind}: warm round missed");
            assert_eq!(warm_perf.cache_hits, 3);
            assert_eq!(cold_perf.cache_hits, 0, "{kind}: cold round hit");
            assert_eq!(cold_perf.cache_misses, 3);
        }
    }

    #[test]
    fn cloned_pipeline_starts_with_empty_cache() {
        let p = tiny_pipeline();
        p.assign(&instance(), None, AlgorithmKind::Ia);
        assert!(!p.scorer_cache().is_empty());
        let q = p.clone();
        assert!(q.scorer_cache().is_empty());
        assert_eq!(
            q.assign(&instance(), None, AlgorithmKind::Ia).0,
            p.assign(&instance(), None, AlgorithmKind::Ia).0
        );
    }

    #[test]
    fn entropy_aware_assignment_runs() {
        let p = tiny_pipeline();
        let inst = instance();
        let venues = vec![
            sc_types::VenueId::new(0),
            sc_types::VenueId::new(10),
            sc_types::VenueId::new(20),
        ];
        let (a, _) = p.assign(&inst, Some(&venues), AlgorithmKind::Eia);
        assert_eq!(a.len(), 3);
    }
}
