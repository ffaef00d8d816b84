//! The scorer's whole-matrix scan (`InfluenceOracle::influence_matrix`,
//! worker by worker over gathered set roots) must equal
//! `InfluenceScorer::score`, pair by pair, bit for bit, and `score` must
//! equal the influence formula rebuilt from the pool's own sums
//! (`RrrPool::weighted_propagation`, `InfluenceModel::total_propagation`)
//! bit for bit.
//!
//! The fixture runs several rounds over one trained pipeline and
//! rotates its RRR pool between them (evict a stale prefix, sample
//! fresh sets), so set ids and roots shift under the scan. Every round
//! is scanned under all four influence variants, at scoring budgets 1,
//! 2 and 4 (the matrix is large enough for four shards), on a cold
//! cache and on a warmed one, and compared with the per-pair scores of
//! a third, separate cache. The instances carry the cases a rewrite
//! of either can get wrong:
//!
//! * a worker id past the model's population (scores `+0.0`);
//! * isolated workers, who sit only in sets they root themselves, so
//!   their willingness sum is empty and `Iterator::sum` returns `−0.0`;
//! * two tasks of one content key, which share one cache entry;
//! * a cache nobody warmed, so the scan computes every entry itself;
//! * zero-affinity workers, in a second world trained without any
//!   check-in, where the full model returns `+0.0` before it sums.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use sc_assign::{EligibilityMatrix, InfluenceOracle};
use sc_core::{
    DitaBuilder, DitaConfig, DitaPipeline, InfluenceModel, InfluenceScorer, InfluenceVariant,
    ScorerCache,
};
use sc_influence::{RpoParams, SocialNetwork};
use sc_types::{
    CategoryId, CheckIn, Duration, HistoryStore, Instance, Location, Task, TaskId, TimeInstant,
    VenueId, Worker, WorkerId,
};

/// Workers in the trained population.
const WORKERS: u32 = 160;
/// The last few of them have no friendships at all.
const ISOLATED: u32 = 6;
/// Side of the square world, km.
const SIDE: f64 = 12.0;

fn home(w: u32) -> Location {
    let mut rng = SmallRng::seed_from_u64(u64::from(w) + 1_000);
    Location::new(rng.random_range(0.0..SIDE), rng.random_range(0.0..SIDE))
}

/// A social network with random friendships among the non-isolated
/// workers, and histories of check-ins near each worker's home in one
/// of four category groups (none at all when `checkins` is false).
fn world(checkins: bool) -> (SocialNetwork, HistoryStore) {
    let mut rng = SmallRng::seed_from_u64(7);
    let linked = WORKERS - ISOLATED;
    let mut edges = Vec::new();
    for w in 0..linked {
        for _ in 0..3 {
            let v = rng.random_range(0..linked);
            if v != w {
                edges.push((w, v));
            }
        }
    }
    let social = SocialNetwork::from_undirected_edges(WORKERS as usize, &edges);
    let mut store = HistoryStore::with_workers(WORKERS as usize);
    if checkins {
        for w in 0..WORKERS {
            let at = home(w);
            let group = (w % 4) * 5;
            for i in 0..8u32 {
                let dx = rng.random_range(-1.0..1.0);
                let dy = rng.random_range(-1.0..1.0);
                store.push(CheckIn::at(
                    WorkerId::new(w),
                    VenueId::new(w * 8 + i),
                    Location::new(at.x + dx, at.y + dy),
                    TimeInstant::from_seconds(i64::from(w * 100 + i)),
                    vec![CategoryId::new(group + i % 5)],
                ));
            }
        }
    }
    (social, store)
}

fn pipeline(social: &SocialNetwork, store: &HistoryStore) -> DitaPipeline {
    DitaBuilder::new()
        .config(DitaConfig {
            n_topics: 4,
            lda_sweeps: 20,
            infer_sweeps: 10,
            rpo: RpoParams {
                max_sets: 3_000,
                ..Default::default()
            },
            seed: 5,
            ..Default::default()
        })
        .build(social, store)
        .unwrap()
}

/// Round `round`'s instance: every worker near home plus one past the
/// population, and 60 tasks, the last a twin of task 7: a new id, the
/// same content.
fn instance(round: u64) -> Instance {
    let mut rng = SmallRng::seed_from_u64(round);
    let now = TimeInstant::at(round as i64, 9);
    let mut workers: Vec<Worker> = (0..WORKERS)
        .map(|w| {
            let at = home(w);
            let jitter = Location::new(
                at.x + rng.random_range(-0.5..0.5),
                at.y + rng.random_range(-0.5..0.5),
            );
            Worker::new(WorkerId::new(w), jitter, 5.0)
        })
        .collect();
    workers.push(Worker::new(
        WorkerId::new(WORKERS + 3),
        Location::new(SIDE / 2.0, SIDE / 2.0),
        5.0,
    ));
    let mut tasks: Vec<Task> = (0..59u32)
        .map(|t| {
            Task::with_categories(
                TaskId::new(t),
                Location::new(rng.random_range(0.0..SIDE), rng.random_range(0.0..SIDE)),
                now,
                Duration::hours(10),
                vec![
                    CategoryId::new(rng.random_range(0..20)),
                    CategoryId::new(rng.random_range(0..20)),
                ],
            )
        })
        .collect();
    let mut twin = tasks[7].clone();
    twin.id = TaskId::new(59);
    tasks.push(twin);
    Instance::new(now, workers, tasks)
}

/// The influence formula from the pool's own sums, given the task's
/// topics and population willingness.
fn pool_formula(
    model: &InfluenceModel,
    variant: InfluenceVariant,
    worker: WorkerId,
    topics: &[f64],
    willingness: &[f64],
) -> f64 {
    if worker.index() >= model.n_workers() {
        return 0.0;
    }
    let aff = model.affinity_with(worker, topics);
    let spread = || model.pool().weighted_propagation(worker.raw(), willingness);
    match variant {
        InfluenceVariant::Full if aff == 0.0 => 0.0,
        InfluenceVariant::Full => aff * spread(),
        InfluenceVariant::NoAffinity => spread(),
        InfluenceVariant::NoWillingness => aff * model.total_propagation(worker),
        InfluenceVariant::NoPropagation => aff * willingness[worker.index()],
    }
}

/// The per-pair reference: `score` of each pair through its own cache,
/// checked against [`pool_formula`] bit for bit.
fn per_pair(pipeline: &DitaPipeline, variant: InfluenceVariant, inst: &Instance) -> Vec<f64> {
    let model = pipeline.model();
    let cache = ScorerCache::new();
    let scorer = InfluenceScorer::new(model, &cache, variant);
    let matrix = EligibilityMatrix::build(inst);
    let mut quantities: Vec<Option<(Vec<f64>, Vec<f64>)>> = vec![None; inst.tasks.len()];
    matrix
        .pairs()
        .iter()
        .map(|p| {
            let worker = inst.workers[p.worker_idx as usize].id;
            let task = &inst.tasks[p.task_idx as usize];
            let got = scorer.score(worker, task);
            let (topics, willingness) = quantities[p.task_idx as usize].get_or_insert_with(|| {
                let mut willingness = Vec::new();
                model.willingness_all(&task.location, &mut willingness);
                (model.task_topics(task), willingness)
            });
            let want = pool_formula(model, variant, worker, topics, willingness);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{}: pair {p:?} scores {got:e}, the pool formula reads {want:e}",
                variant.label(),
            );
            got
        })
        .collect()
}

/// Scans `inst` under every variant and budget, cold and warm, and
/// compares each scan with the per-pair scores bit for bit. Returns the
/// full model's per-pair scores.
fn assert_scans_match(pipeline: &DitaPipeline, inst: &Instance, label: &str) -> Vec<f64> {
    let matrix = EligibilityMatrix::build(inst);
    assert!(
        matrix.n_pairs() > 3 * 1024,
        "{label}: {} pairs are too few for four shards",
        matrix.n_pairs()
    );
    let mut used = vec![false; inst.tasks.len()];
    for p in matrix.pairs() {
        used[p.task_idx as usize] = true;
    }
    assert!(used[7] && used[59], "{label}: the twin tasks have pairs");
    // One cache entry per content key with a pair: the twins share one.
    let entries = used.iter().filter(|&&u| u).count() - 1;
    let mut full = Vec::new();
    for variant in InfluenceVariant::ALL {
        let want = per_pair(pipeline, variant, inst);
        for threads in [1, 2, 4] {
            for warm in [false, true] {
                let cache = ScorerCache::new();
                let scorer = InfluenceScorer::new(pipeline.model(), &cache, variant);
                if warm {
                    scorer.warm_eligible(inst, &matrix, threads);
                }
                let got = scorer.influence_matrix(inst, &matrix, threads);
                assert_eq!(got.len(), want.len());
                for (pi, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "{label}, {}, {threads} threads, warm {warm}: pair {pi} \
                         ({:?}) scans to {g:e}, scores {w:e}",
                        variant.label(),
                        matrix.pairs()[pi],
                    );
                }
                // A cold scan publishes the entries it had to compute.
                assert_eq!(cache.len(), entries, "{label}");
            }
        }
        if variant == InfluenceVariant::Full {
            full = want;
        }
    }
    full
}

/// The scores of the pairs whose worker satisfies `pick`.
fn of_workers(inst: &Instance, scores: &[f64], pick: impl Fn(u32) -> bool) -> Vec<f64> {
    let matrix = EligibilityMatrix::build(inst);
    matrix
        .pairs()
        .iter()
        .zip(scores)
        .filter(|(p, _)| pick(inst.workers[p.worker_idx as usize].id.raw()))
        .map(|(_, &v)| v)
        .collect()
}

#[test]
fn whole_matrix_scan_equals_per_pair_scores() {
    let (social, store) = world(true);
    let mut pipeline = pipeline(&social, &store);
    for round in 0..3u64 {
        if round > 0 {
            let pool = pipeline.model_mut().pool_mut();
            let target = pool.n_sets();
            let epoch = pool.advance_epoch();
            assert_eq!(pool.evict_before_epoch(epoch, 700), 700);
            pool.extend_to(&social, target, 2);
        }
        let inst = instance(round);
        let full = assert_scans_match(&pipeline, &inst, &format!("round {round}"));

        let past = of_workers(&inst, &full, |w| w >= WORKERS);
        assert!(!past.is_empty(), "the worker past the population has pairs");
        assert!(past.iter().all(|v| v.to_bits() == 0.0f64.to_bits()));

        let isolated = of_workers(&inst, &full, |w| (WORKERS - ISOLATED..WORKERS).contains(&w));
        assert!(!isolated.is_empty(), "isolated workers have pairs");
        assert!(
            isolated.iter().all(|v| v.to_bits() == (-0.0f64).to_bits()),
            "an empty willingness sum is -0.0: {isolated:?}"
        );
        assert!(
            full.iter().any(|&v| v > 0.0),
            "round {round}: some pair has influence"
        );
    }
}

#[test]
fn zero_affinity_world_scans_like_per_pair_scores() {
    let (social, store) = world(false);
    let pipeline = pipeline(&social, &store);
    let inst = instance(9);
    let full = assert_scans_match(&pipeline, &inst, "no check-ins");
    let trained = of_workers(&inst, &full, |w| w < WORKERS);
    assert!(
        trained.iter().all(|v| v.to_bits() == 0.0f64.to_bits()),
        "a zero affinity returns +0.0 before any sum"
    );
}
