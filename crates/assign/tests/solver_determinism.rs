//! Thread-budget determinism suite for the MCMF solve.
//!
//! The repo's determinism contract says an assignment is a pure
//! function of the instance: no thread budget or execution order may
//! leak into results. This suite pins the strongest form of that claim
//! for the MCMF solve — full `run_scored` assignments
//! **byte-identical** across thread budgets 1/2/4/8 — on instances
//! engineered to be tie-heavy (the zero-influence plateau where every
//! pair costs exactly 1.0 before jitter), which is exactly where heap
//! and commit order would pick among several optima without the
//! per-pair tie-break jitter. Runs in the release-CI determinism job.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use sc_assign::{
    run_scored, score_pairs, AlgorithmKind, AssignInput, EligibilityMatrix, InfluenceFn,
    ZeroInfluence,
};
use sc_types::{
    Assignment, CategoryId, Duration, Instance, Location, Task, TaskId, TimeInstant, Worker,
    WorkerId,
};

const THREAD_BUDGETS: [usize; 4] = [1, 2, 4, 8];

/// A clustered random instance: workers and tasks drawn around shared
/// cluster centers so eligibility is dense and many pairs compete for
/// the same tasks (multi-pass augmentation with residual rerouting).
fn clustered_instance(seed: u64, n_workers: usize, n_tasks: usize) -> Instance {
    let mut rng = SmallRng::seed_from_u64(seed);
    let centers: Vec<(f64, f64)> = (0..4)
        .map(|_| (rng.random_range(0.0..20.0), rng.random_range(0.0..20.0)))
        .collect();
    let point = |rng: &mut SmallRng| {
        let (cx, cy) = centers[rng.random_range(0..centers.len())];
        (
            cx + rng.random_range(-2.0..2.0),
            cy + rng.random_range(-2.0..2.0),
        )
    };
    let workers = (0..n_workers)
        .map(|w| {
            let (x, y) = point(&mut rng);
            Worker::new(
                WorkerId::new(w as u32),
                Location::new(x, y),
                rng.random_range(3.0..10.0),
            )
        })
        .collect();
    let tasks = (0..n_tasks)
        .map(|t| {
            let (x, y) = point(&mut rng);
            Task::new(
                TaskId::new(t as u32),
                Location::new(x, y),
                TimeInstant::at(0, 6),
                Duration::hours(8),
                CategoryId::new(t as u32 % 5),
            )
        })
        .collect();
    Instance::new(TimeInstant::at(0, 7), workers, tasks)
}

/// Runs `kind` under every thread budget; asserts all 4 assignments
/// are byte-identical and returns the reference.
fn assert_invariant(
    kind: AlgorithmKind,
    instance: &Instance,
    oracle: &dyn sc_assign::InfluenceOracle,
    entropy: Option<&[f64]>,
    label: &str,
) -> Assignment {
    let matrix = EligibilityMatrix::build(instance);
    let mut reference: Option<(usize, Assignment)> = None;
    for threads in THREAD_BUDGETS {
        let mut input = AssignInput::new(instance, oracle).with_threads(threads);
        if let Some(e) = entropy {
            input = input.with_entropy(e);
        }
        let influences = score_pairs(&input, &matrix);
        let assignment = run_scored(kind, &input, &matrix, &influences);
        match &reference {
            Some((t0, a0)) => assert_eq!(
                &assignment, a0,
                "{label}/{kind}: {threads} threads diverged from {t0}",
            ),
            None => reference = Some((threads, assignment)),
        }
    }
    reference.unwrap().1
}

/// The tie-plateau worst case: zero influence everywhere means every
/// pair costs exactly 1.0 before jitter — without the tie-break the
/// solve would return one of several optimal matchings.
#[test]
fn zero_influence_plateau_is_thread_invariant() {
    for seed in [1u64, 2, 3] {
        let instance = clustered_instance(seed, 40, 30);
        let a = assert_invariant(
            AlgorithmKind::Ia,
            &instance,
            &ZeroInfluence,
            None,
            "plateau",
        );
        assert!(!a.is_empty(), "plateau instance must assign something");
    }
}

/// Mixed-influence instances (some structure, frequent partial ties)
/// across the three MCMF-backed algorithms.
#[test]
fn mcmf_algorithms_are_thread_invariant() {
    // Coarsely quantized influence: collisions are common, so partial
    // tie plateaus appear alongside genuine cost structure.
    let oracle =
        InfluenceFn(|w: WorkerId, t: &Task| ((w.raw() * 7 + t.id.raw() * 13) % 5) as f64 * 0.5);
    let instance = clustered_instance(7, 50, 40);
    let entropy: Vec<f64> = (0..instance.tasks.len())
        .map(|t| (t % 3) as f64 * 0.4)
        .collect();
    for kind in [AlgorithmKind::Ia, AlgorithmKind::Eia, AlgorithmKind::Dia] {
        let a = assert_invariant(kind, &instance, &oracle, Some(&entropy), "mixed");
        assert!(!a.is_empty());
    }
}

/// Under the tie-break jitter every path cost is unique, so each
/// search pass finds exactly one tight path: one pass per augmentation
/// plus the final pass that finds none, at every thread budget.
#[test]
fn one_pass_per_augmentation_under_jitter() {
    use sc_assign::run_scored_with_stats;
    let instance = clustered_instance(11, 40, 30);
    let matrix = EligibilityMatrix::build(&instance);
    for threads in THREAD_BUDGETS {
        let input = AssignInput::new(&instance, &ZeroInfluence).with_threads(threads);
        let influences = score_pairs(&input, &matrix);
        let (a, stats) = run_scored_with_stats(AlgorithmKind::Ia, &input, &matrix, &influences);
        assert!(!a.is_empty(), "plateau instance must assign something");
        assert_eq!(stats.augmentations, a.len(), "{threads} threads");
        assert_eq!(
            stats.passes,
            stats.augmentations + 1,
            "{threads} threads: passes batched on a jittered instance"
        );
    }
}
