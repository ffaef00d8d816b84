//! Sharded eligibility construction must equal the sequential build
//! byte-for-byte — matrix-for-matrix at any thread count, including
//! the degenerate shapes a shard scheduler tends to get wrong (empty
//! ranges, one item, far more items than shards, all-empty rows).

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use sc_assign::EligibilityMatrix;
use sc_types::{
    CategoryId, Duration, Instance, Location, Task, TaskId, TimeInstant, Worker, WorkerId,
};

const THREAD_COUNTS: [usize; 6] = [1, 2, 3, 4, 8, 16];

fn worker(id: u32, x: f64, y: f64, radius: f64) -> Worker {
    Worker::new(WorkerId::new(id), Location::new(x, y), radius)
}

fn task(id: u32, x: f64, y: f64, valid_h: i64) -> Task {
    Task::new(
        TaskId::new(id),
        Location::new(x, y),
        TimeInstant::at(0, 0),
        Duration::hours(valid_h),
        CategoryId::new(0),
    )
}

/// Asserts every sharded build equals the sequential one — the
/// derived `PartialEq` compares the full CSR (pairs including the
/// f64 distances, offsets, task count), so equality here is the
/// byte-for-byte contract.
fn assert_identical_at_all_budgets(instance: &Instance, label: &str) {
    let sequential = EligibilityMatrix::build(instance);
    for threads in THREAD_COUNTS {
        let sharded = EligibilityMatrix::build_with_threads(instance, threads);
        assert_eq!(sharded, sequential, "{label}: threads={threads}");
        // Belt and braces: re-check the CSR row slices, not just the
        // aggregate equality.
        assert_eq!(sharded.n_workers(), sequential.n_workers());
        for wi in 0..sequential.n_workers() {
            assert_eq!(
                sharded.of_worker(wi),
                sequential.of_worker(wi),
                "{label}: threads={threads} worker={wi}"
            );
        }
    }
}

#[test]
fn empty_task_set() {
    let workers = (0..40).map(|w| worker(w, w as f64, 0.0, 5.0)).collect();
    let inst = Instance::new(TimeInstant::at(0, 0), workers, vec![]);
    assert_identical_at_all_budgets(&inst, "empty tasks");
    assert_eq!(EligibilityMatrix::build_with_threads(&inst, 8).n_pairs(), 0);
}

#[test]
fn empty_instance() {
    let inst = Instance::new(TimeInstant::EPOCH, vec![], vec![]);
    assert_identical_at_all_budgets(&inst, "empty instance");
}

#[test]
fn single_task() {
    let workers = (0..60)
        .map(|w| worker(w, (w % 10) as f64, 0.0, 6.0))
        .collect();
    let inst = Instance::new(TimeInstant::at(0, 0), workers, vec![task(0, 3.0, 0.0, 24)]);
    assert_identical_at_all_budgets(&inst, "single task");
    assert!(EligibilityMatrix::build_with_threads(&inst, 4).n_pairs() > 0);
}

#[test]
fn single_worker_many_tasks() {
    // The shard axis is the worker range: one worker means one shard
    // does all the work, and the merge must still be exact.
    let tasks = (0..300)
        .map(|t| task(t, (t % 20) as f64, (t / 20) as f64, 24))
        .collect();
    let inst = Instance::new(TimeInstant::at(0, 0), vec![worker(0, 5.0, 5.0, 8.0)], tasks);
    assert_identical_at_all_budgets(&inst, "one worker");
}

#[test]
fn tasks_far_exceed_threads() {
    // 3 workers × 500 tasks: well past the grid and shard thresholds
    // on the task side while the worker side barely covers the budget.
    let tasks = (0..500)
        .map(|t| {
            task(
                t,
                (t % 25) as f64 * 0.8,
                (t / 25) as f64 * 0.8,
                1 + (t % 9) as i64,
            )
        })
        .collect();
    let inst = Instance::new(
        TimeInstant::at(0, 0),
        vec![
            worker(0, 2.0, 2.0, 6.0),
            worker(1, 10.0, 10.0, 9.0),
            worker(2, 18.0, 3.0, 4.0),
        ],
        tasks,
    );
    assert_identical_at_all_budgets(&inst, "tasks >> threads");
}

#[test]
fn worker_eligible_for_zero_tasks() {
    // Worker 1 sits far outside every task's reach: its CSR row must
    // be empty in every sharded layout and offsets must stay aligned.
    let tasks = (0..80)
        .map(|t| task(t, (t % 10) as f64, (t / 10) as f64, 24))
        .collect();
    let workers = vec![
        worker(0, 4.0, 4.0, 10.0),
        worker(1, 500.0, 500.0, 1.0), // stranded
        worker(2, 6.0, 2.0, 10.0),
    ];
    let inst = Instance::new(TimeInstant::at(0, 0), workers, tasks);
    assert_identical_at_all_budgets(&inst, "zero-eligibility worker");
    let m = EligibilityMatrix::build_with_threads(&inst, 4);
    assert!(
        m.of_worker(1).is_empty(),
        "stranded worker has an empty row"
    );
    assert!(!m.of_worker(0).is_empty());
    assert!(!m.of_worker(2).is_empty());
}

#[test]
fn grid_path_instances_match_at_any_budget() {
    // Large enough (|W|·|S| ≥ 64·64) to exercise the grid path and the
    // sharded path together, with mixed radii and deadlines.
    let mut rng = SmallRng::seed_from_u64(0xE11);
    let workers: Vec<Worker> = (0..120)
        .map(|w| {
            worker(
                w,
                rng.random_range(0.0..50.0),
                rng.random_range(0.0..50.0),
                rng.random_range(0.5..9.0),
            )
        })
        .collect();
    let tasks: Vec<Task> = (0..110)
        .map(|t| {
            task(
                t,
                rng.random_range(0.0..50.0),
                rng.random_range(0.0..50.0),
                rng.random_range(1..12),
            )
        })
        .collect();
    let inst = Instance::new(TimeInstant::at(0, 0), workers, tasks);
    assert_identical_at_all_budgets(&inst, "grid path");
    assert!(
        EligibilityMatrix::build(&inst).n_pairs() > 0,
        "non-trivial fixture"
    );
}

#[test]
fn randomized_shapes_property() {
    // A sweep of instance shapes around the shard/grid thresholds:
    // every (shape, budget) pair must reproduce the sequential matrix.
    let mut rng = SmallRng::seed_from_u64(97);
    for (n_workers, n_tasks) in [
        (1usize, 1usize),
        (2, 47),
        (47, 2),
        (48, 48), // exactly the shard threshold
        (49, 49),
        (64, 64), // exactly the grid threshold
        (130, 70),
        (70, 130),
    ] {
        let workers: Vec<Worker> = (0..n_workers as u32)
            .map(|w| {
                worker(
                    w,
                    rng.random_range(0.0..30.0),
                    rng.random_range(0.0..30.0),
                    rng.random_range(0.25..7.0),
                )
            })
            .collect();
        let tasks: Vec<Task> = (0..n_tasks as u32)
            .map(|t| {
                task(
                    t,
                    rng.random_range(0.0..30.0),
                    rng.random_range(0.0..30.0),
                    rng.random_range(1..10),
                )
            })
            .collect();
        let inst = Instance::new(TimeInstant::at(0, 0), workers, tasks);
        assert_identical_at_all_budgets(&inst, &format!("{n_workers}x{n_tasks}"));
    }
}

/// A worker who can never arrive — speed 0, or so slow that the travel
/// time saturates at `i64::MAX` seconds — is eligible for nothing.
/// `now + travel` used to overflow there: a panic in debug builds, and
/// a wrap into the past (an eligible pair) in release. Normal speeds
/// keep their answers: 3 km at 1 km/h misses a 1-hour deadline, at
/// 30 km/h it makes it.
#[test]
fn a_worker_who_never_arrives_is_eligible_for_nothing() {
    let now = TimeInstant::at(0, 6);
    let later = now + Duration::minutes(10);
    let task_at = |id: u32, at: TimeInstant| {
        Task::new(
            TaskId::new(id),
            Location::new(3.0, 0.0),
            at,
            Duration::hours(1),
            CategoryId::new(0),
        )
    };
    for (speed, want) in [
        (0.0, [0, 0]),
        (1e-300, [0, 0]),
        (1.0, [0, 0]),
        (30.0, [1, 2]),
    ] {
        let worker = worker(0, 0.0, 0.0, 5.0).with_speed(speed);
        let first = Instance::new(now, vec![worker.clone()], vec![task_at(0, now)]);
        let second = Instance::new(
            later,
            vec![worker],
            vec![task_at(0, now), task_at(1, later)],
        );
        for (round, inst) in [first, second].iter().enumerate() {
            let label = format!("speed {speed} round {round}");
            assert_identical_at_all_budgets(inst, &label);
            assert_eq!(
                EligibilityMatrix::build(inst).n_pairs(),
                want[round],
                "{label}"
            );
        }
    }
}
