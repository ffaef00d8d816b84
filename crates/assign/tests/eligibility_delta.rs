//! Property suite: the delta-advanced eligibility matrix equals the
//! from-scratch oracle (`EligibilityMatrix::build_with_threads`) across
//! randomized, seeded arrival/departure/move/post/expiry sequences —
//! at 1 thread and at a multi-thread budget, on the same stream.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use sc_assign::delta::EligibilityState;
use sc_assign::EligibilityMatrix;
use sc_types::{
    CategoryId, Duration, Instance, Location, Task, TaskId, TimeInstant, Worker, WorkerId,
};

/// A mutable world the rounds evolve; each round emits an `Instance`
/// snapshot of it.
struct World {
    rng: SmallRng,
    now: TimeInstant,
    workers: Vec<Worker>,
    tasks: Vec<Task>,
    next_worker: u32,
    next_task: u32,
}

impl World {
    fn new(seed: u64, n_workers: usize, n_tasks: usize) -> Self {
        let mut w = World {
            rng: SmallRng::seed_from_u64(seed),
            now: TimeInstant::at(0, 6),
            workers: Vec::new(),
            tasks: Vec::new(),
            next_worker: 0,
            next_task: 0,
        };
        for _ in 0..n_workers {
            w.spawn_worker();
        }
        for _ in 0..n_tasks {
            w.post_task();
        }
        w
    }

    fn spawn_worker(&mut self) {
        let id = self.next_worker;
        self.next_worker += 1;
        let w = Worker::new(
            WorkerId::new(id),
            Location::new(
                self.rng.random_range(0.0..30.0),
                self.rng.random_range(0.0..30.0),
            ),
            self.rng.random_range(2.0..9.0),
        );
        self.workers.push(w);
    }

    fn post_task(&mut self) {
        let id = self.next_task;
        self.next_task += 1;
        self.tasks.push(Task::new(
            TaskId::new(id),
            Location::new(
                self.rng.random_range(0.0..30.0),
                self.rng.random_range(0.0..30.0),
            ),
            self.now,
            Duration::hours(self.rng.random_range(1..8)),
            CategoryId::new(id % 5),
        ));
    }

    /// One round of random churn: time advances, some workers depart
    /// or move, some arrive, expired tasks leave, a few get "assigned"
    /// (removed), new posts arrive.
    fn churn(&mut self) {
        self.now = self.now + Duration::minutes(self.rng.random_range(20..90));

        // Departures (random index removal keeps order of the rest).
        for _ in 0..self.rng.random_range(0..3) {
            if !self.workers.is_empty() {
                let i = self.rng.random_range(0..self.workers.len());
                self.workers.remove(i);
            }
        }
        // Position updates.
        for _ in 0..self.rng.random_range(0..4) {
            if !self.workers.is_empty() {
                let i = self.rng.random_range(0..self.workers.len());
                self.workers[i].location = Location::new(
                    self.rng.random_range(0.0..30.0),
                    self.rng.random_range(0.0..30.0),
                );
            }
        }
        // Arrivals.
        for _ in 0..self.rng.random_range(0..3) {
            self.spawn_worker();
        }
        // Expiry + random assignment ("task leaves").
        let now = self.now;
        self.tasks.retain(|t| !t.is_expired_at(now));
        for _ in 0..self.rng.random_range(0..3) {
            if !self.tasks.is_empty() {
                let i = self.rng.random_range(0..self.tasks.len());
                self.tasks.remove(i);
            }
        }
        // Fresh posts.
        for _ in 0..self.rng.random_range(0..4) {
            self.post_task();
        }
    }

    fn instance(&self) -> Instance {
        Instance::new(self.now, self.workers.clone(), self.tasks.clone())
    }
}

/// Drives `rounds` rounds of churn, asserting after every round that
/// the delta-advanced matrix equals the from-scratch build, at thread
/// budgets 1 and 4 on the *same* state stream.
fn drive(seed: u64, n_workers: usize, n_tasks: usize, rounds: usize) {
    let mut world = World::new(seed, n_workers, n_tasks);
    let mut state1 = EligibilityState::new();
    let mut state4 = EligibilityState::new();
    for round in 0..rounds {
        let inst = world.instance();
        let oracle = EligibilityMatrix::build_with_threads(&inst, 1);
        assert_eq!(
            oracle,
            EligibilityMatrix::build_with_threads(&inst, 4),
            "seed {seed} round {round}: from-scratch build not thread-invariant"
        );
        let (m1, s1) = state1.advance(&inst, 1);
        let (m4, s4) = state4.advance(&inst, 4);
        assert_eq!(m1, oracle, "seed {seed} round {round}: delta@1 != oracle");
        assert_eq!(m4, oracle, "seed {seed} round {round}: delta@4 != oracle");
        assert_eq!(
            s1.full_rebuild, s4.full_rebuild,
            "seed {seed} round {round}: rebuild decision depends on threads"
        );
        assert_eq!(
            (s1.rows_carried, s1.rows_rebuilt, s1.pairs_carried),
            (s4.rows_carried, s4.rows_rebuilt, s4.pairs_carried),
            "seed {seed} round {round}: delta stats depend on threads"
        );
        assert_eq!(s1.full_rebuild, round == 0, "only round 0 rebuilds fully");
        world.churn();
    }
}

#[test]
fn randomized_rounds_match_oracle_small() {
    for seed in 0..8 {
        drive(seed, 12, 10, 12);
    }
}

#[test]
fn randomized_rounds_match_oracle_grid_scale() {
    // Big enough that the grid path and the sharded apply both engage.
    for seed in 100..103 {
        drive(seed, 90, 80, 6);
    }
}

#[test]
fn empty_delta_round_is_pure_carry() {
    let world = World::new(7, 20, 15);
    let inst = world.instance();
    let mut state = EligibilityState::new();
    state.advance(&inst, 2);
    let (m, stats) = state.advance(&inst, 2);
    assert_eq!(m, EligibilityMatrix::build(&inst));
    assert!(!stats.full_rebuild);
    assert_eq!(stats.rows_rebuilt, 0);
    assert_eq!(stats.tasks_added, 0);
    assert_eq!(stats.tasks_removed, 0);
    assert_eq!(stats.pairs_expired, 0);
    assert_eq!(stats.pairs_carried, m.n_pairs());
}

#[test]
fn everyone_left_then_world_restarts() {
    let mut world = World::new(9, 15, 12);
    let mut state = EligibilityState::new();
    state.advance(&world.instance(), 2);

    // Everyone leaves: empty instance still matches the oracle.
    let empty = Instance::new(world.now + Duration::hours(1), vec![], vec![]);
    let (m, stats) = state.advance(&empty, 2);
    assert_eq!(m, EligibilityMatrix::build(&empty));
    assert_eq!(m.n_pairs(), 0);
    assert!(!stats.full_rebuild, "empty is a valid delta, not a rebuild");

    // A repopulated world advances from the empty state correctly.
    world.now = world.now + Duration::hours(2);
    world.churn();
    let inst = world.instance();
    let (m2, _) = state.advance(&inst, 2);
    assert_eq!(m2, EligibilityMatrix::build(&inst));
}

#[test]
fn reset_forces_full_rebuild() {
    let world = World::new(3, 10, 8);
    let inst = world.instance();
    let mut state = EligibilityState::new();
    state.advance(&inst, 1);
    state.reset();
    let (_, stats) = state.advance(&inst, 1);
    assert!(stats.full_rebuild);
}

/// A worker who can never arrive — speed 0, or so slow that the travel
/// time saturates at `i64::MAX` seconds — is eligible for nothing, on
/// the build path and on the delta path, where a carried row meets a
/// newly posted task. `now + travel` used to overflow there: a panic
/// in debug builds, and a wrap into the past (an eligible pair) in
/// release. Normal speeds keep their answers: 3 km at 1 km/h misses a
/// 1-hour deadline, at 30 km/h it makes it.
#[test]
fn a_worker_who_never_arrives_is_eligible_for_nothing() {
    let now = TimeInstant::at(0, 6);
    let later = now + Duration::minutes(10);
    let task = |id: u32, at: TimeInstant| {
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
        let worker = Worker::new(WorkerId::new(0), Location::new(0.0, 0.0), 5.0).with_speed(speed);
        let first = Instance::new(now, vec![worker.clone()], vec![task(0, now)]);
        let second = Instance::new(later, vec![worker], vec![task(0, now), task(1, later)]);
        let mut state = EligibilityState::new();
        for (round, inst) in [first, second].iter().enumerate() {
            let built = EligibilityMatrix::build(inst);
            assert_eq!(
                built.n_pairs(),
                want[round],
                "speed {speed} round {round}: build"
            );
            let (advanced, stats) = state.advance(inst, 1);
            assert_eq!(stats.full_rebuild, round == 0);
            assert_eq!(
                advanced, built,
                "speed {speed} round {round}: delta != build"
            );
        }
    }
}
