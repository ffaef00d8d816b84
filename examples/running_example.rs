//! The paper's running example (Figure 1): two new restaurant-promotion
//! tasks, five workers with limited reachable ranges, and the gap between
//! nearest-worker greedy and influence-aware assignment.
//!
//! The worker-task influence table of Figure 1 is injected directly and
//! the reachable circles are sized as in the figure (s5 is reachable only
//! by w5; s4 by w3, w4 and w5), so the printed totals reproduce the
//! paper's numbers exactly: greedy = 1.67 + 0.85 = 2.52, influence-aware
//! = 4.25 + 0.85 = 5.10.
//!
//! ```text
//! cargo run --example running_example
//! ```

use dita::assign::{
    run_scored, score_pairs, AlgorithmKind, AssignInput, EligibilityMatrix, InfluenceFn,
};
use dita::types::{
    CategoryId, Duration, Instance, Location, Task, TaskId, TimeInstant, Worker, WorkerId,
};

fn main() {
    // Workers w1..w5 at time t2 (Figure 1's 4×4 grid, coordinates in km).
    // Radii encode the figure's reachability circles.
    let workers = vec![
        Worker::new(WorkerId::new(1), Location::new(0.8, 3.2), 0.5),
        Worker::new(WorkerId::new(2), Location::new(1.2, 1.4), 0.8),
        Worker::new(WorkerId::new(3), Location::new(2.2, 2.9), 0.5),
        Worker::new(WorkerId::new(4), Location::new(3.4, 1.2), 2.0),
        Worker::new(WorkerId::new(5), Location::new(3.4, 3.6), 1.1),
    ];
    // Tasks s4 and s5 published by new restaurants at t2.
    let t2 = TimeInstant::at(0, 12);
    let tasks = vec![
        Task::new(
            TaskId::new(4),
            Location::new(2.6, 3.0), // reachable by w3 (0.41 km), w4, w5
            t2,
            Duration::hours(5),
            CategoryId::new(0),
        ),
        Task::new(
            TaskId::new(5),
            Location::new(3.8, 3.8), // reachable only by w5 (0.45 km)
            t2,
            Duration::hours(5),
            CategoryId::new(1),
        ),
    ];
    let instance = Instance::new(t2, workers, tasks);

    // Figure 1's worker-task influence table.
    let influence = InfluenceFn(|w: WorkerId, s: &Task| match (s.id.raw(), w.raw()) {
        (4, 1) => 1.42,
        (4, 2) => 3.56,
        (4, 3) => 1.67,
        (4, 4) => 4.25,
        (4, 5) => 5.23,
        (5, 1) => 2.28,
        (5, 2) => 6.17,
        (5, 3) => 0.32,
        (5, 4) => 0.18,
        (5, 5) => 0.85,
        _ => 0.0,
    });

    println!("worker-task influence at t2 (Figure 1):");
    println!("      w1    w2    w3    w4    w5");
    println!("s4  1.42  3.56  1.67  4.25  5.23");
    println!("s5  2.28  6.17  0.32  0.18  0.85\n");

    // Eligibility (who reaches which task in time), one scoring scan,
    // then one solve per algorithm on the same scores.
    let matrix = EligibilityMatrix::build(&instance);
    let input = AssignInput::new(&instance, &influence);
    let scores = score_pairs(&input, &matrix);
    let (greedy, _) = run_scored(AlgorithmKind::GreedyNearest, &input, &matrix, &scores);
    let (ia, _) = run_scored(AlgorithmKind::Ia, &input, &matrix, &scores);

    let describe = |name: &str, a: &dita::types::Assignment| {
        println!("{name}:");
        for p in a.pairs() {
            println!("  ({}, {})  if = {:.2}", p.task, p.worker, p.influence);
        }
        println!(
            "  total worker-task influence = {:.2}\n",
            a.total_influence()
        );
    };

    describe("greedy task assignment (nearest worker)", &greedy);
    describe("influence-aware task assignment (IA)", &ia);

    // The paper's exact outcome.
    assert_eq!(greedy.worker_of(TaskId::new(4)), Some(WorkerId::new(3)));
    assert_eq!(greedy.worker_of(TaskId::new(5)), Some(WorkerId::new(5)));
    assert!((greedy.total_influence() - 2.52).abs() < 1e-9);
    assert_eq!(ia.worker_of(TaskId::new(4)), Some(WorkerId::new(4)));
    assert_eq!(ia.worker_of(TaskId::new(5)), Some(WorkerId::new(5)));
    assert!((ia.total_influence() - 5.10).abs() < 1e-9);

    println!(
        "influence-aware assignment gains {:.2} influence over greedy ({:.2} vs {:.2}) — \
         exactly Figure 1's 2.52 vs 5.10",
        ia.total_influence() - greedy.total_influence(),
        ia.total_influence(),
        greedy.total_influence()
    );
}
