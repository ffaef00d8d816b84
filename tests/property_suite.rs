//! Cross-crate property tests on randomly generated ITA instances: the
//! assignment algorithms must uphold the problem's invariants for *any*
//! geometry, deadline structure, and influence table.

use dita::assign::{
    run_scored, score_pairs, AlgorithmKind, AssignInput, EligibilityMatrix, InfluenceFn,
};
use dita::graph::HopcroftKarp;
use dita::types::{
    CategoryId, Duration, Instance, Location, Task, TaskId, TimeInstant, Worker, WorkerId,
};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
struct RandomInstance {
    instance: Instance,
    influence: HashMap<(u32, u32), f64>,
}

fn random_instance(max_side: usize) -> impl Strategy<Value = RandomInstance> {
    let worker = (0.0f64..20.0, 0.0f64..20.0, 0.5f64..15.0);
    let task = (0.0f64..20.0, 0.0f64..20.0, 0i64..6, 1i64..8);
    (
        prop::collection::vec(worker, 1..=max_side),
        prop::collection::vec(task, 1..=max_side),
        prop::collection::vec(0u32..1000, max_side * max_side),
    )
        .prop_map(|(workers, tasks, infl)| {
            let now = TimeInstant::at(0, 9);
            let workers: Vec<Worker> = workers
                .into_iter()
                .enumerate()
                .map(|(i, (x, y, r))| Worker::new(WorkerId::new(i as u32), Location::new(x, y), r))
                .collect();
            let tasks: Vec<Task> = tasks
                .into_iter()
                .enumerate()
                .map(|(i, (x, y, age_h, valid_h))| {
                    Task::new(
                        TaskId::new(i as u32),
                        Location::new(x, y),
                        TimeInstant::at(0, 9 - age_h),
                        Duration::hours(valid_h),
                        CategoryId::new(0),
                    )
                })
                .collect();
            let mut influence = HashMap::new();
            let n_t = tasks.len();
            for (wi, _) in workers.iter().enumerate() {
                for (ti, _) in tasks.iter().enumerate() {
                    let v = infl[(wi * n_t + ti) % infl.len()] as f64 / 100.0;
                    influence.insert((wi as u32, ti as u32), v);
                }
            }
            RandomInstance {
                instance: Instance::new(now, workers, tasks),
                influence,
            }
        })
}

/// Eligibility, scoring and the solve, in order.
fn run(kind: AlgorithmKind, input: &AssignInput<'_>) -> dita::types::Assignment {
    let matrix = EligibilityMatrix::build(input.instance);
    run_scored(kind, input, &matrix, &score_pairs(input, &matrix)).0
}

fn oracle(tbl: &HashMap<(u32, u32), f64>) -> InfluenceFn<impl Fn(WorkerId, &Task) -> f64 + '_> {
    InfluenceFn(move |w: WorkerId, t: &Task| *tbl.get(&(w.raw(), t.id.raw())).unwrap_or(&0.0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn every_algorithm_upholds_ita_constraints(case in random_instance(8)) {
        let orc = oracle(&case.influence);
        for kind in [
            AlgorithmKind::Mta,
            AlgorithmKind::Ia,
            AlgorithmKind::Eia,
            AlgorithmKind::Dia,
            AlgorithmKind::Mi,
            AlgorithmKind::GreedyNearest,
        ] {
            let a = run(kind, &AssignInput::new(&case.instance, &orc));
            let mut seen_w = std::collections::HashSet::new();
            let mut seen_t = std::collections::HashSet::new();
            for p in a.pairs() {
                prop_assert!(seen_w.insert(p.worker), "{kind}: worker repeated");
                prop_assert!(seen_t.insert(p.task), "{kind}: task repeated");
                let w = case.instance.worker(p.worker).unwrap();
                let t = case.instance.task(p.task).unwrap();
                let d = w.location.distance_km(&t.location);
                prop_assert!(d <= w.radius_km + 1e-9, "{kind}: out of range");
                let travel = Duration::seconds(w.travel_seconds(&t.location).ceil() as i64);
                prop_assert!(
                    case.instance.now + travel <= t.deadline(),
                    "{kind}: misses deadline"
                );
            }
        }
    }

    #[test]
    fn flow_algorithms_reach_maximum_matching(case in random_instance(8)) {
        let matrix = EligibilityMatrix::build(&case.instance);
        let mut hk = HopcroftKarp::new(case.instance.n_workers(), case.instance.n_tasks());
        for p in matrix.pairs() {
            hk.add_edge(p.worker_idx as usize, p.task_idx as usize);
        }
        let (max_matching, _) = hk.solve();
        let orc = oracle(&case.influence);
        for kind in [AlgorithmKind::Mta, AlgorithmKind::Ia, AlgorithmKind::Eia, AlgorithmKind::Dia] {
            let a = run(kind, &AssignInput::new(&case.instance, &orc));
            prop_assert_eq!(a.len(), max_matching, "{} lost cardinality", kind);
        }
    }

    #[test]
    fn mi_achieves_half_of_optimal_total_influence(case in random_instance(5)) {
        // Greedy max-weight matching is a 1/2-approximation of the
        // maximum-weight matching (cardinality-unconstrained).
        let matrix = EligibilityMatrix::build(&case.instance);
        prop_assume!(matrix.n_pairs() <= 14); // keep brute force cheap
        let orc = oracle(&case.influence);
        let mi = run(AlgorithmKind::Mi, &AssignInput::new(&case.instance, &orc));

        // Brute-force the max-weight matching over eligible pairs.
        let pairs: Vec<(u32, u32, f64)> = matrix
            .pairs()
            .iter()
            .map(|p| {
                let w = case.instance.workers[p.worker_idx as usize].id.raw();
                let t = case.instance.tasks[p.task_idx as usize].id.raw();
                (p.worker_idx, p.task_idx, *case.influence.get(&(w, t)).unwrap_or(&0.0))
            })
            .collect();
        fn best(pairs: &[(u32, u32, f64)], i: usize, used_w: u64, used_t: u64) -> f64 {
            if i == pairs.len() {
                return 0.0;
            }
            let (w, t, v) = pairs[i];
            let skip = best(pairs, i + 1, used_w, used_t);
            if used_w & (1 << w) == 0 && used_t & (1 << t) == 0 {
                let take = v + best(pairs, i + 1, used_w | (1 << w), used_t | (1 << t));
                skip.max(take)
            } else {
                skip
            }
        }
        let optimal = best(&pairs, 0, 0, 0);
        prop_assert!(
            mi.total_influence() >= optimal / 2.0 - 1e-9,
            "MI {} below half of optimal {}",
            mi.total_influence(),
            optimal
        );
    }

    #[test]
    fn eligibility_matrix_matches_bruteforce(case in random_instance(9)) {
        let matrix = EligibilityMatrix::build(&case.instance);
        let mut expect = Vec::new();
        for (wi, w) in case.instance.workers.iter().enumerate() {
            for (ti, t) in case.instance.tasks.iter().enumerate() {
                let d = w.location.distance_km(&t.location);
                let travel = Duration::seconds(w.travel_seconds(&t.location).ceil() as i64);
                if d <= w.radius_km && case.instance.now + travel <= t.deadline() {
                    expect.push((wi as u32, ti as u32));
                }
            }
        }
        let got: Vec<(u32, u32)> = matrix
            .pairs()
            .iter()
            .map(|p| (p.worker_idx, p.task_idx))
            .collect();
        prop_assert_eq!(got, expect);
    }
}
