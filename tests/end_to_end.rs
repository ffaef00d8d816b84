//! End-to-end integration: dataset generation → DITA training →
//! assignment, validating the hard invariants of the ITA problem
//! statement (paper Section II) on both dataset profiles.

use dita::core::{AlgorithmKind, DitaBuilder, DitaConfig, DitaPipeline};
use dita::datagen::{DatasetProfile, InstanceOptions, SyntheticDataset};
use dita::influence::RpoParams;
use dita::types::Duration;

fn light_config(seed: u64) -> DitaConfig {
    DitaConfig {
        n_topics: 8,
        lda_sweeps: 15,
        infer_sweeps: 8,
        rpo: RpoParams {
            max_sets: 10_000,
            ..Default::default()
        },
        seed,
        ..Default::default()
    }
}

fn train(profile: &DatasetProfile, seed: u64) -> (SyntheticDataset, DitaPipeline) {
    let data = SyntheticDataset::generate(profile, seed);
    let pipeline = DitaBuilder::new()
        .config(light_config(seed))
        .build(&data.social, &data.histories)
        .expect("training succeeds");
    (data, pipeline)
}

#[test]
fn full_pipeline_on_both_profiles() {
    for profile in [
        DatasetProfile::brightkite_small(),
        DatasetProfile::foursquare_small(),
    ] {
        let (data, pipeline) = train(&profile, 11);
        let day = data.instance_for_day(0, 80, 60, InstanceOptions::default());
        for kind in AlgorithmKind::COMPARISON {
            let (a, _) = pipeline.assign(&day.instance, Some(&day.task_venues), kind);
            assert!(!a.is_empty(), "{kind} on {} assigned nothing", profile.name);
            assert!(a.len() <= day.instance.assignment_upper_bound());
        }
    }
}

#[test]
fn assignments_respect_spatiotemporal_constraints() {
    let (data, pipeline) = train(&DatasetProfile::brightkite_small(), 23);
    let opts = InstanceOptions {
        valid_hours: 2.0,
        radius_km: 12.0,
        now_hour: 10,
        ..Default::default()
    };
    let day = data.instance_for_day(1, 120, 90, opts);
    for kind in AlgorithmKind::COMPARISON {
        let (a, _) = pipeline.assign(&day.instance, Some(&day.task_venues), kind);
        for pair in a.pairs() {
            let worker = day.instance.worker(pair.worker).expect("worker exists");
            let task = day.instance.task(pair.task).expect("task exists");
            let d = worker.location.distance_km(&task.location);
            assert!(
                d <= worker.radius_km + 1e-9,
                "{kind}: pair outside reachable radius ({d} km)"
            );
            let travel = Duration::seconds(worker.travel_seconds(&task.location).ceil() as i64);
            assert!(
                day.instance.now + travel <= task.deadline(),
                "{kind}: worker arrives after the deadline"
            );
            assert!((d - pair.distance_km).abs() < 1e-9, "distance metadata");
        }
    }
}

#[test]
fn each_worker_and_task_assigned_at_most_once() {
    let (data, pipeline) = train(&DatasetProfile::foursquare_small(), 31);
    let day = data.instance_for_day(2, 100, 70, InstanceOptions::default());
    for kind in AlgorithmKind::COMPARISON {
        let (a, _) = pipeline.assign(&day.instance, Some(&day.task_venues), kind);
        let mut workers: Vec<_> = a.pairs().iter().map(|p| p.worker).collect();
        let mut tasks: Vec<_> = a.pairs().iter().map(|p| p.task).collect();
        let n = a.len();
        workers.sort();
        workers.dedup();
        tasks.sort();
        tasks.dedup();
        assert_eq!(workers.len(), n, "{kind}: a worker appears twice");
        assert_eq!(tasks.len(), n, "{kind}: a task appears twice");
    }
}

#[test]
fn pipeline_is_deterministic_end_to_end() {
    let (data_a, pipe_a) = train(&DatasetProfile::brightkite_small(), 47);
    let (data_b, pipe_b) = train(&DatasetProfile::brightkite_small(), 47);
    let day_a = data_a.instance_for_day(0, 60, 50, InstanceOptions::default());
    let day_b = data_b.instance_for_day(0, 60, 50, InstanceOptions::default());
    assert_eq!(day_a.instance, day_b.instance);
    let (a, _) = pipe_a.assign(&day_a.instance, Some(&day_a.task_venues), AlgorithmKind::Ia);
    let (b, _) = pipe_b.assign(&day_b.instance, Some(&day_b.task_venues), AlgorithmKind::Ia);
    assert_eq!(a.pairs().len(), b.pairs().len());
    for (pa, pb) in a.pairs().iter().zip(b.pairs().iter()) {
        assert_eq!(pa.task, pb.task);
        assert_eq!(pa.worker, pb.worker);
        assert!((pa.influence - pb.influence).abs() < 1e-12);
    }
}

#[test]
fn influence_values_are_sane() {
    let (data, pipeline) = train(&DatasetProfile::brightkite_small(), 53);
    let day = data.instance_for_day(3, 80, 60, InstanceOptions::default());
    let scorer = pipeline.scorer();
    let mut nonzero = 0;
    for task in &day.instance.tasks {
        for worker in &day.instance.workers {
            let v = dita::assign::InfluenceOracle::influence(&scorer, worker.id, task);
            assert!(v.is_finite() && v >= 0.0);
            if v > 0.0 {
                nonzero += 1;
            }
        }
    }
    assert!(nonzero > 0, "the influence model must produce signal");
}

#[test]
fn flow_cardinality_matches_hopcroft_karp_oracle() {
    // Independent check of the primary objective: |A| from the MCMF-based
    // algorithms equals the maximum bipartite matching of the
    // eligibility graph.
    use dita::assign::EligibilityMatrix;
    use dita::graph::HopcroftKarp;

    let (data, pipeline) = train(&DatasetProfile::foursquare_small(), 59);
    let day = data.instance_for_day(1, 90, 70, InstanceOptions::default());
    let matrix = EligibilityMatrix::build(&day.instance);
    let mut hk = HopcroftKarp::new(day.instance.n_workers(), day.instance.n_tasks());
    for p in matrix.pairs() {
        hk.add_edge(p.worker_idx as usize, p.task_idx as usize);
    }
    let (max_matching, _) = hk.solve();

    for kind in [
        AlgorithmKind::Mta,
        AlgorithmKind::Ia,
        AlgorithmKind::Eia,
        AlgorithmKind::Dia,
    ] {
        let (a, _) = pipeline.assign(&day.instance, Some(&day.task_venues), kind);
        assert_eq!(
            a.len(),
            max_matching,
            "{kind} must reach maximum cardinality"
        );
    }
}
