//! Quickstart: generate a synthetic world, train the DITA pipeline, and
//! run one influence-aware assignment round.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use dita::core::{AlgorithmKind, DitaBuilder, DitaConfig};
use dita::datagen::{DatasetProfile, SyntheticDataset};
use dita::influence::RpoParams;

fn main() {
    // 1. A Brightkite-flavoured world small enough for seconds-level runs.
    let profile = DatasetProfile::brightkite_small();
    println!(
        "generating dataset '{}': {} workers, {} venues, ~{} check-ins/worker",
        profile.name, profile.n_workers, profile.n_venues, profile.checkins_per_worker
    );
    let data = SyntheticDataset::generate(&profile, 42);
    println!(
        "  social edges: {}, total check-ins: {}",
        data.social_edges.len(),
        data.histories.total_checkins()
    );

    // 2. Train the influence model (LDA + willingness + entropy + RPO).
    let config = DitaConfig {
        n_topics: 12,
        lda_sweeps: 25,
        infer_sweeps: 10,
        rpo: RpoParams {
            max_sets: 30_000,
            ..Default::default()
        },
        seed: 7,
        ..Default::default()
    };
    println!(
        "training DITA ({} topics, ε = {})…",
        config.n_topics, config.rpo.epsilon
    );
    let pipeline = DitaBuilder::new()
        .config(config)
        .build(&data.social, &data.histories)
        .expect("training succeeds on a valid profile");
    let stats = pipeline.model().rpo_stats();
    println!(
        "  RPO pool: {} RRR sets after {} rounds (σ lower bound {:.2})",
        stats.n_sets, stats.rounds, stats.sigma_lower_bound
    );

    // 3. One assignment instance: day 0, Table-II-style parameters.
    let day = data.instance_for_day(0, 150, 120, Default::default());
    println!(
        "instance: |S| = {}, |W| = {} at {}",
        day.instance.n_tasks(),
        day.instance.n_workers(),
        day.instance.now
    );

    // 4. Assign with the influence-aware algorithm and inspect.
    let (assignment, _perf) =
        pipeline.assign(&day.instance, Some(&day.task_venues), AlgorithmKind::Ia);
    println!("\nIA assignment:");
    println!("  assigned tasks      : {}", assignment.len());
    println!(
        "  average influence   : {:.4}",
        assignment.average_influence()
    );
    println!(
        "  average propagation : {:.4}",
        pipeline.average_propagation(&assignment)
    );
    println!(
        "  average travel (km) : {:.3}",
        assignment.average_travel_km()
    );

    // 5. The top-3 most influential pairs of the round.
    let mut pairs: Vec<_> = assignment.pairs().to_vec();
    pairs.sort_by(|a, b| b.influence.total_cmp(&a.influence));
    println!("\ntop influence pairs:");
    for p in pairs.iter().take(3) {
        println!(
            "  task {} -> worker {} (if = {:.4}, d = {:.2} km)",
            p.task, p.worker, p.influence, p.distance_km
        );
    }
}
