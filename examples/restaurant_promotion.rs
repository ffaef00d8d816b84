//! The introduction's motivating scenario: a new restaurant publishes a
//! leaflet-distribution task and wants the assigned worker to make the
//! promotion *spread* — a nearby worker with no social reach is a wasted
//! assignment.
//!
//! The example trains the full DITA model on a synthetic city, publishes
//! promotion tasks, assigns them with the nearest-worker greedy and with
//! IA, and then *verifies the outcome* by forward-simulating Independent
//! Cascades from the assigned workers: IA's workers should inform more
//! people.
//!
//! ```text
//! cargo run --release --example restaurant_promotion
//! ```

use dita::core::{AlgorithmKind, DitaBuilder, DitaConfig};
use dita::datagen::{DatasetProfile, InstanceOptions, SyntheticDataset};
use dita::influence::{IndependentCascade, RpoParams};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let profile = DatasetProfile::foursquare_small();
    println!(
        "city '{}': {} residents, {} venues",
        profile.name, profile.n_workers, profile.n_venues
    );
    let data = SyntheticDataset::generate(&profile, 2024);

    let pipeline = DitaBuilder::new()
        .config(DitaConfig {
            n_topics: 10,
            lda_sweeps: 25,
            infer_sweeps: 10,
            rpo: RpoParams {
                max_sets: 30_000,
                ..Default::default()
            },
            seed: 99,
            ..Default::default()
        })
        .build(&data.social, &data.histories)
        .expect("training");

    // Ten restaurants publish promotion tasks on day 2; sixty workers are
    // online.
    let day = data.instance_for_day(2, 10, 60, InstanceOptions::default());
    println!(
        "\n{} promotion tasks published, {} workers online",
        day.instance.n_tasks(),
        day.instance.n_workers()
    );

    let venues = Some(&day.task_venues[..]);
    let (greedy, _) = pipeline.assign(&day.instance, venues, AlgorithmKind::GreedyNearest);
    let (ia, _) = pipeline.assign(&day.instance, venues, AlgorithmKind::Ia);

    println!("\n              assigned   avg influence   avg propagation");
    for (name, a) in [("greedy", &greedy), ("IA", &ia)] {
        println!(
            "{name:>8}      {:>5}        {:>8.4}          {:>8.4}",
            a.len(),
            a.average_influence(),
            pipeline.average_propagation(a)
        );
    }

    // Ground-truth check: forward-simulate cascades from each assignment's
    // workers and count how many residents hear about the restaurants.
    let ic = IndependentCascade::new(&data.social);
    let mut rng = SmallRng::seed_from_u64(5);
    let trials = 300;
    let spread = |a: &dita::types::Assignment, rng: &mut SmallRng| -> f64 {
        let mut total = 0.0;
        for p in a.pairs() {
            total += ic.estimate_spread(p.worker.raw(), trials, rng) - 1.0; // exclude self
        }
        total
    };
    let greedy_reach = spread(&greedy, &mut rng);
    let ia_reach = spread(&ia, &mut rng);

    println!(
        "\nforward-simulated promotion reach ({} cascades/worker):",
        trials
    );
    println!("  greedy workers inform {greedy_reach:.1} residents in expectation");
    println!("  IA workers inform     {ia_reach:.1} residents in expectation");
    if ia_reach > greedy_reach {
        println!(
            "  -> influence-aware assignment reaches {:.0}% more people",
            (ia_reach / greedy_reach.max(1e-9) - 1.0) * 100.0
        );
    } else {
        println!("  -> (this seed favoured greedy; rerun with another seed)");
    }
}
