//! Explainability: decompose the worker-task influence of an assignment
//! into its three factors (paper Section III-D) — why did IA pick this
//! worker for this task?
//!
//! ```text
//! cargo run --release --example explain_assignment
//! ```

use dita::core::{AlgorithmKind, DitaBuilder, DitaConfig};
use dita::datagen::{DatasetProfile, SyntheticDataset};
use dita::influence::RpoParams;

fn main() {
    let data = SyntheticDataset::generate(&DatasetProfile::foursquare_small(), 9);
    let pipeline = DitaBuilder::new()
        .config(DitaConfig {
            n_topics: 10,
            lda_sweeps: 25,
            infer_sweeps: 10,
            rpo: RpoParams {
                max_sets: 20_000,
                ..Default::default()
            },
            seed: 4,
            ..Default::default()
        })
        .build(&data.social, &data.histories)
        .expect("training");

    let day = data.instance_for_day(1, 40, 60, Default::default());
    let (assignment, _perf) =
        pipeline.assign(&day.instance, Some(&day.task_venues), AlgorithmKind::Ia);

    // Explain the three most and least influential choices.
    let mut pairs: Vec<_> = assignment.pairs().to_vec();
    pairs.sort_by(|a, b| b.influence.total_cmp(&a.influence));
    let scorer = pipeline.scorer();

    println!(
        "why IA picked these workers (top 3 / bottom 3 of {} pairs):\n",
        pairs.len()
    );
    println!(
        "{:<14} {:>9} {:>10} {:>10} {:>10} {:>9}",
        "pair", "affinity", "wtd.audnc", "raw.audnc", "own P_wil", "if(w,s)"
    );
    let explain_row = |p: &dita::types::AssignmentPair| {
        let task = day.instance.task(p.task).expect("task in instance");
        let b = scorer.explain(p.worker, task);
        println!(
            "{:<14} {:>9.4} {:>10.4} {:>10.4} {:>10.4} {:>9.4}",
            format!("({}, {})", p.task, p.worker),
            b.affinity,
            b.weighted_propagation,
            b.total_propagation,
            b.own_willingness,
            b.score
        );
    };
    for p in pairs.iter().take(3) {
        explain_row(p);
    }
    println!("{}", "-".repeat(66));
    for p in pairs.iter().rev().take(3).rev() {
        explain_row(p);
    }

    println!(
        "\nreading: if(w,s) = affinity × weighted audience; a large raw audience \
         \nonly helps when the informed workers are *willing* to travel to s."
    );
}
