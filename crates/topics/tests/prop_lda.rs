//! Property tests for the LDA implementation: whatever the corpus, the
//! learned estimates must be proper probability distributions and
//! inference must be well-behaved.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sc_topics::{LdaModel, LdaParams, StreamingLda};

/// Between one and eleven documents over the vocabulary `0..40`.
fn arb_corpus() -> impl Strategy<Value = Vec<Vec<u32>>> {
    prop::collection::vec(prop::collection::vec(0u32..40, 0..30), 1..12)
}

/// Trains on `docs`, returning the model and `θ`.
fn train(docs: &[Vec<u32>], params: LdaParams, rng: &mut SmallRng) -> (LdaModel, Vec<Vec<f64>>) {
    let mut lda = StreamingLda::new(params, 40);
    for doc in docs {
        lda.feed_doc(doc.iter().copied(), rng);
    }
    lda.finish(rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn phi_and_theta_are_distributions(corpus in arb_corpus(), k in 1usize..6, seed in 0u64..1000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (model, theta) = train(&corpus, LdaParams::with_topics(k).sweeps(5), &mut rng);
        for t in 0..model.n_topics() {
            let sum: f64 = (0..model.n_words()).map(|w| model.topic_word(t, w)).sum();
            prop_assert!((sum - 1.0).abs() < 1e-9, "phi row {t} sums to {sum}");
            for w in 0..model.n_words() {
                prop_assert!(model.topic_word(t, w) > 0.0, "beta smoothing keeps phi positive");
            }
        }
        prop_assert_eq!(theta.len(), corpus.len());
        for (d, row) in theta.iter().enumerate() {
            let sum: f64 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9, "theta row {d} sums to {sum}");
        }
    }

    #[test]
    fn inference_returns_distribution_for_any_document(
        corpus in arb_corpus(),
        doc in prop::collection::vec(0u32..60, 0..20),
        k in 1usize..6,
        seed in 0u64..1000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (model, _) = train(&corpus, LdaParams::with_topics(k).sweeps(4), &mut rng);
        let theta = model.infer(&doc, 5, &mut rng);
        prop_assert_eq!(theta.len(), k);
        let sum: f64 = theta.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        prop_assert!(theta.iter().all(|&p| p > 0.0));
    }

    #[test]
    fn affinity_of_distributions_is_in_unit_interval(
        a in prop::collection::vec(0.01f64..1.0, 1..8),
    ) {
        // Normalize two random vectors; their inner product must land in
        // (0, 1] for probability vectors.
        let sa: f64 = a.iter().sum();
        let pa: Vec<f64> = a.iter().map(|x| x / sa).collect();
        let affinity = sc_topics::topic_affinity(&pa, &pa);
        prop_assert!(affinity > 0.0 && affinity <= 1.0 + 1e-12);
    }
}
