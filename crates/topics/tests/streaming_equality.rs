//! Streaming LDA == batch LDA, topic for topic.
//!
//! [`StreamingLda`] and [`LdaTrainer`] are independent implementations
//! of the same collapsed Gibbs sweeps (block-addressed streaming state
//! vs corpus-shaped nested vectors). This suite — run in the release-CI
//! determinism job — drives both from identical RNG states over several
//! corpus shapes and requires the trained models and `θ`s to be equal
//! to the last bit: every `φ` row, every `θ` row, every scalar.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use sc_topics::{Corpus, LdaModel, LdaParams, LdaTrainer, StreamingLda};

/// A trained model and its documents' `θ`.
type Trained = (LdaModel, Vec<Vec<f64>>);

fn train_both(docs: &[Vec<u32>], params: LdaParams, seed: u64) -> (Trained, Trained) {
    let corpus = Corpus::from_documents(docs.to_vec());
    let mut batch_rng = SmallRng::seed_from_u64(seed);
    let batch = LdaTrainer::new(params).train(&corpus, &mut batch_rng);

    let mut rng = SmallRng::seed_from_u64(seed);
    let mut s = StreamingLda::new(params, corpus.n_words());
    for doc in docs {
        s.feed_doc(doc.iter().copied(), &mut rng);
    }
    (s.finish(&mut rng), batch)
}

#[test]
fn random_corpora_match_bit_for_bit() {
    let mut gen = SmallRng::seed_from_u64(0xD0C);
    for case in 0..6 {
        let n_docs = 5 + case * 7;
        let vocab = 3 + case * 4;
        let docs: Vec<Vec<u32>> = (0..n_docs)
            .map(|_| {
                let len = gen.random_range(0..25);
                (0..len)
                    .map(|_| gen.random_range(0..vocab as u32))
                    .collect()
            })
            .collect();
        let params = LdaParams::with_topics(2 + case % 3).sweeps(15);
        let (streamed, batch) = train_both(&docs, params, 100 + case as u64);
        assert_eq!(streamed, batch, "case {case} diverged");
        // Topic-for-topic through the public accessors too.
        let ((streamed, _), (batch, theta)) = (streamed, batch);
        for t in 0..batch.n_topics() {
            for w in 0..batch.n_words() {
                assert_eq!(streamed.topic_word(t, w), batch.topic_word(t, w));
            }
        }
        assert_eq!(theta.len(), n_docs);
    }
}

#[test]
fn paper_shaped_params_match() {
    // |Top| = 50 with default priors, the paper's configuration, over a
    // worker-history-shaped corpus (many short category documents).
    let docs: Vec<Vec<u32>> = (0..80u32)
        .map(|w| (0..(w % 7)).map(|j| (w * 13 + j * 5) % 20).collect())
        .collect();
    let params = LdaParams::with_topics(50).sweeps(8);
    let (streamed, batch) = train_both(&docs, params, 77);
    assert_eq!(streamed, batch);
}

#[test]
fn streaming_is_deterministic_across_runs() {
    let docs: Vec<Vec<u32>> = (0..30u32).map(|w| vec![w % 6, (w + 1) % 6]).collect();
    let params = LdaParams::with_topics(4).sweeps(20);
    let run = || {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut s = StreamingLda::new(params, 6);
        for doc in &docs {
            s.feed_doc(doc.iter().copied(), &mut rng);
        }
        s.finish(&mut rng)
    };
    assert_eq!(run(), run());
}

#[test]
fn inference_agrees_between_the_two_models() {
    // Downstream consumers fold unseen task documents into the trained
    // model; equal models must infer equal distributions.
    let docs: Vec<Vec<u32>> = (0..20)
        .map(|i| {
            let base = if i % 2 == 0 { 0u32 } else { 4u32 };
            (0..16).map(|j| base + (j % 4) as u32).collect()
        })
        .collect();
    let params = LdaParams::with_topics(2).priors(0.5, 0.01).sweeps(30);
    let ((streamed, _), (batch, _)) = train_both(&docs, params, 11);
    let mut ra = SmallRng::seed_from_u64(5);
    let mut rb = SmallRng::seed_from_u64(5);
    let task_doc = [0u32, 1, 2, 3, 0, 1];
    assert_eq!(
        streamed.infer(&task_doc, 25, &mut ra),
        batch.infer(&task_doc, 25, &mut rb)
    );
}
