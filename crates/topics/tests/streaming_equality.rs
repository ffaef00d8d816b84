//! Streaming LDA == a plain batch sampler, topic for topic.
//!
//! [`Reference`] is the collapsed Gibbs sampler written the plainest
//! way: the corpus as nested per-document vectors, one count row per
//! document, and its own copy of the freeze. It makes the draws that
//! [`StreamingLda`]'s equivalence contract names: every token's initial
//! topic in document order, then the sweeps token by token. This suite
//! — run in the release-CI determinism job — drives both from identical
//! RNG states over several corpus shapes and requires the streamed
//! model and `θ` to equal the reference's to the last bit: every `φ`
//! value, every `θ` row, every scalar.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use sc_topics::{LdaModel, LdaParams, StreamingLda};
use serde::json::Value;
use serde::{Deserialize, Serialize};

/// A trained model and its documents' `θ`.
type Trained = (LdaModel, Vec<Vec<f64>>);

/// The reference sampler's frozen estimates.
struct Reference {
    params: LdaParams,
    /// Vocabulary size, an empty one clamped to 1.
    n_words: usize,
    /// Row-major `n_topics × n_words` topic-word distribution.
    phi: Vec<f64>,
    /// One row of `n_topics` probabilities per document.
    theta: Vec<Vec<f64>>,
}

impl Reference {
    /// Trains on `docs` over a vocabulary of `n_words` words.
    fn train(docs: &[Vec<u32>], n_words: usize, params: LdaParams, rng: &mut SmallRng) -> Self {
        let k = params.n_topics;
        let v = n_words.max(1);
        let (alpha, beta) = (params.alpha, params.beta);
        let mut doc_topic = vec![vec![0u32; k]; docs.len()]; // n_dk
        let mut topic_word = vec![0u32; k * v]; // n_kw
        let mut topic_total = vec![0u32; k]; // n_k

        // Every token's initial topic, in document order.
        let mut assignments: Vec<Vec<usize>> = Vec::with_capacity(docs.len());
        for (d, doc) in docs.iter().enumerate() {
            let mut z = Vec::with_capacity(doc.len());
            for &w in doc {
                let t = rng.random_range(0..k);
                z.push(t);
                doc_topic[d][t] += 1;
                topic_word[t * v + w as usize] += 1;
                topic_total[t] += 1;
            }
            assignments.push(z);
        }

        let mut weights = vec![0.0f64; k];
        for _sweep in 0..params.sweeps {
            for (d, doc) in docs.iter().enumerate() {
                for (i, &w) in doc.iter().enumerate() {
                    let w = w as usize;
                    let old = assignments[d][i];
                    doc_topic[d][old] -= 1;
                    topic_word[old * v + w] -= 1;
                    topic_total[old] -= 1;

                    let mut total = 0.0;
                    for t in 0..k {
                        let wgt = (doc_topic[d][t] as f64 + alpha)
                            * (topic_word[t * v + w] as f64 + beta)
                            / (topic_total[t] as f64 + v as f64 * beta);
                        weights[t] = wgt;
                        total += wgt;
                    }
                    let mut u = rng.random::<f64>() * total;
                    let mut new = k - 1;
                    for (t, &wgt) in weights.iter().enumerate() {
                        u -= wgt;
                        if u <= 0.0 {
                            new = t;
                            break;
                        }
                    }

                    assignments[d][i] = new;
                    doc_topic[d][new] += 1;
                    topic_word[new * v + w] += 1;
                    topic_total[new] += 1;
                }
            }
        }

        let mut phi = vec![0.0f64; k * v];
        for t in 0..k {
            let denom = topic_total[t] as f64 + v as f64 * beta;
            for w in 0..v {
                phi[t * v + w] = (topic_word[t * v + w] as f64 + beta) / denom;
            }
        }
        let theta = doc_topic
            .iter()
            .map(|counts| {
                let len: u32 = counts.iter().sum();
                let denom = len as f64 + k as f64 * alpha;
                counts.iter().map(|&c| (c as f64 + alpha) / denom).collect()
            })
            .collect();
        Reference {
            params,
            n_words: v,
            phi,
            theta,
        }
    }

    /// The reference as an [`LdaModel`], read from the model's
    /// serialized form.
    fn model(&self) -> LdaModel {
        let value = Value::Object(vec![
            ("n_topics".into(), self.params.n_topics.to_value()),
            ("n_words".into(), self.n_words.to_value()),
            ("alpha".into(), self.params.alpha.to_value()),
            ("beta".into(), self.params.beta.to_value()),
            ("phi".into(), self.phi.to_value()),
        ]);
        LdaModel::from_value(&value).expect("the reference's φ has the model's shape")
    }

    /// Asserts that `trained` equals the reference to the last bit: the
    /// whole model, every `φ` value through its accessor, and `θ` row by
    /// row.
    fn assert_equals(&self, (model, theta): &Trained, case: &str) {
        assert_eq!(*model, self.model(), "{case}: models differ");
        for t in 0..self.params.n_topics {
            for w in 0..self.n_words {
                let want = self.phi[t * self.n_words + w];
                assert_eq!(
                    model.topic_word(t, w).to_bits(),
                    want.to_bits(),
                    "{case}: φ[{t}][{w}]"
                );
            }
        }
        assert_eq!(theta.len(), self.theta.len(), "{case}: θ rows");
        let bits = |row: &[f64]| row.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        for (d, (row, want)) in theta.iter().zip(&self.theta).enumerate() {
            assert_eq!(bits(row), bits(want), "{case}: θ row {d}");
        }
    }
}

/// Trains [`StreamingLda`] and the reference on `docs` from the same
/// seed, over the vocabulary `0..=max word id`.
fn train_both(docs: &[Vec<u32>], params: LdaParams, seed: u64) -> (Trained, Reference) {
    let n_words = docs.iter().flatten().map(|&w| w as usize + 1).max();
    let n_words = n_words.unwrap_or(0);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut lda = StreamingLda::new(params, n_words);
    for doc in docs {
        lda.feed_doc(doc.iter().copied(), &mut rng);
    }
    assert_eq!(lda.n_docs(), docs.len());
    assert_eq!(lda.n_tokens(), docs.iter().map(Vec::len).sum::<usize>());
    let streamed = lda.finish(&mut rng);
    let mut rng = SmallRng::seed_from_u64(seed);
    (streamed, Reference::train(docs, n_words, params, &mut rng))
}

#[test]
fn streaming_equals_batch_bit_for_bit() {
    let docs: Vec<Vec<u32>> = (0..20)
        .map(|i| {
            let base = if i % 2 == 0 { 0u32 } else { 5u32 };
            (0..30).map(|j| base + (j % 5) as u32).collect()
        })
        .collect();
    let params = LdaParams::with_topics(3).priors(0.5, 0.01).sweeps(40);
    let (streamed, reference) = train_both(&docs, params, 9);
    reference.assert_equals(&streamed, "themed");
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
        let (streamed, reference) = train_both(&docs, params, 100 + case as u64);
        reference.assert_equals(&streamed, &format!("case {case}"));
        assert_eq!(streamed.1.len(), n_docs);
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
    let (streamed, reference) = train_both(&docs, params, 77);
    reference.assert_equals(&streamed, "paper-shaped");
}

/// `n_docs` documents of lengths drawn from `lens`, over words
/// `0..n_words`, the last word placed once so the vocabulary is exactly
/// `n_words`.
fn random_docs(
    gen: &mut SmallRng,
    n_docs: usize,
    lens: std::ops::Range<usize>,
    n_words: u32,
) -> Vec<Vec<u32>> {
    let mut docs: Vec<Vec<u32>> = (0..n_docs)
        .map(|_| {
            let len = gen.random_range(lens.clone());
            (0..len).map(|_| gen.random_range(0..n_words)).collect()
        })
        .collect();
    docs[0].push(n_words - 1);
    docs
}

#[test]
fn topic_counts_off_every_vector_width_match() {
    // A token's weights run over its word's `n_topics` contiguous
    // counts, at offset `w * n_topics`. K = 3 and 7 leave a remainder
    // at every vector width and start every other word's row off a
    // width boundary, K = 1 is all remainder, and K = 50 leaves one at
    // widths 4 and 8. An odd V makes no word-major table a multiple of
    // a width.
    let mut gen = SmallRng::seed_from_u64(0x5EED);
    for (k, v) in [(1usize, 13u32), (3, 29), (7, 61), (50, 61)] {
        let docs = random_docs(&mut gen, 40, 0..30, v);
        let params = LdaParams::with_topics(k).sweeps(6);
        let (streamed, reference) = train_both(&docs, params, 40 + k as u64);
        assert_eq!(streamed.0.n_words(), v as usize);
        reference.assert_equals(&streamed, &format!("K = {k}, V = {v}"));
    }
}

#[test]
fn one_word_repeated_matches() {
    // Consecutive tokens of one word: the counts the first token leaves
    // and enters must be current when the next token weighs the same
    // word, in the same document.
    let docs = vec![
        vec![4u32; 300],
        vec![0, 4, 4, 4, 1, 4, 4],
        vec![2; 50],
        vec![4],
    ];
    for k in [1, 3, 50] {
        let params = LdaParams::with_topics(k).sweeps(5);
        let (streamed, reference) = train_both(&docs, params, 60 + k as u64);
        reference.assert_equals(&streamed, &format!("repeated word, K = {k}"));
    }
}

#[test]
fn single_token_documents_match() {
    // A one-token document's count row is all zeros while its token is
    // resampled, and every token starts a new document.
    let docs: Vec<Vec<u32>> = (0..60u32).map(|d| vec![(d * 7) % 11]).collect();
    for k in [1, 7, 50] {
        let params = LdaParams::with_topics(k).sweeps(5);
        let (streamed, reference) = train_both(&docs, params, 80 + k as u64);
        reference.assert_equals(&streamed, &format!("one-token documents, K = {k}"));
    }
}

#[test]
fn servebench_shaped_corpus_matches() {
    // The serving benchmark's training shape: |Top| = 50 with the
    // default priors (α = 50 / 50 = 1, β = 0.01), 60 categories and a
    // few hundred 12-token documents, at a few sweeps.
    let mut gen = SmallRng::seed_from_u64(0x5E7);
    let docs = random_docs(&mut gen, 300, 12..13, 60);
    let params = LdaParams::with_topics(50).sweeps(4);
    assert_eq!((params.alpha, params.beta), (1.0, 0.01));
    let (streamed, reference) = train_both(&docs, params, 12);
    assert_eq!(streamed.0.n_words(), 60);
    reference.assert_equals(&streamed, "servebench-shaped");
}

#[test]
fn docs_spanning_blocks_stay_equal() {
    // The streaming trainer stores tokens in blocks of 65,536. Over
    // 3 × 65,536 tokens, documents straddle each of the first three
    // block boundaries mid-document.
    let docs: Vec<Vec<u32>> = [40_000u32, 100_000, 70_000, 4]
        .iter()
        .enumerate()
        .map(|(d, &len)| (0..len).map(|i| (i + d as u32) % 7).collect())
        .collect();
    assert!(docs.iter().map(Vec::len).sum::<usize>() > 3 * 65_536);
    let params = LdaParams::with_topics(2).sweeps(2);
    let (streamed, reference) = train_both(&docs, params, 5);
    reference.assert_equals(&streamed, "block-straddling");
}

#[test]
fn empty_stream_matches_empty_corpus() {
    let (streamed, reference) = train_both(&[], LdaParams::with_topics(4), 1);
    reference.assert_equals(&streamed, "empty");
    assert!(streamed.1.is_empty());
    assert_eq!(streamed.0.n_words(), 1, "vocabulary clamps to 1");
}

#[test]
fn empty_documents_are_preserved() {
    let docs = vec![vec![], vec![0, 1, 0], vec![]];
    let params = LdaParams::with_topics(2).sweeps(3);
    let (streamed, reference) = train_both(&docs, params, 2);
    reference.assert_equals(&streamed, "empty documents");
    assert_eq!(streamed.1.len(), 3);
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
    let ((streamed, _), reference) = train_both(&docs, params, 11);
    let mut ra = SmallRng::seed_from_u64(5);
    let mut rb = SmallRng::seed_from_u64(5);
    let task_doc = [0u32, 1, 2, 3, 0, 1];
    assert_eq!(
        streamed.infer(&task_doc, 25, &mut ra),
        reference.model().infer(&task_doc, 25, &mut rb)
    );
}
