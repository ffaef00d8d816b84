//! Collapsed Gibbs sampling for LDA: the model and its priors.
//!
//! [`StreamingLda`](crate::StreamingLda) maintains the standard count
//! matrices and resamples every token's topic from
//!
//! `P(z = k | rest) ∝ (n_dk + α) · (n_kw + β) / (n_k + Vβ)`
//!
//! where `n_dk` counts tokens of document `d` in topic `k`, `n_kw` counts
//! word `w` in topic `k`, and `n_k` is the size of topic `k`. After the
//! configured sweeps it freezes `φ` (topic-word) into the [`LdaModel`]
//! and returns the `θ` (document-topic) point estimates beside it.

use rand::{Rng, RngExt};

/// Hyper-parameters of the trainer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LdaParams {
    /// Number of topics `|Top|` (paper default 50).
    pub n_topics: usize,
    /// Symmetric document-topic prior `α` (default `50 / n_topics`).
    pub alpha: f64,
    /// Symmetric topic-word prior `β` (default 0.01).
    pub beta: f64,
    /// Gibbs sweeps over the corpus.
    pub sweeps: usize,
}

impl LdaParams {
    /// Defaults matching the paper (|Top| = 50) and common LDA practice.
    pub fn with_topics(n_topics: usize) -> Self {
        assert!(n_topics > 0, "need at least one topic");
        LdaParams {
            n_topics,
            alpha: 50.0 / n_topics as f64,
            beta: 0.01,
            sweeps: 100,
        }
    }

    /// Overrides the sweep count.
    #[must_use]
    pub fn sweeps(mut self, sweeps: usize) -> Self {
        self.sweeps = sweeps;
        self
    }

    /// Overrides the priors.
    #[must_use]
    pub fn priors(mut self, alpha: f64, beta: f64) -> Self {
        assert!(alpha > 0.0 && beta > 0.0, "priors must be positive");
        self.alpha = alpha;
        self.beta = beta;
        self
    }
}

/// A trained LDA model: the frozen `φ` and the priors that inference
/// reads. The training documents' `θ` is not part of it: the trainer
/// returns it beside the model, and the caller keeps it.
///
/// Restore refuses a model with no topics, or whose `φ` does not hold
/// `n_topics × n_words` values, which inference would index past.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct LdaModel {
    n_topics: usize,
    n_words: usize,
    alpha: f64,
    beta: f64,
    /// Row-major `n_topics × n_words` topic-word distribution.
    phi: Vec<f64>,
}

impl serde::Deserialize for LdaModel {
    fn from_value(value: &serde::json::Value) -> Result<Self, serde::Error> {
        let obj = value
            .as_object()
            .ok_or_else(|| serde::Error::expected("LDA model object", value))?;
        let model = LdaModel {
            n_topics: serde::get_field(obj, "n_topics")?,
            n_words: serde::get_field(obj, "n_words")?,
            alpha: serde::get_field(obj, "alpha")?,
            beta: serde::get_field(obj, "beta")?,
            phi: serde::get_field(obj, "phi")?,
        };
        let cells = model.n_topics.checked_mul(model.n_words);
        if model.n_topics == 0 || cells != Some(model.phi.len()) {
            return Err(serde::Error::custom(format!(
                "LDA φ holds {} values for {} topics × {} words; it needs one per \
                 topic-word pair and at least one topic",
                model.phi.len(),
                model.n_topics,
                model.n_words
            )));
        }
        Ok(model)
    }
}

impl LdaModel {
    /// Freezes the point estimates of finished Gibbs counts: the model,
    /// with `φ` from the topic-word counts `n_kw` and topic sizes `n_k`,
    /// and `θ` of each of the `n_docs` documents from their row-major
    /// counts `n_dk`. `n_kw` comes word-major, as the sampler keeps it
    /// (word `w`'s counts at `w * n_topics..`); `φ` is written
    /// row-major per topic, the layout the model and its serialized
    /// form hold.
    pub(crate) fn freeze(
        params: &LdaParams,
        v: usize,
        topic_word: &[u32],
        topic_total: &[u32],
        doc_topic: &[u32],
        n_docs: usize,
    ) -> (LdaModel, Vec<Vec<f64>>) {
        let (k, alpha, beta) = (params.n_topics, params.alpha, params.beta);
        let mut phi = vec![0.0f64; k * v];
        for t in 0..k {
            let denom = topic_total[t] as f64 + v as f64 * beta;
            for w in 0..v {
                phi[t * v + w] = (topic_word[w * k + t] as f64 + beta) / denom;
            }
        }
        let theta = (0..n_docs)
            .map(|d| {
                let counts = &doc_topic[d * k..(d + 1) * k];
                let len: u32 = counts.iter().sum();
                let denom = len as f64 + k as f64 * alpha;
                counts.iter().map(|&c| (c as f64 + alpha) / denom).collect()
            })
            .collect();
        let model = LdaModel {
            n_topics: k,
            n_words: v,
            alpha,
            beta,
            phi,
        };
        (model, theta)
    }

    /// Number of topics.
    #[inline]
    pub fn n_topics(&self) -> usize {
        self.n_topics
    }

    /// Vocabulary size.
    #[inline]
    pub fn n_words(&self) -> usize {
        self.n_words
    }

    /// `P(w | t)` for topic `t`.
    #[inline]
    pub fn topic_word(&self, t: usize, w: usize) -> f64 {
        self.phi[t * self.n_words + w]
    }

    /// Infers the topic distribution of an unseen document by fold-in
    /// Gibbs sampling with `φ` held fixed. Deterministic given the RNG.
    ///
    /// Empty documents (and out-of-vocabulary-only documents) return the
    /// uniform prior distribution.
    pub fn infer<R: Rng + ?Sized>(&self, doc: &[u32], sweeps: usize, rng: &mut R) -> Vec<f64> {
        let k = self.n_topics;
        let tokens: Vec<u32> = doc
            .iter()
            .copied()
            .filter(|&w| (w as usize) < self.n_words)
            .collect();
        if tokens.is_empty() {
            return vec![1.0 / k as f64; k];
        }

        let mut counts = vec![0u32; k];
        let mut z = Vec::with_capacity(tokens.len());
        for _ in &tokens {
            let t = rng.random_range(0..k);
            z.push(t);
            counts[t] += 1;
        }

        let mut weights = vec![0.0f64; k];
        for _ in 0..sweeps.max(1) {
            for (i, &w) in tokens.iter().enumerate() {
                counts[z[i]] -= 1;
                let mut total = 0.0;
                for t in 0..k {
                    let wgt = (counts[t] as f64 + self.alpha) * self.topic_word(t, w as usize);
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
                z[i] = new;
                counts[new] += 1;
            }
        }

        let denom = tokens.len() as f64 + k as f64 * self.alpha;
        (0..k)
            .map(|t| (counts[t] as f64 + self.alpha) / denom)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StreamingLda;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Two cleanly separated "themes" over a vocabulary of ten words:
    /// words 0-4 and words 5-9. Documents draw exclusively from one theme.
    fn themed_docs() -> Vec<Vec<u32>> {
        (0..30)
            .map(|i| {
                let base = if i % 2 == 0 { 0u32 } else { 5u32 };
                (0..40).map(|j| base + (j % 5) as u32).collect()
            })
            .collect()
    }

    fn train(docs: &[Vec<u32>], k: usize, seed: u64) -> (LdaModel, Vec<Vec<f64>>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        // The 50/k heuristic is tuned for ~50 topics; with the tiny k used
        // in tests it over-smooths θ, so pin a small α here.
        let params = LdaParams::with_topics(k).priors(0.5, 0.01).sweeps(150);
        let mut lda = StreamingLda::new(params, 10);
        for doc in docs {
            lda.feed_doc(doc.iter().copied(), &mut rng);
        }
        lda.finish(&mut rng)
    }

    #[test]
    fn phi_rows_are_distributions() {
        let (model, _) = train(&themed_docs(), 4, 1);
        for t in 0..model.n_topics() {
            let sum: f64 = (0..model.n_words()).map(|w| model.topic_word(t, w)).sum();
            assert!((sum - 1.0).abs() < 1e-9, "topic {t} sums to {sum}");
        }
    }

    #[test]
    fn theta_rows_are_distributions() {
        let (_, theta) = train(&themed_docs(), 4, 1);
        assert_eq!(theta.len(), 30);
        for row in &theta {
            assert_eq!(row.len(), 4);
            let sum: f64 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn recovers_two_themes() {
        // With 2 topics on the themed corpus, same-theme documents must be
        // much more similar than cross-theme ones.
        let docs = themed_docs();
        let (_, theta) = train(&docs, 2, 7);
        let d0 = &theta[0]; // theme A
        let d2 = &theta[2]; // theme A
        let d1 = &theta[1]; // theme B
        let dot = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>();
        assert!(
            dot(d0, d2) > 3.0 * dot(d0, d1),
            "same-theme {} vs cross-theme {}",
            dot(d0, d2),
            dot(d0, d1)
        );
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let docs = themed_docs();
        let a = train(&docs, 3, 42);
        let b = train(&docs, 3, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn inference_assigns_theme_topic() {
        let docs = themed_docs();
        let (model, trained) = train(&docs, 2, 7);
        let mut rng = SmallRng::seed_from_u64(3);
        // A fresh theme-A document should look like training theme-A docs.
        let theta = model.infer(&[0, 1, 2, 3, 4, 0, 1, 2, 3, 4], 50, &mut rng);
        let train_theta = &trained[0];
        let dominant_train = (0..2)
            .max_by(|&a, &b| train_theta[a].total_cmp(&train_theta[b]))
            .unwrap();
        let dominant_new = (0..2)
            .max_by(|&a, &b| theta[a].total_cmp(&theta[b]))
            .unwrap();
        assert_eq!(dominant_new, dominant_train);
    }

    #[test]
    fn inference_on_empty_doc_is_uniform() {
        let (model, _) = train(&themed_docs(), 4, 2);
        let mut rng = SmallRng::seed_from_u64(0);
        let theta = model.infer(&[], 10, &mut rng);
        for &p in &theta {
            assert!((p - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn inference_skips_out_of_vocab_words() {
        let (model, _) = train(&themed_docs(), 2, 2);
        let mut rng = SmallRng::seed_from_u64(0);
        let theta = model.infer(&[999, 1000], 10, &mut rng);
        assert!((theta[0] - 0.5).abs() < 1e-12, "OOV-only doc is uniform");
        let sum: f64 = theta.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_topic_degenerates_gracefully() {
        let (model, theta) = train(&themed_docs(), 1, 5);
        assert_eq!(theta[0], [1.0]);
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(model.infer(&[1, 2], 5, &mut rng), vec![1.0]);
    }

    #[test]
    fn handles_empty_corpus() {
        let (model, theta) = train(&[], 3, 0);
        assert!(theta.is_empty());
        // Inference still works against the prior.
        let mut rng = SmallRng::seed_from_u64(0);
        let theta = model.infer(&[], 5, &mut rng);
        assert_eq!(theta.len(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one topic")]
    fn zero_topics_panics() {
        let _ = LdaParams::with_topics(0);
    }
}
