//! Streaming collapsed Gibbs LDA.
//!
//! [`StreamingLda`] trains the model without a corpus: check-in batches
//! are folded straight into Gibbs state via [`StreamingLda::feed_doc`],
//! which draws each token's initial topic **at feed time** and stores
//! token + assignment in fixed-capacity blocks (never a doubling
//! reallocation over the full token stream, and none of the
//! per-document `Vec` headers a nested corpus carries).
//! [`StreamingLda::finish`] then runs the configured sweeps and freezes
//! `φ` into the model and `θ` beside it.
//!
//! # Equivalence contract
//!
//! Feeding documents in corpus order with RNG state `r`, then finishing
//! with the same RNG, performs **exactly the operation sequence** of the
//! plain batch sampler that `tests/streaming_equality.rs` keeps as its
//! reference model: nested per-document vectors, every token's init
//! topic drawn in document order before the first sweep, and
//! token-for-token identical sweep arithmetic. The reference freezes
//! its own `φ` and `θ`, and the suite requires both to equal this
//! trainer's to the last bit at several shapes. The sweep's layout
//! (word-major `n_kw`, `f64` mirrors of the weight factors, see
//! [`StreamingLda::finish`]) moves where the operands live, not what
//! is computed from them. The dense `n_docs × n_topics` counts and `θ`
//! are unavoidable (`θ` *is* the output); what streaming removes is the
//! second, corpus-shaped copy of every token.

use crate::gibbs::{LdaModel, LdaParams};
use rand::{Rng, RngExt};

/// Tokens per storage block (256 KB of `u32` per plane). Blocks are
/// allocated at exactly this capacity and filled completely before the
/// next one opens, so flat position → `(block, offset)` is a shift+mask.
const BLOCK: usize = 1 << 16;

/// Exactly-`BLOCK`-capacity block list with flat addressing.
#[derive(Debug, Clone, Default)]
struct BlockVec {
    blocks: Vec<Vec<u32>>,
    len: usize,
}

impl BlockVec {
    fn push(&mut self, v: u32) {
        if self.len == self.blocks.len() * BLOCK {
            self.blocks.push(Vec::with_capacity(BLOCK));
        }
        self.blocks.last_mut().expect("block exists").push(v);
        self.len += 1;
    }

    #[inline]
    fn get(&self, i: usize) -> u32 {
        self.blocks[i / BLOCK][i % BLOCK]
    }

    #[inline]
    fn set(&mut self, i: usize, v: u32) {
        self.blocks[i / BLOCK][i % BLOCK] = v;
    }
}

/// The streaming trainer (see module docs).
#[derive(Debug, Clone)]
pub struct StreamingLda {
    params: LdaParams,
    /// Vocabulary size `V` (an empty vocabulary is clamped to 1).
    v: usize,
    /// Token word ids, in feed order.
    tokens: BlockVec,
    /// Current topic assignment per token.
    z: BlockVec,
    /// Cumulative token count at the end of each fed document.
    doc_ends: Vec<u32>,
    /// `n_dk`, row-major per fed document.
    doc_topic: Vec<u32>,
    /// `n_kw`, word-major `V × n_topics`: word `w`'s counts are the
    /// contiguous `w * n_topics..(w + 1) * n_topics`, the row a token
    /// of `w` weighs every topic against.
    topic_word: Vec<u32>,
    /// `n_k`.
    topic_total: Vec<u32>,
}

impl StreamingLda {
    /// Creates a streaming trainer over a vocabulary of `n_words` words.
    ///
    /// The vocabulary is declared up front — a streaming pass cannot
    /// infer it after the fact. Callers typically take a cheap max over
    /// their word source first.
    pub fn new(params: LdaParams, n_words: usize) -> Self {
        let k = params.n_topics;
        let v = n_words.max(1);
        StreamingLda {
            params,
            v,
            tokens: BlockVec::default(),
            z: BlockVec::default(),
            doc_ends: Vec::new(),
            doc_topic: Vec::new(),
            topic_word: vec![0u32; k * v],
            topic_total: vec![0u32; k],
        }
    }

    /// Number of documents fed so far.
    #[inline]
    pub fn n_docs(&self) -> usize {
        self.doc_ends.len()
    }

    /// Number of tokens fed so far.
    #[inline]
    pub fn n_tokens(&self) -> usize {
        self.tokens.len
    }

    /// Folds one document into the Gibbs state, drawing each token's
    /// initial topic from `rng` in feed order, before any sweep.
    ///
    /// # Panics
    /// When a word id is outside the declared vocabulary.
    pub fn feed_doc<I, R>(&mut self, doc: I, rng: &mut R)
    where
        I: IntoIterator<Item = u32>,
        R: Rng + ?Sized,
    {
        let k = self.params.n_topics;
        let di = self.doc_ends.len();
        self.doc_topic.resize((di + 1) * k, 0);
        for w in doc {
            assert!((w as usize) < self.v, "word id {w} out of vocabulary");
            let t = rng.random_range(0..k);
            self.tokens.push(w);
            self.z.push(t as u32);
            self.doc_topic[di * k + t] += 1;
            self.topic_word[w as usize * k + t] += 1;
            self.topic_total[t] += 1;
        }
        self.doc_ends.push(self.tokens.len as u32);
    }

    /// Runs the configured Gibbs sweeps over everything fed, in feed
    /// order, and freezes the point estimates. Returns the model and
    /// `θ`, one row per fed document.
    ///
    /// A token's weight for topic `k` is `a · b / c` with `a = n_dk + α`,
    /// `b = n_kw + β` and `c = n_k + Vβ`. Each factor has an `f64`
    /// mirror beside its `u32` count: `a` for the current document's
    /// row, `b` word-major like `n_kw`, `c` per topic. A mirror value
    /// is recomputed from its count, by the same expression, only where
    /// the count moves: at the topic a token leaves and the one it
    /// enters, and `a`'s row at each new document. The weights then
    /// come from contiguous slices in a loop of their own, which
    /// vectorizes, while their sum and the draw stay the ordered
    /// scalar loops of the reference. Every operand and operation is
    /// the reference's, so every draw, count and frozen value is too.
    pub fn finish<R: Rng + ?Sized>(self, rng: &mut R) -> (LdaModel, Vec<Vec<f64>>) {
        let StreamingLda {
            params,
            v,
            tokens,
            mut z,
            doc_ends,
            mut doc_topic,
            mut topic_word,
            mut topic_total,
        } = self;
        let k = params.n_topics;
        let d = doc_ends.len();
        let alpha = params.alpha;
        let beta = params.beta;
        let v_beta = v as f64 * beta;

        let mut doc_f = vec![0.0f64; k];
        let mut word_f: Vec<f64> = topic_word.iter().map(|&n| n as f64 + beta).collect();
        let mut total_f: Vec<f64> = topic_total.iter().map(|&n| n as f64 + v_beta).collect();
        let mut weights = vec![0.0f64; k];
        for _sweep in 0..params.sweeps {
            let mut pos = 0usize;
            for (di, &end) in doc_ends.iter().enumerate() {
                let counts = &mut doc_topic[di * k..(di + 1) * k];
                for (a, &n) in doc_f.iter_mut().zip(counts.iter()) {
                    *a = n as f64 + alpha;
                }
                while pos < end as usize {
                    let row = tokens.get(pos) as usize * k;
                    let old = z.get(pos) as usize;
                    counts[old] -= 1;
                    topic_word[row + old] -= 1;
                    topic_total[old] -= 1;
                    doc_f[old] = counts[old] as f64 + alpha;
                    word_f[row + old] = topic_word[row + old] as f64 + beta;
                    total_f[old] = topic_total[old] as f64 + v_beta;

                    let word_row = &word_f[row..row + k];
                    for (((wgt, &a), &b), &c) in
                        weights.iter_mut().zip(&doc_f).zip(word_row).zip(&total_f)
                    {
                        *wgt = a * b / c;
                    }
                    let mut total = 0.0;
                    for &wgt in &weights {
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

                    z.set(pos, new as u32);
                    counts[new] += 1;
                    topic_word[row + new] += 1;
                    topic_total[new] += 1;
                    doc_f[new] = counts[new] as f64 + alpha;
                    word_f[row + new] = topic_word[row + new] as f64 + beta;
                    total_f[new] = topic_total[new] as f64 + v_beta;
                    pos += 1;
                }
            }
        }

        LdaModel::freeze(&params, v, &topic_word, &topic_total, &doc_topic, d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn oov_word_panics() {
        let mut s = StreamingLda::new(LdaParams::with_topics(2), 3);
        let mut rng = SmallRng::seed_from_u64(0);
        s.feed_doc([0u32, 3], &mut rng);
    }
}
