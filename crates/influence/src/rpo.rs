//! The RPO algorithm (paper Algorithm 1 + Section III-E).
//!
//! RPO decides how many RRR sets are enough for the `(1 − ε)`
//! approximation of worker propagation to hold with probability
//! `1 − |W|^{−o}`:
//!
//! 1. Walk the candidate thresholds `K = {|W|/2, |W|/4, …, 2}`. For each
//!    `kᵢ`, sample the iteration-based lower bound
//!    `NR(kᵢ) = (2 + 2ε*/3)(ln|W| + ln(1/λ*)) |W| / (ε*² kᵢ)` sets
//!    (Lemma 6) with `ε* = √2 ε` and `λ* = 1/(|W|^o log₂|W|)`.
//! 2. Find the greedy informed worker `wᶿ` and test
//!    `N_p^opt ≥ γ = (1 + ε*) kᵢ`. On success, `σ(wᵗ) ≥ N_p^opt·kᵢ/γ`
//!    holds w.h.p.; this lower bound feeds the threshold-based bound
//!    `N'_R(γ) = 2|W| ln(1/λ) / (σ_LB ε²)` (Lemma 5) with `λ = |W|^{−o}`.
//! 3. Top the pool up to `N'_R(γ)` sets if the current pool is smaller.
//!
//! The returned pool serves *all* source workers (the sampling phase of
//! Algorithm 1 does not depend on `w_s`; see `crate::pool`).

use crate::network::SocialNetwork;
use crate::parallel::Parallelism;
use crate::pool::RrrPool;
use std::time::Instant;

/// Parameters of the RPO estimator, which samples every RRR set under
/// the paper's weighted cascade. Serde reads the fields by name and
/// skips other keys, such as the `model` key of older snapshots.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RpoParams {
    /// Approximation slack `ε` (paper default 0.1).
    pub epsilon: f64,
    /// Confidence exponent `o` in `λ = |W|^{−o}` (paper default 1).
    pub o: f64,
    /// Hard cap on pool size. When the cap binds, [`RpoStats::capped`]
    /// is set and the approximation guarantee may not hold;
    /// `usize::MAX` disables the cap. Because top-ups are incremental
    /// (sets are seeded per index, so growing a pool resamples
    /// nothing), raising the cap only ever pays for the *additional*
    /// sets — budget it against memory (`≈ avg-set-size × 4 bytes` per
    /// set, doubled by the membership index), not resampling time, and
    /// note that the extra sets are sampled at full [`RpoParams::threads`]
    /// width.
    pub max_sets: usize,
    /// Sampling thread budget. Results are bit-identical at any value —
    /// sets are seeded per index — so this knob trades wall time only.
    pub threads: Parallelism,
}

impl Default for RpoParams {
    fn default() -> Self {
        RpoParams {
            epsilon: 0.1,
            o: 1.0,
            max_sets: 1_000_000,
            threads: Parallelism::Auto,
        }
    }
}

impl RpoParams {
    /// `ε* = √2 · ε`, the minimizer of `max{N'_R(γ), NR(kᵢ)}`.
    pub fn epsilon_star(&self) -> f64 {
        std::f64::consts::SQRT_2 * self.epsilon
    }

    /// `λ = |W|^{−o}`.
    pub fn lambda(&self, n_workers: usize) -> f64 {
        (n_workers.max(2) as f64).powf(-self.o)
    }

    /// `λ* = 1 / (|W|^o · log₂|W|)`.
    pub fn lambda_star(&self, n_workers: usize) -> f64 {
        let n = n_workers.max(2) as f64;
        1.0 / (n.powf(self.o) * n.log2())
    }

    /// Iteration-based lower bound `NR(kᵢ)` on the number of RRR sets
    /// (Lemma 6).
    pub fn nr(&self, n_workers: usize, k: f64) -> f64 {
        let n = n_workers.max(2) as f64;
        let es = self.epsilon_star();
        (2.0 + 2.0 * es / 3.0) * (n.ln() + (1.0 / self.lambda_star(n_workers)).ln()) * n
            / (es * es * k.max(1.0))
    }

    /// Threshold-based lower bound `N'_R(γ)` given a lower bound on
    /// `σ(wᵗ)` (Lemma 5).
    pub fn nr_prime(&self, n_workers: usize, sigma_lower: f64) -> f64 {
        let n = n_workers.max(2) as f64;
        2.0 * n * (1.0 / self.lambda(n_workers)).ln()
            / (sigma_lower.max(1.0) * self.epsilon * self.epsilon)
    }
}

/// Diagnostics of an RPO run.
///
/// Equality ignores the wall-clock fields (`search_ms`, `topup_ms`) so
/// that determinism tests can compare whole stats across runs and
/// thread counts.
#[derive(Debug, Clone, Copy)]
pub struct RpoStats {
    /// Final pool size `N`.
    pub n_sets: usize,
    /// Total sets sampled across all phases, accumulated per extension.
    /// With incremental top-up this equals [`RpoStats::n_sets`] — no set
    /// is ever resampled; any future divergence between the two numbers
    /// flags resampling waste.
    pub sets_sampled: usize,
    /// Halving rounds executed (size of the prefix of `K` visited).
    pub rounds: usize,
    /// The threshold `kᵢ` at which the test `N_p^opt ≥ γ` passed
    /// (or the last one tried).
    pub k_final: f64,
    /// Whether the threshold test passed before `K` was exhausted.
    pub test_passed: bool,
    /// The derived lower bound on `σ(wᵗ)`.
    pub sigma_lower_bound: f64,
    /// The threshold-based bound `N'_R(γ)` at termination.
    pub nr_prime: f64,
    /// Whether the `max_sets` cap limited the pool.
    pub capped: bool,
    /// The resolved sampling thread *budget*. Small extensions may run
    /// on fewer shards (see [`RrrPool::MIN_SETS_PER_SHARD`]); results
    /// are identical either way.
    pub threads: usize,
    /// Wall time of the halving/search phase (Algorithm 1 steps 1–2), ms.
    pub search_ms: f64, // lint: timing
    /// Wall time of the final top-up phase (Algorithm 1 step 3), ms.
    pub topup_ms: f64, // lint: timing
}

impl PartialEq for RpoStats {
    fn eq(&self, other: &Self) -> bool {
        self.n_sets == other.n_sets
            && self.sets_sampled == other.sets_sampled
            && self.rounds == other.rounds
            && self.k_final == other.k_final
            && self.test_passed == other.test_passed
            && self.sigma_lower_bound == other.sigma_lower_bound
            && self.nr_prime == other.nr_prime
            && self.capped == other.capped
        // threads / search_ms / topup_ms are run conditions, not results.
    }
}

/// Snapshot serde mirrors the equality contract: the deterministic
/// diagnostics round-trip, the run conditions (`threads`) travel for
/// reference, and the wall-clock fields are written as zero so the same
/// trained model always snapshots to the same bytes.
impl serde::Serialize for RpoStats {
    fn to_value(&self) -> serde::json::Value {
        serde::json::Value::Object(vec![
            ("n_sets".to_string(), self.n_sets.to_value()),
            ("sets_sampled".to_string(), self.sets_sampled.to_value()),
            ("rounds".to_string(), self.rounds.to_value()),
            ("k_final".to_string(), self.k_final.to_value()),
            ("test_passed".to_string(), self.test_passed.to_value()),
            (
                "sigma_lower_bound".to_string(),
                self.sigma_lower_bound.to_value(),
            ),
            ("nr_prime".to_string(), self.nr_prime.to_value()),
            ("capped".to_string(), self.capped.to_value()),
            ("threads".to_string(), self.threads.to_value()),
        ])
    }
}

impl serde::Deserialize for RpoStats {
    fn from_value(value: &serde::json::Value) -> Result<Self, serde::Error> {
        let obj = value
            .as_object()
            .ok_or_else(|| serde::Error::expected("rpo-stats object", value))?;
        Ok(RpoStats {
            n_sets: serde::get_field(obj, "n_sets")?,
            sets_sampled: serde::get_field(obj, "sets_sampled")?,
            rounds: serde::get_field(obj, "rounds")?,
            k_final: serde::get_field(obj, "k_final")?,
            test_passed: serde::get_field(obj, "test_passed")?,
            sigma_lower_bound: serde::get_field(obj, "sigma_lower_bound")?,
            nr_prime: serde::get_field(obj, "nr_prime")?,
            capped: serde::get_field(obj, "capped")?,
            threads: serde::get_field(obj, "threads")?,
            search_ms: 0.0,
            topup_ms: 0.0,
        })
    }
}

/// The RPO pool builder.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rpo {
    params: RpoParams,
}

impl Rpo {
    /// Creates a builder with the given parameters.
    pub fn new(params: RpoParams) -> Self {
        Rpo { params }
    }

    /// The parameters.
    pub fn params(&self) -> &RpoParams {
        &self.params
    }

    /// Runs Algorithm 1 with an explicit master seed and returns the
    /// pool plus diagnostics.
    ///
    /// The pool is bit-identical for a fixed `master_seed` at any
    /// [`RpoParams::threads`] setting, and grows **incrementally**: each
    /// halving round and the final top-up extend the previous round's
    /// pool (per-index seeding makes an extension equal a from-scratch
    /// build of the larger size), so across the whole run every set is
    /// sampled exactly once.
    ///
    /// Reusing rounds' sets introduces a mild dependence between the
    /// adaptive stopping test and the final estimates — the trade-off
    /// every incremental IMM-family sampler makes (fresh pools per
    /// round would multiply sampling cost by the round count). The
    /// practical effect at the paper's parameters is well inside the
    /// ε-slack; callers needing strictly independent decision/estimation
    /// samples can run two builds with distinct master seeds and use
    /// one pool per role.
    pub fn build_pool_seeded(&self, net: &SocialNetwork, master_seed: u64) -> (RrrPool, RpoStats) {
        let n = net.n_workers();
        let threads = self.params.threads.resolve();
        if n < 2 {
            // Degenerate networks: a handful of sets is exact.
            let t0 = Instant::now();
            let pool = RrrPool::generate_sharded(net, n, master_seed, 1);
            return (
                pool,
                RpoStats {
                    n_sets: n,
                    sets_sampled: n,
                    rounds: 0,
                    k_final: 0.0,
                    test_passed: true,
                    sigma_lower_bound: n as f64,
                    nr_prime: 0.0,
                    capped: false,
                    // Degenerate pools are forced onto one thread above.
                    threads: 1,
                    search_ms: t0.elapsed().as_secs_f64() * 1e3,
                    topup_ms: 0.0,
                },
            );
        }

        let p = &self.params;
        let mut k = n as f64 / 2.0;
        let mut rounds = 0usize;
        let mut capped = false;
        let mut sets_sampled = 0usize;
        let mut pool = RrrPool::generate_sharded(net, 0, master_seed, threads);

        let search_start = Instant::now();
        let (sigma_lb, test_passed) = loop {
            rounds += 1;
            let want = p.nr(n, k).ceil() as usize;
            let n_gen = want.min(p.max_sets);
            capped |= n_gen < want;
            let before = pool.n_sets();
            pool.extend_to(net, n_gen, threads);
            sets_sampled += pool.n_sets() - before;

            let gamma = (1.0 + p.epsilon_star()) * k;
            let n_opt = pool.greedy_informed_worker().map(|(_, v)| v).unwrap_or(0.0);
            if n_opt >= gamma {
                // Lemma 6: σ(wᵗ) ≥ kᵢ w.h.p.; refine to N_p^opt·kᵢ/γ.
                break ((n_opt * k / gamma).max(1.0), true);
            }
            k /= 2.0;
            if k < 2.0 || capped {
                // K exhausted: keep the densest pool generated; the root
                // always covers itself, so σ(wᵗ) ≥ 1 is a valid bound.
                break ((n_opt * k.max(2.0) / gamma).max(1.0), false);
            }
        };
        let search_ms = search_start.elapsed().as_secs_f64() * 1e3;

        // Threshold-based bound; top the pool up if it is short. Only
        // the missing sets are sampled and indexed.
        let topup_start = Instant::now();
        let nr_prime = p.nr_prime(n, sigma_lb);
        let target = (nr_prime.ceil() as usize).min(p.max_sets);
        capped |= (nr_prime.ceil() as usize) > p.max_sets;
        let before = pool.n_sets();
        pool.extend_to(net, target, threads);
        sets_sampled += pool.n_sets() - before;
        let topup_ms = topup_start.elapsed().as_secs_f64() * 1e3;

        let stats = RpoStats {
            n_sets: pool.n_sets(),
            sets_sampled,
            rounds,
            k_final: k,
            test_passed,
            sigma_lower_bound: sigma_lb,
            nr_prime,
            capped,
            threads,
            search_ms,
            topup_ms,
        };
        (pool, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn ring_net(n: usize) -> SocialNetwork {
        // Directed ring: every node has indegree 1 → deterministic
        // cascades covering the whole ring → very large σ.
        let edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
        SocialNetwork::from_directed_edges(n, &edges)
    }

    fn sparse_net(n: usize, seed: u64) -> SocialNetwork {
        use rand::RngExt;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut edges = Vec::new();
        for v in 1..n as u32 {
            let u = rng.random_range(0..v);
            edges.push((u, v));
            if rng.random_bool(0.3) {
                let u2 = rng.random_range(0..v);
                edges.push((u2, v));
            }
        }
        SocialNetwork::from_directed_edges(n, &edges)
    }

    #[test]
    fn nr_bound_decreases_in_k() {
        let p = RpoParams::default();
        let n = 1000;
        assert!(p.nr(n, 500.0) < p.nr(n, 250.0));
        assert!(p.nr(n, 4.0) < p.nr(n, 2.0));
    }

    #[test]
    fn nr_prime_decreases_in_sigma() {
        let p = RpoParams::default();
        assert!(p.nr_prime(1000, 100.0) < p.nr_prime(1000, 10.0));
    }

    #[test]
    fn epsilon_star_is_sqrt2_epsilon() {
        let p = RpoParams {
            epsilon: 0.2,
            ..Default::default()
        };
        assert!((p.epsilon_star() - 0.2 * std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn lambda_values_match_paper() {
        let p = RpoParams::default(); // o = 1
        assert!((p.lambda(1000) - 1e-3).abs() < 1e-12);
        let expect = 1.0 / (1000.0 * 1000.0f64.log2());
        assert!((p.lambda_star(1000) - expect).abs() < 1e-15);
    }

    #[test]
    fn high_influence_network_passes_test_early() {
        // Ring cascades inform everyone: σ(wᵗ) = n, so k = n/2 passes
        // immediately and a single round suffices.
        let net = ring_net(64);
        let mut rng = SmallRng::seed_from_u64(1);
        let (pool, stats) = Rpo::new(RpoParams::default()).build_pool_seeded(&net, rng.next_u64());
        assert!(stats.test_passed);
        assert_eq!(stats.rounds, 1);
        assert!(stats.sigma_lower_bound > 16.0);
        assert!(pool.n_sets() >= (stats.nr_prime as usize).min(RpoParams::default().max_sets));
    }

    #[test]
    fn sparse_network_halves_before_passing() {
        let net = sparse_net(256, 7);
        let mut rng = SmallRng::seed_from_u64(2);
        let (pool, stats) = Rpo::new(RpoParams {
            max_sets: 200_000,
            ..Default::default()
        })
        .build_pool_seeded(&net, rng.next_u64());
        assert!(stats.rounds >= 1);
        assert!(pool.n_sets() > 0);
        assert!(stats.sigma_lower_bound >= 1.0);
        // Incremental growth never resamples: across all halving rounds
        // and the top-up, exactly the final pool was sampled.
        assert_eq!(stats.sets_sampled, pool.n_sets());
    }

    #[test]
    fn cap_is_respected_and_reported() {
        let net = sparse_net(128, 3);
        let mut rng = SmallRng::seed_from_u64(3);
        let (pool, stats) = Rpo::new(RpoParams {
            max_sets: 500,
            ..Default::default()
        })
        .build_pool_seeded(&net, rng.next_u64());
        assert!(pool.n_sets() <= 500);
        assert!(stats.capped);
    }

    #[test]
    fn degenerate_networks() {
        let mut rng = SmallRng::seed_from_u64(4);
        let empty = SocialNetwork::from_directed_edges(0, &[]);
        let (pool, stats) = Rpo::default().build_pool_seeded(&empty, rng.next_u64());
        assert_eq!(pool.n_sets(), 0);
        assert!(stats.test_passed);

        let single = SocialNetwork::from_directed_edges(1, &[]);
        let (pool, _) = Rpo::default().build_pool_seeded(&single, rng.next_u64());
        assert_eq!(pool.n_sets(), 1);
    }

    #[test]
    fn estimates_from_rpo_pool_track_ground_truth() {
        use crate::cascade::IndependentCascade;
        let net = sparse_net(64, 11);
        let mut rng = SmallRng::seed_from_u64(51);
        let (pool, _) = Rpo::new(RpoParams {
            epsilon: 0.1,
            o: 1.0,
            max_sets: 400_000,
            ..Default::default()
        })
        .build_pool_seeded(&net, rng.next_u64());

        let ic = IndependentCascade::new(&net);
        let mut rng2 = SmallRng::seed_from_u64(6);
        // Check a handful of workers' σ against forward Monte Carlo.
        for seed in [0u32, 5, 20, 40] {
            let truth = ic.estimate_spread(seed, 40_000, &mut rng2);
            let est = pool.sigma(seed);
            let tol = (0.15 * truth).max(0.4);
            assert!(
                (est - truth).abs() < tol,
                "σ({seed}): pool {est} vs forward {truth}"
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let net = sparse_net(64, 13);
        let seed = SmallRng::seed_from_u64(7).next_u64();
        let (a, sa) = Rpo::default().build_pool_seeded(&net, seed);
        let (b, sb) = Rpo::default().build_pool_seeded(&net, seed);
        assert_eq!(sa, sb);
        assert_eq!(a.n_sets(), b.n_sets());
    }
}
