//! Forward Independent Cascade simulation.
//!
//! The iterative IC process of Section III-C1: a seed worker knows the
//! task; in each round, every worker informed in the previous round gets
//! one chance to inform each uninformed out-neighbour `v`, succeeding
//! independently with probability `1/indeg(v)`. The process stops when no
//! new worker is informed.
//!
//! The forward simulator is the ground truth that the RRR-set estimators
//! are validated against (Lemma 2 equates the two probabilities).

use crate::network::SocialNetwork;
use rand::{Rng, RngExt};

/// Forward-simulation engine over a network.
#[derive(Debug, Clone, Copy)]
pub struct IndependentCascade<'a> {
    net: &'a SocialNetwork,
}

impl<'a> IndependentCascade<'a> {
    /// Creates a simulator.
    pub fn new(net: &'a SocialNetwork) -> Self {
        IndependentCascade { net }
    }

    /// Simulates one cascade from `seed`; returns the informed set
    /// (including the seed) as a boolean mask.
    pub fn simulate<R: Rng + ?Sized>(&self, seed: u32, rng: &mut R) -> Vec<bool> {
        let n = self.net.n_workers();
        let mut informed = vec![false; n];
        if (seed as usize) >= n {
            return informed;
        }
        informed[seed as usize] = true;
        let mut frontier = vec![seed];
        let mut next = Vec::new();
        while !frontier.is_empty() {
            next.clear();
            for &u in &frontier {
                for &v in self.net.informs(u) {
                    if !informed[v as usize] && rng.random_bool(self.net.inform_probability(v)) {
                        informed[v as usize] = true;
                        next.push(v);
                    }
                }
            }
            std::mem::swap(&mut frontier, &mut next);
        }
        informed
    }

    /// Monte-Carlo estimate of the expected spread `σ(seed)` (number of
    /// informed workers including the seed) over `trials` cascades.
    pub fn estimate_spread<R: Rng + ?Sized>(&self, seed: u32, trials: usize, rng: &mut R) -> f64 {
        let mut total = 0usize;
        for _ in 0..trials {
            total += self.simulate(seed, rng).iter().filter(|&&b| b).count();
        }
        total as f64 / trials.max(1) as f64
    }

    /// Monte-Carlo estimate of `P_pro(seed, target)`: the fraction of
    /// cascades from `seed` that inform `target`.
    pub fn estimate_pair_probability<R: Rng + ?Sized>(
        &self,
        seed: u32,
        target: u32,
        trials: usize,
        rng: &mut R,
    ) -> f64 {
        let mut hits = 0usize;
        for _ in 0..trials {
            if self.simulate(seed, rng)[target as usize] {
                hits += 1;
            }
        }
        hits as f64 / trials.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn seed_is_always_informed() {
        let net = SocialNetwork::from_directed_edges(3, &[(0, 1), (1, 2)]);
        let ic = IndependentCascade::new(&net);
        let mut rng = SmallRng::seed_from_u64(0);
        for _ in 0..10 {
            assert!(ic.simulate(0, &mut rng)[0]);
        }
    }

    #[test]
    fn chain_with_unit_probability_informs_everyone() {
        // Each node has in-degree 1 → probability 1 → deterministic chain.
        let net = SocialNetwork::from_directed_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let ic = IndependentCascade::new(&net);
        let mut rng = SmallRng::seed_from_u64(1);
        let informed = ic.simulate(0, &mut rng);
        assert!(informed.iter().all(|&b| b));
        assert!((ic.estimate_spread(0, 50, &mut rng) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn isolated_seed_spreads_nowhere() {
        let net = SocialNetwork::from_directed_edges(3, &[(1, 2)]);
        let ic = IndependentCascade::new(&net);
        let mut rng = SmallRng::seed_from_u64(2);
        let informed = ic.simulate(0, &mut rng);
        assert_eq!(informed, vec![true, false, false]);
    }

    #[test]
    fn direction_matters() {
        let net = SocialNetwork::from_directed_edges(2, &[(0, 1)]);
        let ic = IndependentCascade::new(&net);
        let mut rng = SmallRng::seed_from_u64(3);
        // 1 cannot inform 0 against the edge direction.
        let informed = ic.simulate(1, &mut rng);
        assert_eq!(informed, vec![false, true]);
    }

    #[test]
    fn pair_probability_matches_structure() {
        // v=2 has in-degree 2, so each attempt succeeds with prob 1/2.
        // From seed 0 (edge 0->2 plus path via 1 with indeg(1)=1):
        // 0 informs 1 w.p. 1; both 0 and 1 try to inform 2, each w.p. 1/2;
        // P(2 informed) = 1 - (1/2)^2 = 3/4.
        let net = SocialNetwork::from_directed_edges(3, &[(0, 1), (0, 2), (1, 2)]);
        let ic = IndependentCascade::new(&net);
        let mut rng = SmallRng::seed_from_u64(4);
        let p = ic.estimate_pair_probability(0, 2, 40_000, &mut rng);
        assert!((p - 0.75).abs() < 0.01, "estimated {p}");
    }

    #[test]
    fn spread_is_bounded_by_reachability() {
        // Seed 0 can only ever reach {0, 1}.
        let net = SocialNetwork::from_directed_edges(4, &[(0, 1), (2, 3)]);
        let ic = IndependentCascade::new(&net);
        let mut rng = SmallRng::seed_from_u64(5);
        let spread = ic.estimate_spread(0, 2_000, &mut rng);
        assert!(spread <= 2.0 + 1e-9);
        assert!(spread >= 1.0);
    }

    #[test]
    fn out_of_range_seed_is_empty() {
        let net = SocialNetwork::from_directed_edges(2, &[(0, 1)]);
        let ic = IndependentCascade::new(&net);
        let mut rng = SmallRng::seed_from_u64(6);
        assert!(ic.simulate(9, &mut rng).iter().all(|&b| !b));
    }
}
