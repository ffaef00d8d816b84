//! Property tests for the statistics substrate.

use proptest::prelude::*;
use sc_stats::{entropy_from_counts, power_iteration, AliasTable, OnlineMoments, Pareto, Zipf};

proptest! {
    #[test]
    fn pareto_cdf_is_monotone_and_bounded(
        shape in 0.1f64..8.0,
        xs in prop::collection::vec(1.0f64..1e6, 2..20),
    ) {
        let p = Pareto::unit_scale(shape);
        let mut sorted = xs.clone();
        sorted.sort_by(f64::total_cmp);
        for w in sorted.windows(2) {
            prop_assert!(p.cdf(w[0]) <= p.cdf(w[1]) + 1e-12);
        }
        for &x in &sorted {
            let c = p.cdf(x);
            prop_assert!((0.0..=1.0).contains(&c));
            prop_assert!((c + p.survival(x) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn pareto_mle_inverts_known_log_sum(
        logs in prop::collection::vec(0.01f64..3.0, 1..50)
    ) {
        // Build samples with exactly these logs; the MLE must return
        // n / Σ logs.
        let samples: Vec<f64> = logs.iter().map(|&l| l.exp()).collect();
        let fit = Pareto::mle_unit_scale(&samples).unwrap();
        let expect = samples.len() as f64 / logs.iter().sum::<f64>();
        prop_assert!((fit.shape() - expect).abs() < 1e-6 * expect.max(1.0));
    }

    #[test]
    fn entropy_bounded_by_log_support(counts in prop::collection::vec(0u32..1000, 1..30)) {
        let h = entropy_from_counts(&counts);
        let support = counts.iter().filter(|&&c| c > 0).count();
        prop_assert!(h >= -1e-12);
        if support > 0 {
            prop_assert!(h <= (support as f64).ln() + 1e-9);
        }
    }

    #[test]
    fn zipf_pmf_is_normalized_and_monotone(n in 1usize..60, s in 0.0f64..3.0) {
        let z = Zipf::new(n, s);
        let total: f64 = (1..=n).map(|k| z.pmf(k)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        for k in 1..n {
            prop_assert!(z.pmf(k) >= z.pmf(k + 1) - 1e-12);
        }
    }

    #[test]
    fn alias_table_only_emits_positive_weights(
        weights in prop::collection::vec(0.0f64..10.0, 1..20)
    ) {
        prop_assume!(weights.iter().any(|&w| w > 0.0));
        let table = AliasTable::new(&weights);
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..200 {
            let i = table.sample(&mut rng);
            prop_assert!(weights[i] > 0.0, "sampled zero-weight outcome {i}");
        }
    }

    #[test]
    fn online_moments_match_naive(xs in prop::collection::vec(-1e3f64..1e3, 1..60)) {
        let mut acc = OnlineMoments::new();
        for &x in &xs {
            acc.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        prop_assert!((acc.mean() - mean).abs() < 1e-6);
    }

    #[test]
    fn power_iteration_preserves_probability_mass(
        n in 1usize..8,
        raw in prop::collection::vec(0.0f64..1.0, 64),
        damping in 0.05f64..0.95,
    ) {
        // Build a random row-stochastic matrix (rows may be dangling).
        let mut m = vec![0.0; n * n];
        for i in 0..n {
            let row: Vec<f64> = (0..n).map(|j| raw[(i * n + j) % raw.len()]).collect();
            let sum: f64 = row.iter().sum();
            if sum > 0.1 {
                for j in 0..n {
                    m[i * n + j] = row[j] / sum;
                }
            } // else leave dangling
        }
        let restart = vec![1.0 / n as f64; n];
        let r = power_iteration(&m, n, &restart, damping, 1e-10, 20_000);
        let total: f64 = r.distribution.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-6, "mass {total}");
        prop_assert!(r.distribution.iter().all(|&x| x >= -1e-12));
        prop_assert!(r.converged);
    }
}
