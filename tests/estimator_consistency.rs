//! Cross-crate consistency of the statistical estimators: the RRR-pool
//! propagation estimates must agree with forward Independent-Cascade
//! simulation on realistic (generated) social networks, and the fitted
//! mobility models must reflect the generator's ground truth.

use dita::datagen::{generate_social_edges, DatasetProfile, SyntheticDataset};
use dita::influence::{IndependentCascade, Rpo, RpoParams, RrrPool, SocialNetwork};
use dita::mobility::WillingnessModel;
use dita::types::{Location, WorkerId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[test]
fn pool_sigma_tracks_forward_cascades_on_ba_graph() {
    let n = 300;
    let mut rng = SmallRng::seed_from_u64(1);
    let edges = generate_social_edges(n, 3, &mut rng);
    let net = SocialNetwork::from_undirected_edges(n, &edges);
    let pool = RrrPool::generate_sharded(&net, 120_000, rng.next_u64(), 2);

    let ic = IndependentCascade::new(&net);
    let mut rng2 = SmallRng::seed_from_u64(2);
    for seed in [0u32, 10, 50, 150, 299] {
        let truth = ic.estimate_spread(seed, 6_000, &mut rng2);
        let est = pool.sigma(seed);
        let tol = (0.12 * truth).max(0.5);
        assert!(
            (est - truth).abs() < tol,
            "σ({seed}): pool {est:.2} vs forward {truth:.2}"
        );
    }
}

#[test]
fn rpo_pool_estimates_pairwise_propagation() {
    let n = 150;
    let mut rng = SmallRng::seed_from_u64(3);
    let edges = generate_social_edges(n, 3, &mut rng);
    let net = SocialNetwork::from_undirected_edges(n, &edges);
    let (pool, stats) = Rpo::new(RpoParams {
        epsilon: 0.1,
        o: 1.0,
        max_sets: 300_000,
        ..Default::default()
    })
    .build_pool_seeded(&net, rng.next_u64());
    assert!(pool.n_sets() > 1_000, "RPO must sample a real pool");
    assert!(stats.sigma_lower_bound >= 1.0);

    // Spot-check pairs against forward simulation.
    let ic = IndependentCascade::new(&net);
    let mut rng2 = SmallRng::seed_from_u64(4);
    let hub = (0..n as u32)
        .max_by_key(|&v| net.graph().out_degree(v))
        .unwrap();
    let neighbour = net.informs(hub)[0];
    let truth = ic.estimate_pair_probability(hub, neighbour, 20_000, &mut rng2);
    let est = pool.propagation_probability(hub, neighbour);
    assert!(
        (est - truth).abs() < 0.1,
        "P_pro({hub}->{neighbour}): pool {est:.3} vs forward {truth:.3}"
    );
}

#[test]
fn willingness_is_a_probability_on_generated_histories() {
    let data = SyntheticDataset::generate(&DatasetProfile::foursquare_small(), 5);
    let model = WillingnessModel::fit(&data.histories);
    let targets = [
        Location::new(0.0, 0.0),
        Location::new(40.0, 40.0),
        Location::new(80.0, 0.0),
    ];
    for w in (0..data.profile.n_workers as u32).step_by(17) {
        for t in &targets {
            let p = model.willingness(WorkerId::new(w), t);
            assert!(
                (0.0..=1.0 + 1e-9).contains(&p),
                "P_wil(w{w}) = {p} out of range"
            );
        }
    }
}

#[test]
fn willingness_prefers_home_region_for_most_workers() {
    // The HA model (RWR × Pareto) must recover the generator's home-bias:
    // a worker's willingness towards their own last location should beat
    // their willingness towards the opposite corner of the world for a
    // clear majority of workers.
    let data = SyntheticDataset::generate(&DatasetProfile::brightkite_small(), 6);
    let model = WillingnessModel::fit(&data.histories);
    let world = data.profile.world_km;
    let mut wins = 0usize;
    let mut total = 0usize;
    for (worker, history) in data.histories.iter() {
        let Some(home) = history.last_location() else {
            continue;
        };
        let far = Location::new(world - home.x, world - home.y);
        if home.distance_km(&far) < world / 4.0 {
            continue; // home happens to sit near the centre: skip
        }
        total += 1;
        if model.willingness(worker, &home) > model.willingness(worker, &far) {
            wins += 1;
        }
    }
    assert!(total > 100, "need a meaningful sample, got {total}");
    assert!(
        wins as f64 / total as f64 > 0.9,
        "home-region preference too weak: {wins}/{total}"
    );
}

#[test]
fn movement_models_recover_generator_tail() {
    // The generator draws hops from a Pareto with the profile's shape;
    // the per-worker MLE should land in a plausible band around it for
    // the population median.
    let profile = DatasetProfile::brightkite_small();
    let data = SyntheticDataset::generate(&profile, 7);
    let mut shapes: Vec<f64> = data
        .histories
        .iter()
        .filter(|(_, h)| h.len() >= 10)
        .map(|(_, h)| dita::mobility::MovementModel::fit(h).shape())
        .collect();
    assert!(shapes.len() > 200);
    shapes.sort_by(f64::total_cmp);
    let median = shapes[shapes.len() / 2];
    // Venue-snapping and cluster roaming perturb the raw shape, so accept
    // a generous band around the generator's 1.3.
    assert!(
        (0.4..=4.0).contains(&median),
        "median fitted shape {median} lost the heavy tail entirely"
    );
}
