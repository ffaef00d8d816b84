//! DITA configuration (paper defaults from Section V-A / Table II).

use sc_influence::{Parallelism, RpoParams};
use sc_topics::LdaParams;

/// Configuration of the online assignment engine's per-round pool
/// maintenance (the serving-mode knobs; the paper's batch protocol is
/// the frozen default).
///
/// Per round the engine advances the pool epoch, evicts at most
/// [`OnlineConfig::growth_cap`] sets older than
/// [`OnlineConfig::eviction_horizon`] rounds, and samples at most
/// [`OnlineConfig::growth_cap`] fresh sets back up to the target — so
/// maintenance work is bounded per round and no full retrain ever
/// happens after warm-up. All maintenance is deterministic in the
/// training master seed at any thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct OnlineConfig {
    /// Hours between assignment rounds (round length). The engine
    /// itself is cadence-agnostic (`run_round` takes the instant);
    /// drivers — the `dita online` CLI, day simulators — read this to
    /// schedule their round calls.
    pub round_hours: i64,
    /// Maximum RRR sets evicted *and* maximum sets sampled per round
    /// (the rotation quantum). `0` freezes the pool — no maintenance.
    pub growth_cap: usize,
    /// Rounds a set stays live before it becomes eviction-eligible.
    /// `0` disables eviction (the pool only grows, up to the target).
    pub eviction_horizon: u32,
    /// Live-set target the maintenance path holds the pool at.
    /// `0` means "the trained pool size".
    pub target_sets: usize,
    /// Score through the engine pipeline's persistent scorer cache,
    /// which carries entries from round to round. `false` clears the
    /// cache before every round, so each round scores cold: the
    /// reference the determinism suites compare the warm cache with.
    /// Both modes build eligibility from scratch every round. Reports
    /// are bit-identical either way; the flag trades wall time only.
    pub incremental: bool,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            round_hours: 1,
            growth_cap: 0,
            eviction_horizon: 0,
            target_sets: 0,
            incremental: true,
        }
    }
}

impl OnlineConfig {
    /// A streaming preset: hourly rounds, rotation quantum of 2048
    /// sets, 24-round eviction horizon, trained pool size as target,
    /// a persistent scorer cache.
    pub fn streaming() -> Self {
        OnlineConfig {
            round_hours: 1,
            growth_cap: 2_048,
            eviction_horizon: 24,
            target_sets: 0,
            incremental: true,
        }
    }

    /// Whether any per-round pool maintenance happens at all.
    pub fn maintains_pool(&self) -> bool {
        self.growth_cap > 0
    }
}

/// Configuration of the DITA training pipeline.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DitaConfig {
    /// Number of LDA topics `|Top|` (paper: 50).
    pub n_topics: usize,
    /// Gibbs sweeps for LDA training.
    pub lda_sweeps: usize,
    /// Gibbs sweeps for per-task fold-in inference.
    pub infer_sweeps: usize,
    /// RPO parameters (paper: ε = 0.1, o = 1).
    pub rpo: RpoParams,
    /// Online-mode pool maintenance (frozen by default; ignored by the
    /// batch sweep harness).
    pub online: OnlineConfig,
    /// Master seed; every random phase derives from it.
    pub seed: u64,
}

impl Default for DitaConfig {
    fn default() -> Self {
        DitaConfig {
            n_topics: 50,
            lda_sweeps: 60,
            infer_sweeps: 20,
            rpo: RpoParams {
                epsilon: 0.1,
                o: 1.0,
                max_sets: 400_000,
                threads: Parallelism::Auto,
            },
            online: OnlineConfig::default(),
            seed: 0xD17A,
        }
    }
}

impl DitaConfig {
    /// The LDA hyper-parameters implied by the config.
    pub fn lda_params(&self) -> LdaParams {
        LdaParams::with_topics(self.n_topics).sweeps(self.lda_sweeps)
    }

    /// The sampling thread budget (stored on the RPO parameters).
    /// Training results are bit-identical at any value.
    pub fn threads(&self) -> Parallelism {
        self.rpo.threads
    }

    /// Derives a phase-specific RNG seed from the master seed.
    pub fn phase_seed(&self, phase: &str) -> u64 {
        // FNV-1a over the phase name, mixed with the master seed.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in phase.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h ^ self.seed.rotate_left(17)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = DitaConfig::default();
        assert_eq!(c.n_topics, 50);
        assert!((c.rpo.epsilon - 0.1).abs() < 1e-12);
        assert!((c.rpo.o - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lda_params_propagate() {
        let c = DitaConfig {
            n_topics: 10,
            lda_sweeps: 5,
            ..Default::default()
        };
        let p = c.lda_params();
        assert_eq!(p.n_topics, 10);
        assert_eq!(p.sweeps, 5);
    }

    #[test]
    fn online_defaults_are_frozen() {
        let o = OnlineConfig::default();
        assert!(!o.maintains_pool());
        assert_eq!(o.round_hours, 1);
        assert_eq!(DitaConfig::default().online, o);
        assert!(OnlineConfig::streaming().maintains_pool());
        assert!(OnlineConfig::streaming().eviction_horizon > 0);
    }

    #[test]
    fn phase_seeds_differ_by_phase_and_master() {
        let a = DitaConfig::default();
        let b = DitaConfig {
            seed: 99,
            ..Default::default()
        };
        assert_ne!(a.phase_seed("lda"), a.phase_seed("rpo"));
        assert_ne!(a.phase_seed("lda"), b.phase_seed("lda"));
        assert_eq!(a.phase_seed("lda"), a.phase_seed("lda"));
    }
}
