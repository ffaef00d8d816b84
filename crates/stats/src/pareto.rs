//! The Pareto distribution and its MLE.
//!
//! Section III-B2 of the paper models a worker's displacement between
//! consecutive performed tasks with a Pareto density
//! `f(x; π, ω) = π ωᵖ / x^{π+1}` for `x ≥ ω`, chosen because worker
//! movements are self-similar. The scale is fixed to `ω = 1` by shifting
//! displacements by +1 km, and the shape `π` is fitted by maximum
//! likelihood (paper Eq. 1):
//!
//! `π = (n) / Σ ln xᵢ` over the `n = |S_w| − 1` displacement samples.

/// A Pareto(π, ω) distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    shape: f64,
    scale: f64,
}

/// Default shape used when a worker has too little history to fit one.
/// A moderately heavy tail: P(X > d+1) = (d+1)^{-1.5}.
pub const DEFAULT_SHAPE: f64 = 1.5;

impl Pareto {
    /// Creates a Pareto distribution; panics on non-positive parameters.
    pub fn new(shape: f64, scale: f64) -> Self {
        assert!(shape > 0.0 && shape.is_finite(), "shape must be positive");
        assert!(scale > 0.0 && scale.is_finite(), "scale must be positive");
        Pareto { shape, scale }
    }

    /// The unit-scale distribution the willingness model uses (`ω = 1`).
    pub fn unit_scale(shape: f64) -> Self {
        Pareto::new(shape, 1.0)
    }

    /// Shape parameter `π`.
    #[inline]
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// Scale parameter `ω` (minimum support value).
    #[inline]
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Cumulative distribution `F(x) = 1 − (ω/x)ᵖ`.
    pub fn cdf(&self, x: f64) -> f64 {
        if x < self.scale {
            0.0
        } else {
            1.0 - (self.scale / x).powf(self.shape)
        }
    }

    /// Survival function `P(X > x) = (ω/x)ᵖ` — the integral
    /// `∫ₓ^∞ f(u) du` that appears in the willingness equation (Eq. 2).
    pub fn survival(&self, x: f64) -> f64 {
        if x <= self.scale {
            1.0
        } else {
            (self.scale / x).powf(self.shape)
        }
    }

    /// Mean, when it exists (`π > 1`), else `None`.
    pub fn mean(&self) -> Option<f64> {
        (self.shape > 1.0).then(|| self.shape * self.scale / (self.shape - 1.0))
    }

    /// Inverse-CDF sampling from a uniform `u ∈ [0, 1)`.
    pub fn inv_cdf(&self, u: f64) -> f64 {
        debug_assert!((0.0..1.0).contains(&u));
        self.scale / (1.0 - u).powf(1.0 / self.shape)
    }

    /// Samples one value using the supplied RNG stream value.
    pub fn sample<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        use rand::RngExt;
        self.inv_cdf(rng.random::<f64>())
    }

    /// Maximum-likelihood estimate of the shape for unit-scale samples
    /// `xᵢ ≥ 1` (paper Eq. 1): `π̂ = n / Σ ln xᵢ`.
    ///
    /// Returns `None` when the estimate is undefined: no samples, any
    /// sample below 1, or `Σ ln xᵢ = 0` (all samples exactly 1 — the paper
    /// explicitly requires `Σ ln xᵢ ≠ 0`).
    pub fn mle_unit_scale(samples: &[f64]) -> Option<Pareto> {
        if samples.is_empty() {
            return None;
        }
        let mut log_sum = 0.0;
        for &x in samples {
            if x < 1.0 || !x.is_finite() {
                return None;
            }
            log_sum += x.ln();
        }
        if log_sum <= 0.0 {
            return None;
        }
        Some(Pareto::unit_scale(samples.len() as f64 / log_sum))
    }

    /// Fits the willingness-model shape from raw displacement distances in
    /// km (paper: `xᵢ = d(sᵢ, sᵢ₊₁) + 1`, `ω = 1`). Falls back to
    /// [`DEFAULT_SHAPE`] when the MLE is undefined (e.g. a worker who only
    /// ever revisits the same venue).
    pub fn fit_displacements(displacements_km: &[f64]) -> Pareto {
        let shifted: Vec<f64> = displacements_km.iter().map(|d| d.max(0.0) + 1.0).collect();
        Pareto::mle_unit_scale(&shifted).unwrap_or(Pareto::unit_scale(DEFAULT_SHAPE))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn cdf_and_survival_are_complements() {
        let p = Pareto::new(1.7, 2.0);
        for x in [2.0, 2.5, 5.0, 100.0] {
            assert!((p.cdf(x) + p.survival(x) - 1.0).abs() < 1e-12);
        }
        assert_eq!(p.cdf(1.0), 0.0);
        assert_eq!(p.survival(1.0), 1.0);
    }

    #[test]
    fn survival_matches_willingness_closed_form() {
        // Eq. 2 uses (d + 1)^{-π} with ω = 1.
        let p = Pareto::unit_scale(2.5);
        let d: f64 = 3.0;
        assert!((p.survival(d + 1.0) - (d + 1.0).powf(-2.5)).abs() < 1e-12);
    }

    #[test]
    fn mean_exists_only_above_one() {
        assert_eq!(Pareto::unit_scale(0.9).mean(), None);
        let m = Pareto::unit_scale(3.0).mean().unwrap();
        assert!((m - 1.5).abs() < 1e-12);
    }

    #[test]
    fn mle_recovers_shape_from_samples() {
        let truth = Pareto::unit_scale(2.2);
        let mut rng = SmallRng::seed_from_u64(7);
        let samples: Vec<f64> = (0..20_000).map(|_| truth.sample(&mut rng)).collect();
        let fit = Pareto::mle_unit_scale(&samples).unwrap();
        assert!(
            (fit.shape() - 2.2).abs() < 0.08,
            "fitted {} vs 2.2",
            fit.shape()
        );
    }

    #[test]
    fn mle_rejects_degenerate_input() {
        assert!(Pareto::mle_unit_scale(&[]).is_none());
        assert!(Pareto::mle_unit_scale(&[1.0, 1.0]).is_none(), "Σ ln x = 0");
        assert!(Pareto::mle_unit_scale(&[0.5, 2.0]).is_none(), "sample < ω");
        assert!(Pareto::mle_unit_scale(&[f64::NAN]).is_none());
    }

    #[test]
    fn fit_displacements_shifts_by_one() {
        // displacements e-1 give ln(x)=1 each, so shape = n/n = 1.
        let e = std::f64::consts::E;
        let fit = Pareto::fit_displacements(&[e - 1.0, e - 1.0, e - 1.0]);
        assert!((fit.shape() - 1.0).abs() < 1e-12);
        assert_eq!(fit.scale(), 1.0);
    }

    #[test]
    fn fit_displacements_falls_back_on_stationary_worker() {
        let fit = Pareto::fit_displacements(&[0.0, 0.0]);
        assert_eq!(fit.shape(), DEFAULT_SHAPE);
        let empty = Pareto::fit_displacements(&[]);
        assert_eq!(empty.shape(), DEFAULT_SHAPE);
    }

    #[test]
    fn sampling_respects_support() {
        let p = Pareto::new(1.2, 3.0);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..1_000 {
            assert!(p.sample(&mut rng) >= 3.0);
        }
    }

    #[test]
    fn inv_cdf_is_cdf_inverse() {
        let p = Pareto::unit_scale(1.8);
        for u in [0.0, 0.1, 0.5, 0.9, 0.999] {
            let x = p.inv_cdf(u);
            assert!((p.cdf(x) - u).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "shape must be positive")]
    fn zero_shape_panics() {
        let _ = Pareto::unit_scale(0.0);
    }
}
