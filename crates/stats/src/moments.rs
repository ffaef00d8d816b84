//! Streaming means (Welford) for the experiment harness.

/// Numerically stable online mean accumulator.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineMoments {
    n: u64,
    mean: f64,
}

impl OnlineMoments {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineMoments { n: 0, mean: 0.0 }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
    }

    /// Number of observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_closed_form() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut acc = OnlineMoments::new();
        for &x in &xs {
            acc.push(x);
        }
        assert_eq!(acc.count(), 8);
        assert!((acc.mean() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_single() {
        let mut acc = OnlineMoments::new();
        assert_eq!(acc.mean(), 0.0);
        acc.push(3.5);
        assert_eq!(acc.mean(), 3.5);
    }
}
