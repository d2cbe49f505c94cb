//! The three classic skyline benchmark distributions (Börzsönyi, Kossmann,
//! Stocker — ICDE 2001), used by the ablation benches and property tests.
//!
//! * **Independent** — uniform on `[0, 1]^d`; skyline ~ `Θ(ln^{d−1} n / (d−1)!)`.
//! * **Correlated** — attributes track a shared latent level; tiny skylines
//!   (one good point dominates almost everything).
//! * **Anti-correlated** — points near the simplex `Σ v_i ≈ c`; being good
//!   on one attribute means being bad on another, so skylines are huge.
//!   This is the adversarial case for partitioned skyline processing.

use crate::dataset::Dataset;
use crate::rng::standard_normal;
use rand::{rngs::StdRng, Rng, SeedableRng};
use skyline_algos::point::Point;

/// The benchmark distribution families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distribution {
    /// Uniform independent coordinates.
    Independent,
    /// Positively correlated coordinates.
    Correlated,
    /// Anti-correlated coordinates (near-constant coordinate sum).
    AntiCorrelated,
}

impl Distribution {
    /// Short name for dataset labels.
    pub fn name(self) -> &'static str {
        match self {
            Distribution::Independent => "indep",
            Distribution::Correlated => "corr",
            Distribution::AntiCorrelated => "anti",
        }
    }
}

/// Configuration for [`generate_synthetic`].
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticConfig {
    /// Number of points.
    pub cardinality: usize,
    /// Dimensionality.
    pub dimensions: usize,
    /// Distribution family.
    pub distribution: Distribution,
    /// RNG seed.
    pub seed: u64,
}

impl SyntheticConfig {
    /// Convenience constructor.
    pub fn new(cardinality: usize, dimensions: usize, distribution: Distribution) -> Self {
        Self {
            cardinality,
            dimensions,
            distribution,
            seed: 42,
        }
    }

    /// Builder: sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Generates a dataset on `[0, 1]^d` from the configured family.
///
/// # Panics
///
/// Panics if cardinality or dimensions is zero.
pub fn generate_synthetic(cfg: &SyntheticConfig) -> Dataset {
    assert!(cfg.cardinality >= 1, "cardinality must be positive");
    assert!(cfg.dimensions >= 1, "dimensions must be positive");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let d = cfg.dimensions;
    let mut points = Vec::with_capacity(cfg.cardinality);
    for id in 0..cfg.cardinality {
        let coords: Vec<f64> = match cfg.distribution {
            Distribution::Independent => (0..d).map(|_| rng.gen_range(0.0..1.0)).collect(),
            Distribution::Correlated => {
                // shared level + small independent jitter, clamped to [0,1]
                let level: f64 = rng.gen_range(0.0..1.0);
                (0..d)
                    .map(|_| (level + 0.1 * standard_normal(&mut rng)).clamp(0.0, 1.0))
                    .collect()
            }
            Distribution::AntiCorrelated => {
                // coordinate total concentrated around d/2, spread across
                // dimensions by random (exponential) proportions
                let total = (d as f64 / 2.0 + 0.05 * d as f64 * standard_normal(&mut rng)).max(0.0);
                let weights: Vec<f64> = (0..d).map(|_| -f64::ln(1.0 - rng.gen::<f64>())).collect();
                let wsum: f64 = weights.iter().sum();
                weights
                    .iter()
                    .map(|w| (total * w / wsum).clamp(0.0, 1.0))
                    .collect()
            }
        };
        points.push(Point::new(id as u64, coords));
    }
    Dataset::new(
        format!(
            "{}(n={},d={},seed={})",
            cfg.distribution.name(),
            cfg.cardinality,
            d,
            cfg.seed
        ),
        points,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyline_algos::prelude::*;

    fn skyline_size(dist: Distribution, n: usize, d: usize) -> usize {
        let ds = generate_synthetic(&SyntheticConfig::new(n, d, dist));
        naive_skyline_ids(ds.points()).len()
    }

    #[test]
    fn shapes_and_determinism() {
        let cfg = SyntheticConfig::new(100, 3, Distribution::Independent).with_seed(5);
        let a = generate_synthetic(&cfg);
        let b = generate_synthetic(&cfg);
        assert_eq!(a.len(), 100);
        assert_eq!(a.dim(), 3);
        assert_eq!(a.points()[7].coords(), b.points()[7].coords());
    }

    #[test]
    fn coordinates_in_unit_box() {
        for dist in [
            Distribution::Independent,
            Distribution::Correlated,
            Distribution::AntiCorrelated,
        ] {
            let ds = generate_synthetic(&SyntheticConfig::new(500, 4, dist));
            for p in ds.points() {
                assert!(
                    p.coords().iter().all(|&v| (0.0..=1.0).contains(&v)),
                    "{dist:?}"
                );
            }
        }
    }

    #[test]
    fn skyline_size_ordering_matches_theory() {
        // anti-correlated ≫ independent ≫ correlated
        let anti = skyline_size(Distribution::AntiCorrelated, 3000, 3);
        let indep = skyline_size(Distribution::Independent, 3000, 3);
        let corr = skyline_size(Distribution::Correlated, 3000, 3);
        assert!(
            anti > indep && indep > corr,
            "anti={anti} indep={indep} corr={corr}"
        );
        assert!(corr < 50, "correlated skyline should be tiny, got {corr}");
    }

    #[test]
    fn anti_correlation_is_negative() {
        let ds = generate_synthetic(&SyntheticConfig::new(
            20_000,
            2,
            Distribution::AntiCorrelated,
        ));
        let xs: Vec<f64> = ds.points().iter().map(|p| p.coord(0)).collect();
        let ys: Vec<f64> = ds.points().iter().map(|p| p.coord(1)).collect();
        let n = xs.len() as f64;
        let mx = xs.iter().sum::<f64>() / n;
        let my = ys.iter().sum::<f64>() / n;
        let cov = xs
            .iter()
            .zip(&ys)
            .map(|(x, y)| (x - mx) * (y - my))
            .sum::<f64>()
            / n;
        assert!(cov < -0.005, "covariance {cov} should be negative");
    }

    #[test]
    fn names_encode_provenance() {
        let ds = generate_synthetic(&SyntheticConfig::new(10, 2, Distribution::Correlated));
        assert!(ds.name.starts_with("corr(n=10,d=2"));
    }
}
