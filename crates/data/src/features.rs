//! Class-conditioned node features.
//!
//! Each class gets a Gaussian centroid; nodes sample
//! `x = centroid(class) + σ·ε` with standard-normal `ε` (Box–Muller).
//! A per-block jitter keeps different communities of the same class
//! slightly apart, which is what real citation graphs look like and what
//! makes FedGTA's mixed moments informative *within* a class.

use fedgta_nn::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Feature-generation configuration.
#[derive(Debug, Clone)]
pub struct FeatureConfig {
    /// Feature dimension `f`.
    pub dim: usize,
    /// Distance scale between class centroids.
    pub class_sep: f32,
    /// Within-block jitter of the centroid (fraction of `class_sep`).
    pub block_jitter: f32,
    /// Per-node noise σ.
    pub noise: f32,
    /// Feature modes per class (≥1). Each node samples a mode
    /// *independently of its block*, so a federated client holding a few
    /// communities sees only a few labeled examples per mode — raising
    /// the sample complexity of purely local training the way real
    /// bag-of-words features do.
    pub modes_per_class: usize,
    /// Distance of mode centroids from the class centroid (fraction of
    /// `class_sep`).
    pub mode_spread: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FeatureConfig {
    fn default() -> Self {
        Self {
            dim: 16,
            class_sep: 1.0,
            block_jitter: 0.25,
            noise: 0.7,
            modes_per_class: 1,
            mode_spread: 0.7,
            seed: 0,
        }
    }
}

/// One standard-normal sample (Box–Muller; consumes two uniforms).
fn normal(rng: &mut StdRng) -> f32 {
    let u1: f32 = rng.random::<f32>().max(1e-12);
    let u2: f32 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// Generates features for nodes with the given class `labels` and
/// community `blocks`.
pub fn class_features(
    labels: &[u32],
    blocks: &[u32],
    num_classes: usize,
    cfg: &FeatureConfig,
) -> Matrix {
    assert_eq!(labels.len(), blocks.len());
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // Class centroids.
    let mut centroids = Matrix::zeros(num_classes, cfg.dim);
    for c in 0..num_classes {
        for j in 0..cfg.dim {
            centroids.set(c, j, cfg.class_sep * normal(&mut rng));
        }
    }
    // Mode offsets per (class, mode).
    let modes = cfg.modes_per_class.max(1);
    let mut mode_offsets = Matrix::zeros(num_classes * modes, cfg.dim);
    if modes > 1 {
        for r in 0..num_classes * modes {
            for j in 0..cfg.dim {
                mode_offsets.set(r, j, cfg.class_sep * cfg.mode_spread * normal(&mut rng));
            }
        }
    }
    // Block jitters (lazily keyed by max block id).
    let num_blocks = blocks.iter().map(|&b| b as usize + 1).max().unwrap_or(0);
    let mut jitters = Matrix::zeros(num_blocks, cfg.dim);
    for b in 0..num_blocks {
        for j in 0..cfg.dim {
            jitters.set(b, j, cfg.class_sep * cfg.block_jitter * normal(&mut rng));
        }
    }
    let mut x = Matrix::zeros(labels.len(), cfg.dim);
    for (i, (&c, &b)) in labels.iter().zip(blocks).enumerate() {
        let mode = if modes > 1 { rng.random_range(0..modes) } else { 0 };
        let mode_row = c as usize * modes + mode;
        for j in 0..cfg.dim {
            let v = centroids.get(c as usize, j)
                + mode_offsets.get(mode_row, j)
                + jitters.get(b as usize, j)
                + cfg.noise * normal(&mut rng);
            x.set(i, j, v);
        }
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_row(x: &Matrix, rows: &[usize]) -> Vec<f32> {
        let mut m = vec![0f32; x.cols()];
        for &r in rows {
            for (a, &b) in m.iter_mut().zip(x.row(r)) {
                *a += b;
            }
        }
        for a in &mut m {
            *a /= rows.len() as f32;
        }
        m
    }

    fn dist(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum::<f32>().sqrt()
    }

    #[test]
    fn classes_are_separated_in_feature_space() {
        let n = 400;
        let labels: Vec<u32> = (0..n).map(|i| (i % 2) as u32).collect();
        let blocks = labels.clone();
        let cfg = FeatureConfig { dim: 16, ..Default::default() };
        let x = class_features(&labels, &blocks, 2, &cfg);
        let c0: Vec<usize> = (0..n).filter(|i| i % 2 == 0).collect();
        let c1: Vec<usize> = (0..n).filter(|i| i % 2 == 1).collect();
        let m0 = mean_row(&x, &c0);
        let m1 = mean_row(&x, &c1);
        // Empirical class means separated well beyond the sampling noise.
        assert!(dist(&m0, &m1) > 1.0, "class means too close: {}", dist(&m0, &m1));
    }

    #[test]
    fn deterministic_per_seed() {
        let labels = vec![0u32, 1, 0, 1];
        let blocks = vec![0u32, 1, 0, 1];
        let cfg = FeatureConfig::default();
        let a = class_features(&labels, &blocks, 2, &cfg);
        let b = class_features(&labels, &blocks, 2, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn block_jitter_separates_same_class_blocks() {
        let n = 600;
        // One class, two blocks.
        let labels = vec![0u32; n];
        let blocks: Vec<u32> = (0..n).map(|i| (i % 2) as u32).collect();
        let cfg = FeatureConfig { dim: 16, block_jitter: 1.0, noise: 0.2, ..Default::default() };
        let x = class_features(&labels, &blocks, 1, &cfg);
        let b0: Vec<usize> = (0..n).filter(|i| i % 2 == 0).collect();
        let b1: Vec<usize> = (0..n).filter(|i| i % 2 == 1).collect();
        let d = dist(&mean_row(&x, &b0), &mean_row(&x, &b1));
        assert!(d > 0.5, "block means too close: {d}");
    }

    #[test]
    fn normal_samples_have_unit_scale() {
        let mut rng = StdRng::seed_from_u64(1);
        let xs: Vec<f32> = (0..5000).map(|_| normal(&mut rng)).collect();
        let mean: f32 = xs.iter().sum::<f32>() / xs.len() as f32;
        let var: f32 = xs.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / xs.len() as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
