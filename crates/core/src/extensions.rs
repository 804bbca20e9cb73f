//! Extensions the paper's conclusion names as future work, implemented and
//! benchmarked here (DESIGN.md §5):
//!
//! 1. **Adaptive aggregation** — instead of a fixed similarity threshold
//!    ε, pick it per round as a quantile of the observed pairwise
//!    similarities ([`adaptive_epsilon`]). The paper: "there is potential
//!    for exploring an adaptive aggregation mechanism".
//! 2. **Propagated-feature moments** — augment the label-moment sketch
//!    with moments of `k`-step propagated *node features*
//!    ([`feature_moment_sketch`]). The paper: "a promising avenue … is to
//!    leverage additional information provided by local models during
//!    training, such as k-layer propagated features".

use crate::moments::{mixed_moments, MomentKind};
use fedgta_graph::spmm::propagate_steps_into;
use fedgta_graph::Csr;
use fedgta_nn::Matrix;

/// Per-round ε selection from the observed similarity distribution.
///
/// Given the pairwise similarity matrix of the current participants,
/// returns the `quantile`-th value of the finite off-diagonal entries. A
/// quantile of `0.8` keeps roughly the top 20% most-similar pairs
/// connected, regardless of how concentrated the sketches are on this
/// dataset — removing the per-dataset ε grid search of the paper's §4.1.
///
/// A diverged client's NaN sketch yields NaN similarities; they are left
/// out of the quantile and already fail Eq. 6's `sim ≥ ε`.
pub fn adaptive_epsilon(similarity: &[Vec<f32>], quantile: f64) -> f32 {
    let n = similarity.len();
    let mut off: Vec<f32> = Vec::with_capacity(n * n.saturating_sub(1) / 2);
    for (i, row) in similarity.iter().enumerate() {
        off.extend(row[(i + 1).min(row.len())..].iter().filter(|s| s.is_finite()));
    }
    if off.is_empty() {
        return 1.0; // single client (or no finite pair): isolation is the only option
    }
    off.sort_unstable_by(f32::total_cmp);
    let q = quantile.clamp(0.0, 1.0);
    let idx = ((off.len() - 1) as f64 * q).round() as usize;
    off[idx]
}

/// Configuration for the propagated-feature moment extension.
#[derive(Debug, Clone)]
pub struct FeatureMomentConfig {
    /// How many leading feature dimensions to sketch (caps upload size;
    /// the sketch grows as `k · K · dims`).
    pub dims: usize,
    /// Relative weight of the feature sketch vs the label sketch when the
    /// two are concatenated for similarity computation.
    pub weight: f32,
}

impl Default for FeatureMomentConfig {
    fn default() -> Self {
        Self {
            dims: 16,
            weight: 0.5,
        }
    }
}

/// Computes the feature-moment sketch: `K`-order moments of the `k`-step
/// propagated features (leading `cfg.dims` columns), scaled by
/// `cfg.weight`, ready to concatenate after the label sketch.
pub fn feature_moment_sketch(
    adj_norm: &Csr,
    features: &Matrix,
    k: usize,
    order: usize,
    kind: MomentKind,
    cfg: &FeatureMomentConfig,
) -> Vec<f32> {
    let n = features.rows();
    let dims = cfg.dims.min(features.cols());
    // Slice the leading columns once, then propagate the smaller matrix.
    let mut sliced = Matrix::zeros(n, dims);
    for i in 0..n {
        sliced.row_mut(i).copy_from_slice(&features.row(i)[..dims]);
    }
    // The borrowing variant yields exactly the k propagated steps — hop 0
    // (raw features) is excluded by construction, mirroring the
    // label-moment convention without materializing and discarding it.
    let mut hops: Vec<Vec<f32>> = Vec::new();
    propagate_steps_into(adj_norm, sliced.as_slice(), dims, k, &mut hops)
        .expect("adjacency and features share node count");
    let steps: Vec<Matrix> = hops
        .into_iter()
        .map(|s| Matrix::from_vec(n, dims, s))
        .collect();
    let mut sketch = mixed_moments(&steps, order, kind);
    // Normalize scale: feature magnitudes differ from probability
    // magnitudes, so whiten by the sketch's own RMS before weighting.
    let rms = (sketch.iter().map(|v| (*v as f64).powi(2)).sum::<f64>()
        / sketch.len().max(1) as f64)
        .sqrt()
        .max(1e-12) as f32;
    for v in &mut sketch {
        *v = cfg.weight * *v / rms;
    }
    sketch
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedgta_graph::{normalized_adjacency, EdgeList, NormKind};

    fn setup() -> (Csr, Matrix) {
        let mut el = EdgeList::new(4);
        el.push_undirected(0, 1).unwrap();
        el.push_undirected(2, 3).unwrap();
        let adj = normalized_adjacency(&el.to_csr(), NormKind::Symmetric);
        let x = Matrix::from_rows(&[
            &[1.0, 0.0, 3.0],
            &[0.9, 0.1, 3.0],
            &[-1.0, 1.0, 3.0],
            &[-0.8, 0.9, 3.0],
        ]);
        (adj, x)
    }

    #[test]
    fn adaptive_epsilon_picks_quantiles() {
        let sim = vec![
            vec![1.0, 0.1, 0.5],
            vec![0.1, 1.0, 0.9],
            vec![0.5, 0.9, 1.0],
        ];
        // Off-diagonal = [0.1, 0.5, 0.9].
        assert_eq!(adaptive_epsilon(&sim, 0.0), 0.1);
        assert_eq!(adaptive_epsilon(&sim, 0.5), 0.5);
        assert_eq!(adaptive_epsilon(&sim, 1.0), 0.9);
    }

    #[test]
    fn adaptive_epsilon_single_client_isolates() {
        let sim = vec![vec![1.0]];
        assert_eq!(adaptive_epsilon(&sim, 0.5), 1.0);
    }

    #[test]
    fn feature_sketch_has_expected_length_and_scale() {
        let (adj, x) = setup();
        let cfg = FeatureMomentConfig {
            dims: 2,
            weight: 0.5,
        };
        let s = feature_moment_sketch(&adj, &x, 3, 2, MomentKind::Central, &cfg);
        assert_eq!(s.len(), 3 * 2 * 2);
        // RMS-whitened then weighted: RMS of the sketch ≈ weight.
        let rms = (s.iter().map(|v| (*v as f64).powi(2)).sum::<f64>() / s.len() as f64).sqrt();
        assert!((rms - 0.5).abs() < 1e-4, "rms {rms}");
    }

    #[test]
    fn feature_sketch_discriminates_different_subgraphs() {
        let (adj, x) = setup();
        let cfg = FeatureMomentConfig::default();
        let a = feature_moment_sketch(&adj, &x, 2, 2, MomentKind::Central, &cfg);
        let mut flipped = x.clone();
        flipped.scale(-1.0);
        let b = feature_moment_sketch(&adj, &flipped, 2, 2, MomentKind::Central, &cfg);
        assert_ne!(a, b);
    }

    #[test]
    fn dims_capped_at_feature_width() {
        let (adj, x) = setup();
        let cfg = FeatureMomentConfig {
            dims: 100,
            weight: 1.0,
        };
        let s = feature_moment_sketch(&adj, &x, 2, 1, MomentKind::Raw, &cfg);
        assert_eq!(s.len(), 2 * 3); // k=2 · K=1 · capped at 3 feature columns
    }
}
