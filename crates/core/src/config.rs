//! FedGTA hyperparameters.

use crate::moments::MomentKind;
use crate::similarity::SimilarityKind;

/// FedGTA configuration (paper §3.1 defaults; §4.1 search ranges).
#[derive(Debug, Clone)]
pub struct FedGtaConfig {
    /// Label-propagation steps `k` (paper default 5).
    pub k_lp: usize,
    /// PageRank restart α (paper default 1/2).
    pub alpha: f32,
    /// Moment order `K` (paper searches 2–20).
    pub moment_order: usize,
    /// Central vs raw moments (Eq. 5 presents central "as an example").
    pub moment_kind: MomentKind,
    /// Similarity threshold ε ∈ [0, 1] (paper searches 0–1).
    pub epsilon: f32,
    /// Similarity metric (Eq. 6 notes cosine is replaceable).
    pub similarity: SimilarityKind,
    /// Adaptive aggregation (paper §5 future work): when `Some(q)`, the
    /// threshold is re-derived every round as the `q`-quantile of the
    /// observed pairwise similarities, overriding `epsilon`.
    pub epsilon_quantile: Option<f64>,
    /// Ablation: use moment-based client selection ("w/o Mom." when
    /// false — every participant aggregates with every other).
    pub use_moments: bool,
    /// Ablation: weight members by smoothing confidence ("w/o Conf." when
    /// false — weights fall back to training-set sizes, as FedAvg).
    pub use_confidence: bool,
}

impl Default for FedGtaConfig {
    fn default() -> Self {
        Self {
            k_lp: 5,
            alpha: 0.5,
            moment_order: 3,
            moment_kind: MomentKind::Central,
            epsilon: 0.5,
            epsilon_quantile: None,
            similarity: SimilarityKind::Cosine,
            use_moments: true,
            use_confidence: true,
        }
    }
}

impl FedGtaConfig {
    /// The "w/o Mom." ablation row of Table 6.
    pub fn without_moments() -> Self {
        Self { use_moments: false, ..Self::default() }
    }

    /// The "w/o Conf." ablation row of Table 6.
    pub fn without_confidence() -> Self {
        Self { use_confidence: false, ..Self::default() }
    }

    /// The adaptive-aggregation extension (DESIGN.md §5): per-round ε from
    /// the `q`-quantile of observed similarities.
    pub fn adaptive(q: f64) -> Self {
        Self { epsilon_quantile: Some(q), ..Self::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = FedGtaConfig::default();
        assert_eq!(c.k_lp, 5);
        assert_eq!(c.alpha, 0.5);
        assert!(c.use_moments && c.use_confidence);
    }

    #[test]
    fn ablation_constructors() {
        assert!(!FedGtaConfig::without_moments().use_moments);
        assert!(FedGtaConfig::without_moments().use_confidence);
        assert!(!FedGtaConfig::without_confidence().use_confidence);
    }
}
