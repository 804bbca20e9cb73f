//! Scratch for FedGTA's Algorithm-1 upload path, split by lifetime.
//!
//! **State that does not survive the round is not per-client.** The
//! intermediates of `FedGta::client_metrics` — the soft-label matrix `Ŷ⁰`,
//! the `k` label-propagation step matrices, the moment accumulator — are
//! dead once `(H, M)` is computed, so [`UploadScratch`] lives in a checkout
//! pool owned by the strategy: one instance per concurrently running
//! worker, sized by the largest client it has served, whatever the client
//! count. Every buffer is fully rewritten before it is read, so which
//! instance a worker draws cannot reach a result bit.
//!
//! What *is* per client is the round-invariant [`FeatureSketchCache`] of
//! the feature-moment extension: it is stowed in
//! [`fedgta_fed::client::Client::metric_scratch`] (as `Box<dyn Any + Send>`,
//! keeping `fedgta-fed` independent of this crate), and only when the
//! extension is configured.
//!
//! Either way warm metric computation performs **zero heap allocations** —
//! proven by the counting-allocator harness in the bench crate.

use crate::extensions::{feature_moment_sketch, FeatureMomentConfig};
use crate::moments::MomentKind;
use fedgta_graph::Csr;
use fedgta_nn::Matrix;

/// Cache for the propagated-feature moment sketch.
///
/// The feature sketch depends only on the client's graph, features, and
/// the (fixed) hyperparameters — never on the model — so it is computed
/// once per client and replayed on every later round. The key guards
/// against mid-run hyperparameter changes (e.g. two `FedGta` instances
/// sharing clients in tests). It holds the hyperparameters **alone**, so
/// a cache must stay with its client: in a pooled [`UploadScratch`] it
/// would replay one client's sketch for the next.
#[derive(Debug, Default)]
pub struct FeatureSketchCache {
    /// `(k, order, kind, dims, weight bits)` of the cached value.
    key: Option<(usize, usize, MomentKind, usize, u32)>,
    /// The cached whitened, weighted sketch.
    value: Vec<f32>,
}

impl FeatureSketchCache {
    /// Returns the cached sketch, computing it on the first call (or
    /// after a hyperparameter change). Warm hits are allocation-free.
    pub fn get_or_compute(
        &mut self,
        adj_norm: &Csr,
        features: &Matrix,
        k: usize,
        order: usize,
        kind: MomentKind,
        cfg: &FeatureMomentConfig,
    ) -> &[f32] {
        let key = (k, order, kind, cfg.dims, cfg.weight.to_bits());
        if self.key != Some(key) {
            self.value = feature_moment_sketch(adj_norm, features, k, order, kind, cfg);
            self.key = Some(key);
        }
        &self.value
    }
}

/// The intermediates of one Algorithm-1 metric computation.
#[derive(Debug, Default)]
pub struct UploadScratch {
    /// Softmax predictions `Ŷ⁰` (filled by `predict_into`).
    pub soft: Matrix,
    /// Label-propagation steps `[Ŷ¹, …, Ŷᵏ]`.
    pub steps: Vec<Matrix>,
    /// **Dead**: was the SpMM scratch of the LP recurrence, which now
    /// writes each step straight into `steps`. Always empty; kept only
    /// because the frozen `benchmark/` package passes it to
    /// [`label_propagation_into`](crate::lp::label_propagation_into)
    /// (ROADMAP item 4a records its removal).
    pub prop: Vec<f32>,
    /// Flat `order × |Y|` `f64` moment accumulator.
    pub acc: Vec<f64>,
    /// A buffer for the flattened upload sketch `M`, for callers that
    /// drive the stages by hand (`benchmark/`'s staged round).
    /// `FedGta::client_metrics` writes its caller's buffer instead.
    pub sketch: Vec<f32>,
}

impl UploadScratch {
    /// Heap bytes this instance retains (capacities, not current shapes);
    /// the `fedgta.metric_scratch.bytes` gauge sums it over the pool.
    #[doc(hidden)]
    pub fn bytes(&self) -> usize {
        let f32s = self.soft.capacity()
            + self.steps.iter().map(Matrix::capacity).sum::<usize>()
            + self.prop.capacity()
            + self.sketch.capacity();
        4 * f32s + 8 * self.acc.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedgta_graph::{normalized_adjacency, EdgeList, NormKind};

    #[test]
    fn feature_cache_hits_on_same_key_and_recomputes_on_change() {
        let mut el = EdgeList::new(4);
        el.push_undirected(0, 1).unwrap();
        el.push_undirected(2, 3).unwrap();
        let adj = normalized_adjacency(&el.to_csr(), NormKind::Symmetric);
        let x = Matrix::from_vec(4, 3, (0..12).map(|i| i as f32 * 0.3 - 1.0).collect());
        let cfg = FeatureMomentConfig { dims: 2, weight: 0.5 };
        let mut cache = FeatureSketchCache::default();
        let first = cache
            .get_or_compute(&adj, &x, 2, 2, MomentKind::Central, &cfg)
            .to_vec();
        let ptr = cache.value.as_ptr();
        // Warm hit: identical value, same buffer, no recompute.
        let again = cache.get_or_compute(&adj, &x, 2, 2, MomentKind::Central, &cfg);
        assert_eq!(again, &first[..]);
        assert_eq!(cache.value.as_ptr(), ptr);
        // Key change: recomputes with the new hyperparameters.
        let other = cache
            .get_or_compute(&adj, &x, 3, 2, MomentKind::Central, &cfg)
            .to_vec();
        assert_eq!(other.len(), 3 * 2 * 2);
        assert_ne!(other.len(), first.len());
    }
}
