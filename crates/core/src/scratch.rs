//! Scratch for FedGTA's Algorithm-1 upload path.
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
//! The one value that outlives a call, the feature-moment extension's
//! round-invariant sketch, is not scratch: the strategy keeps it by client
//! id ([`crate::strategy::TopologyAware`]), and only when the extension is
//! configured.
//!
//! Warm metric computation performs **zero heap allocations** — proven by
//! the counting-allocator harness in the bench crate.

use fedgta_nn::Matrix;

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
