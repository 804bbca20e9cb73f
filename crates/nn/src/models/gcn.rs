//! GCN (Kipf & Welling 2017): coupled message passing with the symmetric
//! normalization, `softmax(Â σ(Â X W₀) W₁)` for two layers (generalized to
//! `L` layers).
//!
//! Forward, backward and training are [`Coupled`]'s; GCN is the
//! convolution `lift(H) = Â·H`. Because `Â` is symmetric, the backward
//! propagation reuses the same matrix (`Âᵀ = Â`).
//! The first layer's `Â·X` reads no parameter: `prepare` computes it once
//! (SGC's propagation at `k = 1`) and a GCN client holds it in place of `X`.

use super::common::GraphDataset;
use super::coupled::{Conv, Coupled, LayerCache};
use super::precompute::PrecomputeKind;
use crate::mlp::Mlp;
use crate::ops::spmm_csr_into;
use crate::tensor::Matrix;
use crate::workspace::Workspace;

/// A full-batch GCN.
pub type Gcn = Coupled<GcnConv>;

/// `lift(H) = Â·H`; the penultimate representation is the propagated input
/// of the last linear layer, `Â·H_{L−1}`.
#[derive(Clone)]
pub struct GcnConv;

impl Conv for GcnConv {
    const FAN_IN: usize = 1;
    const RNG_SALT: u64 = 0xda94_2042_e4dd_58b5;
    const PREPARED: Option<(PrecomputeKind, usize)> = Some((PrecomputeKind::Sgc, 1));

    /// One Xavier stream through all layers — an MLP's initialization.
    fn init(widths: &[usize], seed: u64) -> Vec<f32> {
        Mlp::new(widths, 0.0, seed).params().to_vec()
    }

    fn lift(data: &GraphDataset, h: &Matrix, ws: &mut Workspace) -> Matrix {
        let mut p = ws.take_matrix(h.rows(), h.cols());
        spmm_csr_into(&data.adj_norm, h, &mut p);
        p
    }

    fn lower(
        data: &GraphDataset,
        mut dp: Matrix,
        hidden_grad: Option<&Matrix>,
        ws: &mut Workspace,
    ) -> Matrix {
        if let Some(hg) = hidden_grad {
            dp.axpy(1.0, hg);
        }
        // dH = Âᵀ dP = Â dP (symmetric normalization).
        let dx = Self::lift(data, &dp, ws);
        ws.give_matrix(dp);
        dx
    }

    fn penultimate<'a>(data: &'a GraphDataset, cache: &'a LayerCache) -> &'a Matrix {
        cache.input(data, cache.inputs.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::softmax_ce;
    use crate::metrics::accuracy;
    use crate::models::decoupled::tests::toy_dataset;
    use crate::models::{GraphModel, ModelConfig, ModelKind, TrainHooks};
    use crate::optim::Adam;

    fn cfg() -> ModelConfig {
        ModelConfig { kind: ModelKind::Gcn, hidden: 16, layers: 2, ..ModelConfig::default() }
    }

    #[test]
    fn gcn_learns_the_toy_task() {
        let raw = toy_dataset(10);
        let mut m = Gcn::new(&cfg(), raw.num_features(), 2);
        let data = m.prepare(raw);
        let mut opt = Adam::new(0.05, 0.0);
        for _ in 0..60 {
            m.train_epoch(&data, &mut opt, &mut TrainHooks::none());
        }
        let acc = accuracy(&m.predict(&data), &data.labels, &data.test_nodes);
        assert!(acc > 0.9, "acc = {acc}");
    }

    #[test]
    fn gcn_gradient_matches_finite_differences() {
        let raw = toy_dataset(11);
        let mut m = Gcn::new(&cfg(), raw.num_features(), 2);
        let data = m.prepare(raw);
        let (logits, cache) = m.forward(&data, false);
        let (_, d_logits) = softmax_ce(&logits, &data.labels, &data.train_nodes);
        let grads = m.backward(&data, &cache, &d_logits, None);
        let eps = 1e-2f32;
        let n = m.num_params();
        for idx in (0..n).step_by(n / 13 + 1) {
            let mut p = m.params();
            let orig = p[idx];
            p[idx] = orig + eps;
            m.set_params(&p);
            let (lp, _) = softmax_ce(&m.forward(&data, false).0, &data.labels, &data.train_nodes);
            p[idx] = orig - eps;
            m.set_params(&p);
            let (lm, _) = softmax_ce(&m.forward(&data, false).0, &data.labels, &data.train_nodes);
            p[idx] = orig;
            m.set_params(&p);
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - grads[idx]).abs() < 2e-2, "param {idx}: fd {fd} vs {}", grads[idx]);
        }
    }

    #[test]
    fn penultimate_shape_is_hidden_width() {
        let raw = toy_dataset(12);
        let mut m = Gcn::new(&cfg(), raw.num_features(), 2);
        let data = m.prepare(raw);
        let h = m.penultimate(&data);
        assert_eq!(h.shape(), (data.num_nodes(), 16));
    }

    #[test]
    #[should_panic(expected = "pass it through GraphModel::prepare")]
    fn an_unprepared_dataset_is_refused() {
        let data = toy_dataset(13);
        Gcn::new(&cfg(), data.num_features(), 2).predict(&data);
    }
}
