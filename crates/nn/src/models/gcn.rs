//! GCN (Kipf & Welling 2017): coupled message passing with the symmetric
//! normalization, `softmax(Â σ(Â X W₀) W₁)` for two layers (generalized to
//! `L` layers).
//!
//! Parameters live in an internal [`Mlp`] used purely as flat storage;
//! forward/backward interleave sparse propagation with the linear layers.
//! Because `Â` is symmetric, the backward propagation reuses the same
//! matrix (`Âᵀ = Â`).

use super::common::{GraphDataset, TrainHooks};
use super::GraphModel;
use crate::loss::{soft_ce, softmax_ce};
use crate::mlp::Mlp;
use crate::models::ModelConfig;
use crate::ops::{
    col_sums_into, matmul_bias_into, matmul_bias_relu_into, matmul_nt_into, matmul_tn_into,
    relu_backward_inplace, softmax_rows, spmm_csr_into,
};
use crate::optim::Optimizer;
use crate::tensor::Matrix;
use crate::workspace::Workspace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A full-batch GCN.
#[derive(Clone)]
pub struct Gcn {
    lin: Mlp,
    dropout: f32,
    rng: StdRng,
    /// Scratch arena for activations/gradients (empty after `clone()`).
    ws: Workspace,
}

struct GcnCache {
    /// Propagated input to each linear layer (`P_l = Â X_l`).
    propagated: Vec<Matrix>,
    /// Post-ReLU (and dropout) hidden outputs.
    hidden_out: Vec<Matrix>,
    /// Inverted-dropout masks for hidden layers.
    dropout_masks: Vec<Option<Vec<f32>>>,
}

impl GcnCache {
    /// Returns every cached buffer to the workspace for the next epoch.
    fn recycle(self, ws: &mut Workspace) {
        for m in self.propagated {
            ws.give_matrix(m);
        }
        for m in self.hidden_out {
            ws.give_matrix(m);
        }
        for m in self.dropout_masks.into_iter().flatten() {
            ws.give(m);
        }
    }
}

impl Gcn {
    /// Builds an `L`-layer GCN (`cfg.layers`, min 2 recommended).
    pub fn new(cfg: &ModelConfig, in_dim: usize, num_classes: usize) -> Self {
        let mut dims = vec![in_dim];
        for _ in 0..cfg.layers.saturating_sub(1) {
            dims.push(cfg.hidden);
        }
        dims.push(num_classes);
        Self {
            lin: Mlp::new(&dims, 0.0, cfg.seed),
            dropout: cfg.dropout,
            rng: StdRng::seed_from_u64(cfg.seed ^ 0xda94_2042_e4dd_58b5),
            ws: Workspace::new(),
        }
    }

    fn forward(&mut self, data: &GraphDataset, train: bool) -> (Matrix, GcnCache) {
        let layers = self.lin.num_layers();
        let n = data.num_nodes();
        let mut ws = std::mem::take(&mut self.ws);
        let mut propagated = Vec::with_capacity(layers);
        let mut hidden_out: Vec<Matrix> = Vec::with_capacity(layers - 1);
        let mut dropout_masks = Vec::with_capacity(layers - 1);
        let mut logits = None;
        for l in 0..layers {
            let src = if l == 0 { &data.features } else { &hidden_out[l - 1] };
            let mut p = ws.take_matrix(n, src.cols());
            spmm_csr_into(&data.adj_norm, src, &mut p);
            let w = self.lin.weight_view(l);
            let mut z = ws.take_matrix(n, w.cols());
            if l + 1 < layers {
                // Fused `relu(P·W + b)` epilogue; dropout rides on top.
                matmul_bias_relu_into(p.view(), w, self.lin.bias(l), z.as_mut_slice());
                let mask = if train && self.dropout > 0.0 {
                    let keep = 1.0 - self.dropout;
                    let inv = 1.0 / keep;
                    let mut mask = ws.take(z.rows() * z.cols());
                    for (m, v) in mask.iter_mut().zip(z.as_mut_slice()) {
                        if self.rng.random::<f32>() < keep {
                            *m = inv;
                            *v *= inv;
                        } else {
                            *v = 0.0;
                        }
                    }
                    Some(mask)
                } else {
                    None
                };
                dropout_masks.push(mask);
                hidden_out.push(z);
            } else {
                matmul_bias_into(p.view(), w, self.lin.bias(l), z.as_mut_slice());
                logits = Some(z);
            }
            propagated.push(p);
        }
        self.ws = ws;
        (
            logits.expect("≥1 layer"),
            GcnCache {
                propagated,
                hidden_out,
                dropout_masks,
            },
        )
    }

    fn backward(
        &mut self,
        data: &GraphDataset,
        cache: &GcnCache,
        d_logits: &Matrix,
        hidden_grad: Option<&Matrix>,
    ) -> Vec<f32> {
        let layers = self.lin.num_layers();
        let mut ws = std::mem::take(&mut self.ws);
        let mut grads = ws.take(self.lin.num_params());
        let mut d_out = ws.take_matrix(d_logits.rows(), d_logits.cols());
        d_out.copy_from(d_logits);
        for l in (0..layers).rev() {
            let p = &cache.propagated[l];
            let (ws_off, bs, be) = self.lin.layer_offsets(l);
            // dW/db land directly in the flat gradient buffer.
            matmul_tn_into(p.view(), d_out.view(), &mut grads[ws_off..bs]);
            col_sums_into(&d_out, &mut grads[bs..be]);
            if l == 0 {
                // The input of layer 0 is data: nothing consumes dP₀.
                break;
            }
            let w = self.lin.weight_view(l);
            let mut dp = ws.take_matrix(d_out.rows(), w.rows());
            matmul_nt_into(d_out.view(), w, dp.as_mut_slice());
            if l == layers - 1 {
                if let Some(hg) = hidden_grad {
                    dp.axpy(1.0, hg);
                }
            }
            // dX_l = Âᵀ dP = Â dP (symmetric normalization).
            let mut dx = ws.take_matrix(dp.rows(), dp.cols());
            spmm_csr_into(&data.adj_norm, &dp, &mut dx);
            ws.give_matrix(dp);
            if let Some(mask) = &cache.dropout_masks[l - 1] {
                for (g, &m) in dx.as_mut_slice().iter_mut().zip(mask) {
                    *g *= m;
                }
            }
            relu_backward_inplace(&mut dx, &cache.hidden_out[l - 1]);
            ws.give_matrix(std::mem::replace(&mut d_out, dx));
        }
        ws.give_matrix(d_out);
        self.ws = ws;
        grads
    }
}

impl GraphModel for Gcn {
    fn num_params(&self) -> usize {
        self.lin.num_params()
    }

    fn params(&self) -> Vec<f32> {
        self.lin.params().to_vec()
    }

    fn set_params(&mut self, p: &[f32]) {
        self.lin.set_params(p);
    }

    fn train_epoch(
        &mut self,
        data: &GraphDataset,
        opt: &mut dyn Optimizer,
        hooks: &mut TrainHooks<'_>,
    ) -> f32 {
        let (logits, cache) = self.forward(data, true);
        let (loss, mut d_logits) = softmax_ce(&logits, &data.labels, &data.train_nodes);
        if let Some(pl) = hooks.pseudo.as_ref() {
            let rows: Vec<u32> = (0..data.num_nodes() as u32)
                .filter(|&i| pl.mask[i as usize])
                .collect();
            if !rows.is_empty() {
                let (_, d_extra) = soft_ce(&logits, &pl.targets, &rows, pl.weight);
                d_logits.axpy(1.0, &d_extra);
            }
        }
        let all_nodes: Vec<u32> = (0..data.num_nodes() as u32).collect();
        let hidden_grad = hooks
            .hidden_hook
            .as_mut()
            .map(|h| h(&all_nodes, cache.propagated.last().expect("≥1 layer")));
        let mut grads = self.backward(data, &cache, &d_logits, hidden_grad.as_ref());
        if let Some(gh) = hooks.grad_hook.as_mut() {
            gh(self.lin.params(), &mut grads);
        }
        opt.step(self.lin.params_mut(), &grads);
        cache.recycle(&mut self.ws);
        self.ws.give_matrix(logits);
        self.ws.give_matrix(d_logits);
        self.ws.give(grads);
        loss
    }

    fn predict(&mut self, data: &GraphDataset) -> Matrix {
        let (logits, cache) = self.forward(data, false);
        let out = softmax_rows(&logits);
        cache.recycle(&mut self.ws);
        self.ws.give_matrix(logits);
        out
    }

    fn penultimate(&mut self, data: &GraphDataset) -> Matrix {
        let (logits, mut cache) = self.forward(data, false);
        let h = cache.propagated.pop().expect("≥1 layer");
        cache.recycle(&mut self.ws);
        self.ws.give_matrix(logits);
        h
    }

    fn clone_box(&self) -> Box<dyn GraphModel> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;
    use crate::models::decoupled::tests::toy_dataset;
    use crate::models::ModelKind;
    use crate::optim::Adam;

    fn cfg() -> ModelConfig {
        ModelConfig {
            kind: ModelKind::Gcn,
            hidden: 16,
            layers: 2,
            ..ModelConfig::default()
        }
    }

    #[test]
    fn gcn_learns_the_toy_task() {
        let data = toy_dataset(10);
        let mut m = Gcn::new(&cfg(), data.num_features(), 2);
        let mut opt = Adam::new(0.05, 0.0);
        for _ in 0..60 {
            m.train_epoch(&data, &mut opt, &mut TrainHooks::none());
        }
        let acc = accuracy(&m.predict(&data), &data.labels, &data.test_nodes);
        assert!(acc > 0.9, "acc = {acc}");
    }

    #[test]
    fn gcn_gradient_matches_finite_differences() {
        let data = toy_dataset(11);
        let mut m = Gcn::new(&cfg(), data.num_features(), 2);
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
            assert!(
                (fd - grads[idx]).abs() < 2e-2,
                "param {idx}: fd {fd} vs {}",
                grads[idx]
            );
        }
    }

    #[test]
    fn penultimate_shape_is_hidden_width() {
        let data = toy_dataset(12);
        let mut m = Gcn::new(&cfg(), data.num_features(), 2);
        let h = m.penultimate(&data);
        assert_eq!(h.shape(), (data.num_nodes(), 16));
    }
}
