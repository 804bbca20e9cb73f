//! GraphSAGE (Hamilton et al. 2017) with full-neighborhood mean
//! aggregation: each layer computes `σ([H ‖ Ā H] W + b)` where `Ā` is the
//! row-stochastic mean aggregator.
//!
//! The original trains with sampled neighborhoods; full-neighborhood mean
//! aggregation is the expectation of that estimator and is exact on the
//! small per-client subgraphs this reproduction trains on (substitution
//! recorded in DESIGN.md). Both `Ā` and the precomputed transpose `Āᵀ`
//! that backward through `Ā H` needs are borrowed from the dataset.
//!
//! Because each layer consumes the *doubled* width `[H ‖ ĀH]`, the layers
//! cannot share one chained [`Mlp`]; each layer owns a single-linear `Mlp`
//! used as flat parameter storage, and the model concatenates their
//! buffers for the federated flat-vector view.

use super::common::{GraphDataset, TrainHooks};
use super::GraphModel;
use crate::loss::{soft_ce, softmax_ce};
use crate::mlp::Mlp;
use crate::models::ModelConfig;
use crate::ops::{
    col_sums_into, matmul_bias_into, matmul_bias_relu_into, matmul_nt_into, matmul_tn_into,
    relu_backward_inplace, softmax_rows_inplace, spmm_csr,
};
use crate::optim::Optimizer;
use crate::tensor::{MatView, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A full-batch GraphSAGE-mean model (exact full-neighborhood mean).
#[derive(Clone)]
pub struct Sage {
    /// One single-linear Mlp per SAGE layer: `2·d_l × d_{l+1}`.
    lins: Vec<Mlp>,
    dropout: f32,
    rng: StdRng,
}

struct SageCache {
    /// Concatenated input `[H ‖ ĀH]` per layer.
    concat: Vec<Matrix>,
    hidden_out: Vec<Matrix>,
    dropout_masks: Vec<Option<Vec<f32>>>,
}

impl Sage {
    /// Builds an `L`-layer GraphSAGE (`cfg.layers`, min 1).
    pub fn new(cfg: &ModelConfig, in_dim: usize, num_classes: usize) -> Self {
        let layers = cfg.layers.max(1);
        let mut widths = vec![in_dim];
        for _ in 0..layers - 1 {
            widths.push(cfg.hidden);
        }
        widths.push(num_classes);
        let lins = (0..layers)
            .map(|l| Mlp::new(&[2 * widths[l], widths[l + 1]], 0.0, cfg.seed.wrapping_add(l as u64)))
            .collect();
        Self {
            lins,
            dropout: cfg.dropout,
            rng: StdRng::seed_from_u64(cfg.seed ^ 0x5851_f42d_4c95_7f2d),
        }
    }

    fn num_layers(&self) -> usize {
        self.lins.len()
    }

    fn weight(&self, l: usize) -> MatView<'_> {
        self.lins[l].weight_view(0)
    }

    fn bias(&self, l: usize) -> &[f32] {
        self.lins[l].bias(0)
    }

    /// Flat offset of layer `l` inside the concatenated parameter view.
    fn flat_offset(&self, l: usize) -> usize {
        self.lins[..l].iter().map(|m| m.num_params()).sum()
    }

    fn forward(&mut self, data: &GraphDataset, train: bool) -> (Matrix, SageCache) {
        let layers = self.num_layers();
        let mut concat = Vec::with_capacity(layers);
        let mut hidden_out = Vec::with_capacity(layers - 1);
        let mut dropout_masks = Vec::with_capacity(layers - 1);
        let mut cur = data.features.clone();
        for l in 0..layers {
            let agg = spmm_csr(&data.adj_mean, &cur);
            let cat = cur.hcat(&agg);
            let w = self.weight(l);
            let mut z = Matrix::zeros(cat.rows(), w.cols());
            if l + 1 < layers {
                matmul_bias_relu_into(cat.view(), w, self.bias(l), z.as_mut_slice());
                concat.push(cat);
                let mask = if train && self.dropout > 0.0 {
                    let keep = 1.0 - self.dropout;
                    let inv = 1.0 / keep;
                    let mut mask = vec![0f32; z.rows() * z.cols()];
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
                hidden_out.push(z.clone());
            } else {
                matmul_bias_into(cat.view(), w, self.bias(l), z.as_mut_slice());
                concat.push(cat);
            }
            cur = z;
        }
        (
            cur,
            SageCache {
                concat,
                hidden_out,
                dropout_masks,
            },
        )
    }

    fn backward(
        &self,
        data: &GraphDataset,
        cache: &SageCache,
        d_logits: &Matrix,
        hidden_grad: Option<&Matrix>,
    ) -> Vec<f32> {
        let layers = self.num_layers();
        let mut grads = vec![0f32; self.num_params()];
        let mut d_out = d_logits.clone();
        for l in (0..layers).rev() {
            let cat = &cache.concat[l];
            // dW/db land directly in the flat gradient buffer.
            let off = self.flat_offset(l);
            let (_, bs, be) = self.lins[l].layer_offsets(0);
            matmul_tn_into(cat.view(), d_out.view(), &mut grads[off..off + bs]);
            col_sums_into(&d_out, &mut grads[off + bs..off + be]);
            if l == 0 {
                break;
            }
            let w = self.weight(l);
            let mut dcat = Matrix::zeros(d_out.rows(), w.rows());
            matmul_nt_into(d_out.view(), w, dcat.as_mut_slice());
            let half = cat.cols() / 2;
            let (d_direct, d_agg) = dcat.hsplit(half);
            // dH = d_direct + Āᵀ d_agg.
            let mut dx = spmm_csr(&data.adj_mean_t, &d_agg);
            dx.axpy(1.0, &d_direct);
            if l == layers - 1 {
                if let Some(hg) = hidden_grad {
                    dx.axpy(1.0, hg);
                }
            }
            if let Some(mask) = &cache.dropout_masks[l - 1] {
                for (g, &m) in dx.as_mut_slice().iter_mut().zip(mask) {
                    *g *= m;
                }
            }
            relu_backward_inplace(&mut dx, &cache.hidden_out[l - 1]);
            d_out = dx;
        }
        grads
    }

    /// Hidden representation `H_{L-1}` entering the final layer.
    fn hidden_rep(&mut self, data: &GraphDataset) -> Matrix {
        let layers = self.num_layers();
        let mut cur = data.features.clone();
        for l in 0..layers - 1 {
            let agg = spmm_csr(&data.adj_mean, &cur);
            let cat = cur.hcat(&agg);
            let w = self.weight(l);
            let mut z = Matrix::zeros(cat.rows(), w.cols());
            matmul_bias_relu_into(cat.view(), w, self.bias(l), z.as_mut_slice());
            cur = z;
        }
        cur
    }
}

impl GraphModel for Sage {
    fn num_params(&self) -> usize {
        self.lins.iter().map(|m| m.num_params()).sum()
    }

    fn params(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        for m in &self.lins {
            out.extend_from_slice(m.params());
        }
        out
    }

    fn set_params(&mut self, p: &[f32]) {
        assert_eq!(p.len(), self.num_params(), "param length mismatch");
        let mut off = 0;
        for m in &mut self.lins {
            let n = m.num_params();
            m.set_params(&p[off..off + n]);
            off += n;
        }
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
        // MOON's anchor: the hidden representation entering the final layer.
        let hidden_grad = if let Some(h) = hooks.hidden_hook.as_mut() {
            let layers = self.lins.len();
            if layers >= 2 {
                let all: Vec<u32> = (0..data.num_nodes() as u32).collect();
                Some(h(&all, &cache.hidden_out[layers - 2]))
            } else {
                None
            }
        } else {
            None
        };
        let mut grads = self.backward(data, &cache, &d_logits, hidden_grad.as_ref());
        if let Some(gh) = hooks.grad_hook.as_mut() {
            let p = self.params();
            gh(&p, &mut grads);
        }
        // Step each layer's slice with one logical flat step.
        let mut flat = self.params();
        opt.step(&mut flat, &grads);
        self.set_params(&flat);
        loss
    }

    fn predict(&mut self, data: &GraphDataset) -> Matrix {
        let (mut logits, _) = self.forward(data, false);
        softmax_rows_inplace(&mut logits);
        logits
    }

    fn penultimate(&mut self, data: &GraphDataset) -> Matrix {
        self.hidden_rep(data)
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
            kind: ModelKind::Sage,
            hidden: 16,
            layers: 2,
            ..ModelConfig::default()
        }
    }

    #[test]
    fn weight_shapes_are_doubled_inputs() {
        let m = Sage::new(&cfg(), 4, 2);
        assert_eq!(m.weight(0).shape(), (8, 16));
        assert_eq!(m.weight(1).shape(), (32, 2));
        assert_eq!(m.num_params(), 8 * 16 + 16 + 32 * 2 + 2);
    }

    #[test]
    fn flat_params_roundtrip() {
        let mut m = Sage::new(&cfg(), 4, 2);
        let p: Vec<f32> = (0..m.num_params()).map(|i| i as f32 * 0.01).collect();
        m.set_params(&p);
        assert_eq!(m.params(), p);
    }

    #[test]
    fn sage_learns_the_toy_task() {
        let data = toy_dataset(20);
        let mut m = Sage::new(&cfg(), data.num_features(), 2);
        let mut opt = Adam::new(0.05, 0.0);
        for _ in 0..60 {
            m.train_epoch(&data, &mut opt, &mut TrainHooks::none());
        }
        let acc = accuracy(&m.predict(&data), &data.labels, &data.test_nodes);
        assert!(acc > 0.9, "acc = {acc}");
    }

    #[test]
    fn sage_gradient_matches_finite_differences() {
        let data = toy_dataset(21);
        let mut m = Sage::new(&cfg(), data.num_features(), 2);
        let (logits, cache) = m.forward(&data, false);
        let (_, d_logits) = softmax_ce(&logits, &data.labels, &data.train_nodes);
        let grads = m.backward(&data, &cache, &d_logits, None);
        let eps = 1e-2f32;
        let n = m.num_params();
        for idx in (0..n).step_by(n / 11 + 1) {
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
}
