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
//! Forward, backward and training are [`Coupled`]'s; GraphSAGE is the
//! convolution `lift(H) = [H ‖ Ā·H]`, so each layer's weight block is
//! `2·d_l × d_{l+1}`.

use super::common::GraphDataset;
use super::coupled::{Conv, Coupled, LayerCache};
use crate::mlp::Mlp;
use crate::ops::spmm_csr_into;
use crate::tensor::Matrix;
use crate::workspace::Workspace;

/// A full-batch GraphSAGE-mean model (exact full-neighborhood mean).
pub type Sage = Coupled<SageConv>;

/// `lift(H) = [H ‖ Ā·H]`; the penultimate representation is the hidden
/// state entering the last layer, `H_{L−1}` (the features when `L = 1`).
#[derive(Clone)]
pub struct SageConv;

impl Conv for SageConv {
    const FAN_IN: usize = 2;
    const RNG_SALT: u64 = 0x5851_f42d_4c95_7f2d;

    /// One Xavier stream per layer, seeded `seed + l`.
    fn init(widths: &[usize], seed: u64) -> Vec<f32> {
        let layer = |(l, w): (usize, &[usize])| {
            Mlp::new(&[2 * w[0], w[1]], 0.0, seed.wrapping_add(l as u64)).params().to_vec()
        };
        widths.windows(2).enumerate().flat_map(layer).collect()
    }

    fn lift(data: &GraphDataset, h: &Matrix, ws: &mut Workspace) -> Matrix {
        let mut agg = ws.take_matrix(h.rows(), h.cols());
        spmm_csr_into(&data.adj_mean, h, &mut agg);
        let mut cat = ws.take_matrix(h.rows(), 2 * h.cols());
        h.hcat_into(&agg, &mut cat);
        ws.give_matrix(agg);
        cat
    }

    fn lower(
        data: &GraphDataset,
        dcat: Matrix,
        hidden_grad: Option<&Matrix>,
        ws: &mut Workspace,
    ) -> Matrix {
        let (n, half) = (dcat.rows(), dcat.cols() / 2);
        let mut d_direct = ws.take_matrix(n, half);
        let mut d_agg = ws.take_matrix(n, half);
        dcat.hsplit_into(&mut d_direct, &mut d_agg);
        // dH = d_direct + Āᵀ d_agg.
        let mut dx = ws.take_matrix(n, half);
        spmm_csr_into(&data.adj_mean_t, &d_agg, &mut dx);
        dx.axpy(1.0, &d_direct);
        if let Some(hg) = hidden_grad {
            dx.axpy(1.0, hg);
        }
        for m in [dcat, d_direct, d_agg] {
            ws.give_matrix(m);
        }
        dx
    }

    fn penultimate<'a>(data: &'a GraphDataset, cache: &'a LayerCache) -> &'a Matrix {
        cache.hidden_out.last().unwrap_or(&data.features)
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
