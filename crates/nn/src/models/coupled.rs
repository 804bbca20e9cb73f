//! The full-batch message-passing skeleton GCN and GraphSAGE share.
//!
//! Layer `l` is `H_{l+1} = dropout(relu(lift(H_l)·W_l + b_l))` (the last
//! one is linear), and `lift` is what makes the backbone: `Â·H` for GCN,
//! `[H ‖ Ā·H]` for GraphSAGE. Backward walks the same layers down and
//! needs `lift`'s adjoint, `lower`. A [`Conv`] is that pair; forward cache,
//! dropout, flat parameter buffer, workspace traffic and the
//! [`GraphModel`] surface are written once, here.
//! Where layer 0's `lift(X)` is a propagation ([`Conv::PREPARED`]: GCN's
//! `Â·X`), `prepare` writes it over the features and layer 0 reads them.

use super::common::{step, supervise, GraphDataset, TrainHooks};
use super::precompute::PrecomputeKind;
use super::{GraphModel, ModelConfig};
use crate::mlp::{dropout_backward, dropout_forward};
use crate::ops::{
    col_sums_into, matmul_bias_into, matmul_bias_relu_into, matmul_nt_into, matmul_tn_into,
    relu_backward_inplace, softmax_rows_inplace,
};
use crate::optim::Optimizer;
use crate::tensor::{MatView, Matrix};
use crate::workspace::Workspace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::marker::PhantomData;

/// What makes a full-batch backbone: how a linear layer's input is built
/// from the hidden state, and the adjoint of that.
pub trait Conv: Clone + Send + 'static {
    /// Columns of `lift(H)` per column of `H`.
    const FAN_IN: usize;
    /// Separates the backbones' dropout streams.
    const RNG_SALT: u64;
    /// `lift(X)` as the propagation `prepare` writes over the features, or
    /// `None` where layer 0 lifts the raw features on every forward.
    const PREPARED: Option<(PrecomputeKind, usize)>;
    /// Initial flat parameters: per layer `W_l` (`FAN_IN·widths[l] ×
    /// widths[l+1]`, row-major) then `b_l`.
    fn init(widths: &[usize], seed: u64) -> Vec<f32>;
    /// The linear layer's input for the hidden state `h`, out of `ws`.
    fn lift(data: &GraphDataset, h: &Matrix, ws: &mut Workspace) -> Matrix;
    /// The gradient at `h` from the gradient at `lift(h)` (consumed), out
    /// of `ws`. `hidden_grad` is the strategy's extra gradient on
    /// [`Conv::penultimate`], handed over at the last layer only.
    fn lower(
        data: &GraphDataset,
        d_lifted: Matrix,
        hidden_grad: Option<&Matrix>,
        ws: &mut Workspace,
    ) -> Matrix;
    /// The backbone's penultimate representation (MOON's `z`) in a forward
    /// cache.
    fn penultimate<'a>(data: &'a GraphDataset, cache: &'a LayerCache) -> &'a Matrix;
}

/// Forward cache of a full-batch message-passing backbone.
pub struct LayerCache {
    /// What each linear layer read: `Â·H_l` (GCN), `[H_l ‖ Ā·H_l]` (SAGE);
    /// `None` where that is the dataset's features (GCN's layer 0).
    pub(crate) inputs: Vec<Option<Matrix>>,
    /// Post-ReLU (and dropout) hidden states `H_1 … H_{L−1}`.
    pub(crate) hidden_out: Vec<Matrix>,
    /// Inverted-dropout masks of the hidden layers.
    pub(crate) dropout_masks: Vec<Option<Vec<f32>>>,
}

impl LayerCache {
    /// What layer `l` read.
    pub(crate) fn input<'a>(&'a self, data: &'a GraphDataset, l: usize) -> &'a Matrix {
        self.inputs[l].as_ref().unwrap_or(&data.features)
    }

    /// Returns every cached buffer to the workspace for the next epoch.
    pub(crate) fn recycle(self, ws: &mut Workspace) {
        for m in self.inputs.into_iter().flatten().chain(self.hidden_out) {
            ws.give_matrix(m);
        }
        for m in self.dropout_masks.into_iter().flatten() {
            ws.give(m);
        }
    }
}

/// A full-batch message-passing model over the convolution `C`.
#[derive(Clone)]
pub struct Coupled<C> {
    /// `[in, hidden…, classes]`.
    widths: Vec<usize>,
    params: Vec<f32>,
    dropout: f32,
    rng: StdRng,
    /// The scratch arena activations and gradients go through: the model's
    /// own (empty after `clone()`) unless the caller swapped one in.
    ws: Workspace,
    conv: PhantomData<C>,
}

impl<C: Conv> Coupled<C> {
    /// Builds an `L`-layer model (`cfg.layers`, min 1).
    pub fn new(cfg: &ModelConfig, in_dim: usize, num_classes: usize) -> Self {
        let widths = cfg.widths(in_dim, num_classes);
        Self {
            params: C::init(&widths, cfg.seed),
            widths,
            dropout: cfg.dropout,
            rng: StdRng::seed_from_u64(cfg.seed ^ C::RNG_SALT),
            ws: Workspace::new(),
            conv: PhantomData,
        }
    }

    fn num_layers(&self) -> usize {
        self.widths.len() - 1
    }

    /// Flat offsets of layer `l`: `(w_start, b_start, end)`.
    fn offsets(&self, l: usize) -> (usize, usize, usize) {
        let block = |i: usize| (C::FAN_IN * self.widths[i] + 1) * self.widths[i + 1];
        let w = (0..l).map(block).sum::<usize>();
        let b = w + C::FAN_IN * self.widths[l] * self.widths[l + 1];
        (w, b, b + self.widths[l + 1])
    }

    /// Borrowed view of layer `l`'s weight block.
    pub(crate) fn weight(&self, l: usize) -> MatView<'_> {
        let (w, b, _) = self.offsets(l);
        MatView::new(C::FAN_IN * self.widths[l], self.widths[l + 1], &self.params[w..b])
    }

    fn bias(&self, l: usize) -> &[f32] {
        let (_, b, e) = self.offsets(l);
        &self.params[b..e]
    }

    /// Layer `l`'s input for `h`; `None` where `prepare` wrote it over `X`.
    fn lift_layer(data: &GraphDataset, l: usize, h: &Matrix, ws: &mut Workspace) -> Option<Matrix> {
        (l > 0 || C::PREPARED.is_none()).then(|| C::lift(data, h, ws))
    }

    pub(crate) fn forward(&mut self, data: &GraphDataset, train: bool) -> (Matrix, LayerCache) {
        let layers = self.num_layers();
        let n = data.num_nodes();
        let features = data.features_as(C::PREPARED);
        let mut ws = std::mem::take(&mut self.ws);
        let mut cache = LayerCache {
            inputs: Vec::with_capacity(layers),
            hidden_out: Vec::with_capacity(layers - 1),
            dropout_masks: Vec::with_capacity(layers - 1),
        };
        for l in 0..layers - 1 {
            let h = if l == 0 { features } else { &cache.hidden_out[l - 1] };
            cache.inputs.push(Self::lift_layer(data, l, h, &mut ws));
            let mut z = ws.take_matrix(n, self.widths[l + 1]);
            // Fused `relu(X·W + b)` epilogue; dropout rides on top.
            let x = cache.input(data, l).view();
            matmul_bias_relu_into(x, self.weight(l), self.bias(l), z.as_mut_slice());
            let mask = dropout_forward(&mut z, self.dropout, train, &mut self.rng, &mut ws);
            cache.hidden_out.push(z);
            cache.dropout_masks.push(mask);
        }
        let last = layers - 1;
        cache.inputs.push(Self::lift_layer(data, last, cache.hidden_out.last().unwrap_or(features), &mut ws));
        let mut logits = ws.take_matrix(n, self.widths[layers]);
        let x = cache.input(data, last).view();
        matmul_bias_into(x, self.weight(last), self.bias(last), logits.as_mut_slice());
        self.ws = ws;
        (logits, cache)
    }

    pub(crate) fn backward(
        &mut self,
        data: &GraphDataset,
        cache: &LayerCache,
        d_logits: &Matrix,
        hidden_grad: Option<&Matrix>,
    ) -> Vec<f32> {
        let layers = self.num_layers();
        let mut ws = std::mem::take(&mut self.ws);
        let mut grads = ws.take(self.params.len());
        let mut d_out = ws.take_matrix(d_logits.rows(), d_logits.cols());
        d_out.copy_from(d_logits);
        for l in (0..layers).rev() {
            // dW/db land directly in the flat gradient buffer.
            let (w, b, e) = self.offsets(l);
            matmul_tn_into(cache.input(data, l).view(), d_out.view(), &mut grads[w..b]);
            col_sums_into(&d_out, &mut grads[b..e]);
            if l == 0 {
                // The input of layer 0 is data: nothing consumes its gradient.
                break;
            }
            let w = self.weight(l);
            let mut d_lifted = ws.take_matrix(d_out.rows(), w.rows());
            matmul_nt_into(d_out.view(), w, d_lifted.as_mut_slice());
            let hidden_grad = if l == layers - 1 { hidden_grad } else { None };
            let mut dx = C::lower(data, d_lifted, hidden_grad, &mut ws);
            dropout_backward(&mut dx, cache.dropout_masks[l - 1].as_ref());
            relu_backward_inplace(&mut dx, &cache.hidden_out[l - 1]);
            ws.give_matrix(std::mem::replace(&mut d_out, dx));
        }
        ws.give_matrix(d_out);
        self.ws = ws;
        grads
    }
}

impl<C: Conv> GraphModel for Coupled<C> {
    fn prepare(&self, data: GraphDataset) -> GraphDataset {
        data.propagate(C::PREPARED)
    }

    fn param_slice(&self) -> &[f32] {
        &self.params
    }

    fn param_slice_mut(&mut self) -> &mut [f32] {
        &mut self.params
    }

    fn train_epoch(
        &mut self,
        data: &GraphDataset,
        opt: &mut dyn Optimizer,
        hooks: &mut TrainHooks<'_>,
    ) -> f32 {
        let (logits, cache) = self.forward(data, true);
        // Full batch: logits row `i` is node `i`.
        let nodes: Vec<u32> = (0..data.num_nodes() as u32).collect();
        let z = C::penultimate(data, &cache);
        let (loss, d_logits, hidden_grad) =
            supervise(&logits, &data.labels, &data.train_nodes, &nodes, z, hooks, &mut self.ws);
        let mut grads = self.backward(data, &cache, &d_logits, hidden_grad.as_ref());
        step(&mut self.params, &mut grads, opt, hooks);
        cache.recycle(&mut self.ws);
        self.ws.give_matrix(logits);
        self.ws.give_matrix(d_logits);
        self.ws.give(grads);
        loss
    }

    fn predict_into(&mut self, data: &GraphDataset, out: &mut Matrix) {
        let (logits, cache) = self.forward(data, false);
        out.resize_to(logits.rows(), logits.cols());
        out.copy_from(&logits);
        softmax_rows_inplace(out);
        cache.recycle(&mut self.ws);
        self.ws.give_matrix(logits);
    }

    fn penultimate(&mut self, data: &GraphDataset) -> Matrix {
        let (logits, cache) = self.forward(data, false);
        let z = C::penultimate(data, &cache).clone();
        cache.recycle(&mut self.ws);
        self.ws.give_matrix(logits);
        z
    }

    fn swap_workspace(&mut self, ws: &mut Workspace) {
        std::mem::swap(&mut self.ws, ws);
    }

    fn clone_box(&self) -> Box<dyn GraphModel> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::softmax_ce;
    use crate::models::decoupled::tests::toy_dataset;
    use crate::models::gcn::Gcn;
    use crate::models::{ModelKind, PrecomputeKind};
    use crate::ops::spmm_csr_into;

    /// GCN as it ran before `prepare` propagated its input: `Â·X` lifted by
    /// `spmm_csr_into` on every forward, then the layer matmuls, and the
    /// backward over what each layer read. Returns the logits and the
    /// parameter gradient of the train nodes' cross-entropy; draws dropout
    /// from `m`'s stream.
    fn lift_every_forward(m: &mut Gcn, raw: &GraphDataset, train: bool) -> (Matrix, Vec<f32>) {
        let lift = |h: &Matrix| {
            let mut p = Matrix::zeros(h.rows(), h.cols());
            spmm_csr_into(&raw.adj_norm, h, &mut p);
            p
        };
        let (layers, n, mut ws) = (m.num_layers(), raw.num_nodes(), Workspace::new());
        let (mut inputs, mut hidden, mut masks) = (Vec::new(), Vec::new(), Vec::new());
        let mut h = raw.features.clone();
        for l in 0..layers {
            let x = lift(&h);
            h = Matrix::zeros(n, m.widths[l + 1]);
            if l + 1 < layers {
                matmul_bias_relu_into(x.view(), m.weight(l), m.bias(l), h.as_mut_slice());
                masks.push(dropout_forward(&mut h, m.dropout, train, &mut m.rng, &mut ws));
                hidden.push(h.clone());
            } else {
                matmul_bias_into(x.view(), m.weight(l), m.bias(l), h.as_mut_slice());
            }
            inputs.push(x);
        }
        let (_, mut d_out) = softmax_ce(&h, &raw.labels, &raw.train_nodes);
        let mut grads = vec![0.0; m.params.len()];
        for l in (0..layers).rev() {
            let (w, b, e) = m.offsets(l);
            matmul_tn_into(inputs[l].view(), d_out.view(), &mut grads[w..b]);
            col_sums_into(&d_out, &mut grads[b..e]);
            if l > 0 {
                let mut dp = Matrix::zeros(n, m.widths[l]);
                matmul_nt_into(d_out.view(), m.weight(l), dp.as_mut_slice());
                d_out = lift(&dp);
                dropout_backward(&mut d_out, masks[l - 1].as_ref());
                relu_backward_inplace(&mut d_out, &hidden[l - 1]);
            }
        }
        (h, grads)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn a_prepared_gcn_matches_lifting_every_forward_bit_for_bit() {
        for (layers, dropout) in [(1, 0.0), (1, 0.5), (2, 0.0), (2, 0.5)] {
            let raw = toy_dataset(20 + layers as u64);
            let cfg = ModelConfig { kind: ModelKind::Gcn, hidden: 16, layers, dropout, seed: 3, ..ModelConfig::default() };
            let mut m = Gcn::new(&cfg, raw.num_features(), 2);
            let data = m.prepare(raw.clone());
            assert_eq!(data.propagated, Some((PrecomputeKind::Sgc, 1)));
            assert_eq!(data.adj_mean.num_edges() + data.adj_mean_t.num_edges(), 0);
            let case = format!("{layers} layer(s), dropout {dropout}");
            for train in [true, false] {
                let mut oracle = m.clone();
                let (want_logits, want_grads) = lift_every_forward(&mut oracle, &raw, train);
                let (logits, cache) = m.forward(&data, train);
                let (_, d_logits) = softmax_ce(&logits, &data.labels, &data.train_nodes);
                let grads = m.backward(&data, &cache, &d_logits, None);
                assert_eq!(bits(logits.as_slice()), bits(want_logits.as_slice()), "{case}, train {train}");
                assert_eq!(bits(&grads), bits(&want_grads), "{case}, train {train}");
            }
            let mut want = lift_every_forward(&mut m.clone(), &raw, false).0;
            softmax_rows_inplace(&mut want);
            let mut got = Matrix::default();
            m.predict_into(&data, &mut got);
            assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "{case}: predict_into");
        }
    }
}
