//! GAMLP (Zhang et al. 2022), reproduced as a decoupled hop-attention
//! model: precomputed hop features `X⁽⁰⁾…X⁽ᵏ⁾` are combined by a learned
//! softmax gate `s = softmax(a)` into `X_c = Σ sₗ X⁽ˡ⁾`, followed by an
//! MLP head.
//!
//! The original paper offers several attention variants (JK / recursive);
//! the learned-gate form keeps the same architecture class — a trainable
//! weighting of precomputed propagated features feeding an MLP — with
//! exact gradients for both the gate and the head (substitution recorded
//! in DESIGN.md).

use super::common::{GraphDataset, TrainHooks};
use super::head::{BatchedHead, HeadInput};
use super::precompute::hop_features;
use super::{GraphModel, ModelConfig};
use crate::mlp::Mlp;
use crate::optim::Optimizer;
use crate::tensor::Matrix;
use crate::workspace::Workspace;
use std::ops::Range;

/// GAMLP: learned softmax gate over hop features + MLP head.
///
/// The gate logits `a ∈ R^{k+1}` are the head's leading parameters
/// ([`Mlp::with_extra`]): one flat vector `[a | head]` for the optimizer
/// and the federation.
#[derive(Clone)]
pub struct Gamlp {
    k: usize,
    inner: BatchedHead,
    /// Hops of the last two datasets seen (a client's train and eval view).
    cache: Vec<(u64, Vec<Matrix>)>,
}

/// `softmax(a)` in a buffer checked out of `ws`.
fn softmax_gate(a: &[f32], ws: &mut Workspace) -> Vec<f32> {
    let max = a.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut s = ws.take(a.len());
    for (s, &a) in s.iter_mut().zip(a) {
        *s = (a - max).exp();
    }
    let sum: f32 = s.iter().sum();
    for s in &mut s {
        *s /= sum;
    }
    s
}

/// The `rows` of every hop in one tall matrix out of `ws`: hop `l` fills
/// rows `l·b..(l+1)·b`, `b = rows.len()`.
fn gather_hops(hops: &[Matrix], rows: &[u32], ws: &mut Workspace) -> Matrix {
    let mut tall = ws.take_matrix(hops.len() * rows.len(), hops[0].cols());
    for (l, hop) in hops.iter().enumerate() {
        for (r, &i) in rows.iter().enumerate() {
            tall.row_mut(l * rows.len() + r).copy_from_slice(hop.row(i as usize));
        }
    }
    tall
}

/// The `hops` equal row blocks of a [`gather_hops`] matrix, as flat slices.
fn hop_slices(tall: &Matrix, hops: usize) -> impl Iterator<Item = &[f32]> {
    let len = tall.as_slice().len() / hops;
    (0..hops).map(move |l| &tall.as_slice()[l * len..(l + 1) * len])
}

/// `Σ gate[l] · hops[l]` in a `rows × cols` matrix out of `ws`: scale by
/// `gate[0]`, then one axpy per further hop, per element in hop order.
fn combine<'a>(
    gate: &[f32],
    mut hops: impl Iterator<Item = &'a [f32]>,
    (rows, cols): (usize, usize),
    ws: &mut Workspace,
) -> Matrix {
    let mut out = ws.take_matrix(rows, cols);
    let first = hops.next().expect("hop 0 is the input");
    for (o, &h) in out.as_mut_slice().iter_mut().zip(first) {
        *o = h * gate[0];
    }
    for (hop, &s) in hops.zip(&gate[1..]) {
        for (o, &h) in out.as_mut_slice().iter_mut().zip(hop) {
            *o += s * h;
        }
    }
    out
}

/// Gate gradient via the softmax Jacobian, into `out` (`k + 1` slots).
fn gate_grad<'a>(
    gate: &[f32],
    d_comb: &Matrix,
    hops: impl Iterator<Item = &'a [f32]>,
    out: &mut [f32],
) {
    // dL/ds_l = <d_comb, H_l>.
    for (ds, hop) in out.iter_mut().zip(hops) {
        *ds = d_comb.as_slice().iter().zip(hop).map(|(&a, &b)| a * b).sum::<f32>();
    }
    let dot: f32 = gate.iter().zip(out.iter()).map(|(&s, &d)| s * d).sum();
    for (d, &s) in out.iter_mut().zip(gate) {
        *d = s * (*d - dot);
    }
}

impl Gamlp {
    /// Builds GAMLP for `in_dim` features and `num_classes`.
    pub fn new(cfg: &ModelConfig, in_dim: usize, num_classes: usize) -> Self {
        Self {
            k: cfg.k,
            inner: BatchedHead::new(cfg, in_dim, num_classes, cfg.k + 1, 0xc2b2_ae3d_27d4_eb4f),
            cache: Vec::new(),
        }
    }

    /// Checks out `data`'s hops (computed on a miss) for `self.cache.push` to
    /// take back, leaving `self` free for the head: no per-epoch clone.
    fn take_hops(&mut self, data: &GraphDataset) -> (u64, Vec<Matrix>) {
        if let Some(pos) = self.cache.iter().position(|(key, _)| *key == data.cache_key) {
            return self.cache.swap_remove(pos);
        }
        if self.cache.len() >= 2 {
            self.cache.remove(0);
        }
        (data.cache_key, hop_features(&data.adj_norm, &data.features, self.k))
    }
}

impl GraphModel for Gamlp {
    fn param_slice(&self) -> &[f32] {
        self.inner.head.params()
    }

    fn param_slice_mut(&mut self) -> &mut [f32] {
        self.inner.head.params_mut()
    }

    fn train_epoch(
        &mut self,
        data: &GraphDataset,
        opt: &mut dyn Optimizer,
        hooks: &mut TrainHooks<'_>,
    ) -> f32 {
        let entry = self.take_hops(data);
        let hops = &entry.1;
        // A batch is the gate-combination of its rows of every hop; the
        // gathered rows and the gate are kept for the gate's gradient.
        let gate_combine = |head: &Mlp, batch: &[u32], ws: &mut Workspace| {
            let gate = softmax_gate(head.extra(), ws);
            let gathered = gather_hops(hops, batch, ws);
            let shape = (batch.len(), gathered.cols());
            let xb = combine(&gate, hop_slices(&gathered, gate.len()), shape, ws);
            (xb, (gate, gathered))
        };
        let loss = self.inner.train_epoch(
            data,
            opt,
            hooks,
            gate_combine,
            |head, cache, d_logits, hidden_grad, (gate, gathered), ws| {
                // The gate differentiates through the head's input.
                let (mut grads, d_comb) = head.backward_input_ws(cache, d_logits, hidden_grad, ws);
                let hops = hop_slices(&gathered, gate.len());
                gate_grad(&gate, &d_comb, hops, &mut grads[..gate.len()]);
                ws.give_matrix(d_comb);
                ws.give_matrix(gathered);
                ws.give(gate);
                grads
            },
        );
        self.cache.push(entry);
        loss
    }

    fn predict_into(&mut self, data: &GraphDataset, out: &mut Matrix) {
        let entry = self.take_hops(data);
        let (hops, cols) = (&entry.1, entry.1[0].cols());
        let gate = softmax_gate(self.inner.head.extra(), &mut self.inner.ws);
        // Row ranges of the cached hops, combined where they lie.
        let combine_range = |r: Range<usize>, ws: &mut Workspace| {
            let slices = hops.iter().map(|h| &h.as_slice()[r.start * cols..r.end * cols]);
            HeadInput::Pooled(combine(&gate, slices, (r.len(), cols), ws))
        };
        self.inner.probs_by_pieces(data, hops[0].rows(), combine_range, out);
        self.inner.ws.give(gate);
        self.cache.push(entry);
    }

    fn predict_rows_into(&mut self, data: &GraphDataset, rows: &[u32], out: &mut Matrix) {
        let entry = self.take_hops(data);
        let gate = softmax_gate(self.inner.head.extra(), &mut self.inner.ws);
        // The same scale-then-axpy per element, on the requested rows only.
        let combine_rows = |r: Range<usize>, ws: &mut Workspace| {
            let gathered = gather_hops(&entry.1, &rows[r.clone()], ws);
            let x =
                combine(&gate, hop_slices(&gathered, gate.len()), (r.len(), gathered.cols()), ws);
            ws.give_matrix(gathered);
            HeadInput::Pooled(x)
        };
        self.inner.probs_by_pieces(data, rows.len(), combine_rows, out);
        self.inner.ws.give(gate);
        self.cache.push(entry);
    }

    fn penultimate(&mut self, data: &GraphDataset) -> Matrix {
        let entry = self.take_hops(data);
        let shape = entry.1[0].shape();
        let mut ws = Workspace::new();
        let gate = softmax_gate(self.inner.head.extra(), &mut ws);
        let x = combine(&gate, entry.1.iter().map(Matrix::as_slice), shape, &mut ws);
        self.cache.push(entry);
        self.inner.head.infer_hidden(&x)
    }

    fn swap_workspace(&mut self, ws: &mut Workspace) {
        std::mem::swap(&mut self.inner.ws, ws);
    }

    fn clone_box(&self) -> Box<dyn GraphModel> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::softmax_ce;
    use crate::metrics::accuracy;
    use crate::models::decoupled::tests::toy_dataset;
    use crate::models::ModelKind;
    use crate::optim::Adam;

    fn cfg() -> ModelConfig {
        ModelConfig {
            kind: ModelKind::Gamlp,
            hidden: 16,
            layers: 2,
            k: 3,
            batch_size: 0,
            ..ModelConfig::default()
        }
    }

    #[test]
    fn param_layout_includes_gate() {
        let m = Gamlp::new(&cfg(), 4, 2);
        assert_eq!(m.num_params(), 4 + (4 * 16 + 16 + 16 * 2 + 2));
        let p = m.params();
        assert_eq!(&p[..4], &[0.0; 4]);
    }

    #[test]
    fn gate_starts_uniform() {
        let m = Gamlp::new(&cfg(), 4, 2);
        let s = softmax_gate(m.inner.head.extra(), &mut Workspace::new());
        for &v in &s {
            assert!((v - 0.25).abs() < 1e-6);
        }
    }

    #[test]
    fn gamlp_learns_the_toy_task() {
        let data = toy_dataset(30);
        let mut m = Gamlp::new(&cfg(), data.num_features(), 2);
        let mut opt = Adam::new(0.05, 0.0);
        for _ in 0..40 {
            m.train_epoch(&data, &mut opt, &mut TrainHooks::none());
        }
        let acc = accuracy(&m.predict(&data), &data.labels, &data.test_nodes);
        assert!(acc > 0.9, "acc = {acc}");
    }

    #[test]
    fn gate_moves_during_training() {
        let data = toy_dataset(31);
        let mut m = Gamlp::new(&cfg(), data.num_features(), 2);
        let mut opt = Adam::new(0.05, 0.0);
        for _ in 0..10 {
            m.train_epoch(&data, &mut opt, &mut TrainHooks::none());
        }
        assert!(m.inner.head.extra().iter().any(|&a| a.abs() > 1e-4), "gate never updated");
    }

    #[test]
    fn full_gradient_matches_finite_differences() {
        let data = toy_dataset(32);
        let mut m = Gamlp::new(&cfg(), data.num_features(), 2);
        // Perturb the gate away from the symmetric point.
        let mut p = m.params();
        for (i, v) in p.iter_mut().take(4).enumerate() {
            *v = 0.1 * (i as f32 - 1.5);
        }
        m.set_params(&p);

        // The gate, every node's rows of every hop, and their combination.
        let all: Vec<u32> = (0..data.num_nodes() as u32).collect();
        let hops = hop_features(&data.adj_norm, &data.features, 3);
        let combined = |m: &Gamlp| {
            let mut ws = Workspace::new();
            let gate = softmax_gate(m.inner.head.extra(), &mut ws);
            let gathered = gather_hops(&hops, &all, &mut ws);
            let x = combine(&gate, hop_slices(&gathered, gate.len()), hops[0].shape(), &mut ws);
            (gate, gathered, x)
        };
        let loss_of = |m: &mut Gamlp| {
            let logits = m.inner.head.infer(&combined(m).2);
            softmax_ce(&logits, &data.labels, &data.train_nodes).0
        };

        // Analytic gradients of the full-batch loss, computed directly.
        let (gate, gathered, xb) = combined(&m);
        let (logits, cache) = m.inner.head.forward(&xb, false);
        let (_, d_logits) = softmax_ce(&logits, &data.labels, &data.train_nodes);
        let (mut grads, d_comb) = m.inner.head.backward(&cache, &d_logits, None);
        gate_grad(&gate, &d_comb, hop_slices(&gathered, gate.len()), &mut grads[..4]);

        let eps = 1e-2f32;
        let n = m.num_params();
        for idx in (0..n).step_by(n / 15 + 1).chain(0..4) {
            let mut p = m.params();
            let orig = p[idx];
            p[idx] = orig + eps;
            m.set_params(&p);
            let lp = loss_of(&mut m);
            p[idx] = orig - eps;
            m.set_params(&p);
            let lm = loss_of(&mut m);
            p[idx] = orig;
            m.set_params(&p);
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - grads[idx]).abs() < 2e-2, "param {idx}: fd {fd} vs {}", grads[idx]);
        }
    }
}
