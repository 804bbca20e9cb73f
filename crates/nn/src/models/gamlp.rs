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

use super::common::{
    head_probs_by_pieces, make_batches, max_batch_rows, GraphDataset, HeadInput, TrainHooks,
};
use super::precompute::hop_features;
use super::GraphModel;
use crate::loss::{soft_ce, softmax_ce};
use crate::mlp::Mlp;
use crate::models::ModelConfig;
use crate::ops::softmax_rows_inplace;
use crate::optim::Optimizer;
use crate::tensor::Matrix;
use crate::workspace::Workspace;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// GAMLP: learned softmax gate over hop features + MLP head.
#[derive(Clone)]
pub struct Gamlp {
    /// Gate logits `a ∈ R^{k+1}`.
    gate: Vec<f32>,
    head: Mlp,
    k: usize,
    batch_size: usize,
    rng: StdRng,
    /// Hop-feature cache keyed by dataset identity.
    cache: Vec<(u64, Vec<Matrix>)>,
    /// Scratch arena for gathered/combined batches (empty after `clone()`).
    ws: Workspace,
}

impl Gamlp {
    /// Builds GAMLP for `in_dim` features and `num_classes`.
    pub fn new(cfg: &ModelConfig, in_dim: usize, num_classes: usize) -> Self {
        let mut dims = vec![in_dim];
        for _ in 0..cfg.layers.saturating_sub(1) {
            dims.push(cfg.hidden);
        }
        dims.push(num_classes);
        Self {
            gate: vec![0.0; cfg.k + 1],
            head: Mlp::new(&dims, cfg.dropout, cfg.seed),
            k: cfg.k,
            batch_size: cfg.batch_size,
            rng: StdRng::seed_from_u64(cfg.seed ^ 0xc2b2_ae3d_27d4_eb4f),
            cache: Vec::new(),
            ws: Workspace::new(),
        }
    }

    fn softmax_gate(&self) -> Vec<f32> {
        let max = self.gate.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = self.gate.iter().map(|&a| (a - max).exp()).collect();
        let sum: f32 = exps.iter().sum();
        exps.into_iter().map(|e| e / sum).collect()
    }

    /// Position of `data`'s hop features in the cache, computing them on
    /// a miss (an index, not a borrow: callers go on to use the head, the
    /// gate and the workspace next to `self.cache[pos].1`).
    fn hops_pos(&mut self, data: &GraphDataset) -> usize {
        if let Some(pos) = self.cache.iter().position(|(key, _)| *key == data.cache_key) {
            return pos;
        }
        let hops = hop_features(&data.adj_norm, &data.features, self.k);
        if self.cache.len() >= 2 {
            self.cache.remove(0);
        }
        self.cache.push((data.cache_key, hops));
        self.cache.len() - 1
    }

    /// Combine hop rows of `batch` with the current gate (allocating
    /// wrapper of [`Self::combine_rows_ws`]; test/reference path).
    #[cfg(test)]
    fn combine_rows(hops: &[Matrix], gate: &[f32], batch: &[u32]) -> (Matrix, Vec<Matrix>) {
        let mut ws = Workspace::new();
        Self::combine_rows_ws(hops, gate, batch, &mut ws)
    }

    /// Allocation-free [`Self::combine_rows`]: gathered rows and the
    /// combined batch come from (and return to) the workspace.
    fn combine_rows_ws(
        hops: &[Matrix],
        gate: &[f32],
        batch: &[u32],
        ws: &mut Workspace,
    ) -> (Matrix, Vec<Matrix>) {
        let gathered: Vec<Matrix> = hops
            .iter()
            .map(|h| {
                let mut g = ws.take_matrix(batch.len(), h.cols());
                h.gather_rows_into(batch, &mut g);
                g
            })
            .collect();
        let mut out = ws.take_matrix(batch.len(), hops[0].cols());
        out.copy_from(&gathered[0]);
        out.scale(gate[0]);
        for (l, g) in gathered.iter().enumerate().skip(1) {
            out.axpy(gate[l], g);
        }
        (out, gathered)
    }

    /// Gate-combine over *all* nodes: the identity gather is skipped, so
    /// inference never copies every hop matrix.
    fn combine_all(hops: &[Matrix], gate: &[f32]) -> Matrix {
        let mut out = hops[0].clone();
        out.scale(gate[0]);
        for (l, h) in hops.iter().enumerate().skip(1) {
            out.axpy(gate[l], h);
        }
        out
    }

    /// Gate gradient via the softmax Jacobian.
    fn gate_grad(&self, gate: &[f32], d_comb: &Matrix, gathered: &[Matrix]) -> Vec<f32> {
        // dL/ds_l = <d_comb, H_l>.
        let ds: Vec<f32> = gathered
            .iter()
            .map(|h| {
                d_comb
                    .as_slice()
                    .iter()
                    .zip(h.as_slice())
                    .map(|(&a, &b)| a * b)
                    .sum::<f32>()
            })
            .collect();
        let dot: f32 = gate.iter().zip(&ds).map(|(&s, &d)| s * d).sum();
        gate.iter().zip(&ds).map(|(&s, &d)| s * (d - dot)).collect()
    }
}

impl GraphModel for Gamlp {
    fn num_params(&self) -> usize {
        self.gate.len() + self.head.num_params()
    }

    fn params(&self) -> Vec<f32> {
        let mut out = self.gate.clone();
        out.extend_from_slice(self.head.params());
        out
    }

    fn set_params(&mut self, p: &[f32]) {
        assert_eq!(p.len(), self.num_params(), "param length mismatch");
        let g = self.gate.len();
        self.gate.copy_from_slice(&p[..g]);
        self.head.set_params(&p[g..]);
    }

    fn train_epoch(
        &mut self,
        data: &GraphDataset,
        opt: &mut dyn Optimizer,
        hooks: &mut TrainHooks<'_>,
    ) -> f32 {
        let pos = self.hops_pos(data);
        // Check the hop set out of the cache (no per-epoch clone of k+1
        // full matrices); pushed back after the epoch.
        let entry = self.cache.swap_remove(pos);
        let hops = &entry.1;
        let mut ws = std::mem::take(&mut self.ws);

        let batches = make_batches(&data.train_nodes, self.batch_size, &mut self.rng);
        let mut total_loss = 0f64;
        let mut steps = 0usize;
        for batch in &batches {
            if batch.is_empty() {
                continue;
            }
            let gate = self.softmax_gate();
            let (xb, gathered) = Self::combine_rows_ws(hops, &gate, batch, &mut ws);
            let (logits, cache) = self.head.forward_ws(xb, true, &mut ws);
            let labels_b: Vec<u32> = batch.iter().map(|&i| data.labels[i as usize]).collect();
            let rows_b: Vec<u32> = (0..batch.len() as u32).collect();
            let (loss, mut d_logits) = softmax_ce(&logits, &labels_b, &rows_b);
            if let Some(pl) = hooks.pseudo.as_ref() {
                let rows_pl: Vec<u32> = batch
                    .iter()
                    .enumerate()
                    .filter(|(_, &n)| pl.mask[n as usize])
                    .map(|(b, _)| b as u32)
                    .collect();
                if !rows_pl.is_empty() {
                    let targets_b = pl.targets.gather_rows(batch);
                    let (_, d_extra) = soft_ce(&logits, &targets_b, &rows_pl, pl.weight);
                    d_logits.axpy(1.0, &d_extra);
                }
            }
            let hidden_grad = hooks
                .hidden_hook
                .as_mut()
                .map(|h| h(batch, cache.penultimate()));
            // The gate differentiates through the head's input.
            let (head_grads, d_comb) =
                self.head
                    .backward_input_ws(&cache, &d_logits, hidden_grad.as_ref(), &mut ws);
            let gate_grads = self.gate_grad(&gate, &d_comb, &gathered);
            let mut grads = gate_grads;
            grads.extend_from_slice(&head_grads);
            if let Some(gh) = hooks.grad_hook.as_mut() {
                let p = self.params();
                gh(&p, &mut grads);
            }
            let mut flat = self.params();
            opt.step(&mut flat, &grads);
            self.set_params(&flat);
            // Scratch back to the arena for the next batch.
            ws.give(head_grads);
            ws.give_matrix(d_comb);
            ws.give_matrix(d_logits);
            if let Some(hg) = hidden_grad {
                ws.give_matrix(hg);
            }
            cache.recycle(&mut ws);
            ws.give_matrix(logits);
            for g in gathered {
                ws.give_matrix(g);
            }
            total_loss += loss as f64;
            steps += 1;
        }
        self.ws = ws;
        self.cache.push(entry);
        if steps == 0 {
            0.0
        } else {
            (total_loss / steps as f64) as f32
        }
    }

    fn predict(&mut self, data: &GraphDataset) -> Matrix {
        let pos = self.hops_pos(data);
        let gate = self.softmax_gate();
        let x = Self::combine_all(&self.cache[pos].1, &gate);
        let mut probs = self.head.infer(&x);
        softmax_rows_inplace(&mut probs);
        probs
    }

    fn predict_rows_into(&mut self, data: &GraphDataset, rows: &[u32], out: &mut Matrix) {
        let gate = self.softmax_gate();
        let piece = max_batch_rows(data, self.batch_size);
        let mut ws = std::mem::take(&mut self.ws);
        let pos = self.hops_pos(data);
        let hops = &self.cache[pos].1;
        // Same scale-then-axpy per element as `combine_all`, on the
        // requested rows only.
        let combine = |r: std::ops::Range<usize>, ws: &mut Workspace| {
            let (x, gathered) = Self::combine_rows_ws(hops, &gate, &rows[r], ws);
            for g in gathered {
                ws.give_matrix(g);
            }
            HeadInput::Pooled(x)
        };
        head_probs_by_pieces(&self.head, rows.len(), piece, &mut ws, combine, out);
        self.ws = ws;
    }

    fn penultimate(&mut self, data: &GraphDataset) -> Matrix {
        let pos = self.hops_pos(data);
        let gate = self.softmax_gate();
        let x = Self::combine_all(&self.cache[pos].1, &gate);
        self.head.infer_hidden(&x)
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
        let s = m.softmax_gate();
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
        assert!(m.gate.iter().any(|&a| a.abs() > 1e-4), "gate never updated");
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

        let loss_of = |m: &mut Gamlp| {
            let probs_free_logits = {
                let pos = m.hops_pos(&data);
                let hops = m.cache[pos].1.clone();
                let gate = m.softmax_gate();
                let all: Vec<u32> = (0..data.num_nodes() as u32).collect();
                let (x, _) = Gamlp::combine_rows(&hops, &gate, &all);
                m.head.infer(&x)
            };
            let rows = data.train_nodes.clone();
            softmax_ce(&probs_free_logits, &data.labels, &rows).0
        };

        // Analytic gradients via one full-batch "epoch" with lr 0 — instead
        // compute directly.
        let pos = m.hops_pos(&data);
        let hops = m.cache[pos].1.clone();
        let gate = m.softmax_gate();
        let all: Vec<u32> = (0..data.num_nodes() as u32).collect();
        let (xb, gathered) = Gamlp::combine_rows(&hops, &gate, &all);
        let (logits, cache) = m.head.forward(&xb, false);
        let (_, d_logits) = softmax_ce(&logits, &data.labels, &data.train_nodes);
        let (head_grads, d_comb) = m.head.backward(&cache, &d_logits, None);
        let gate_grads = m.gate_grad(&gate, &d_comb, &gathered);
        let mut grads = gate_grads;
        grads.extend(head_grads);

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
            assert!(
                (fd - grads[idx]).abs() < 2e-2,
                "param {idx}: fd {fd} vs {}",
                grads[idx]
            );
        }
    }
}
