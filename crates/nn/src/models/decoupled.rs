//! The decoupled backbone family: SGC, SIGN, S²GC, GBP.
//!
//! Feature propagation happens once per dataset ([`precompute`]); training
//! is then plain mini-batch MLP training on the combined features — which
//! is why these models scale (paper Table 1: the propagation term `O(kmf)`
//! is training-independent).

use super::common::{
    head_probs_by_pieces, make_batches, max_batch_rows, GraphDataset, HeadInput, TrainHooks,
};
use super::precompute::{precompute, PrecomputeKind};
use super::GraphModel;
use crate::loss::{soft_ce, softmax_ce};
use crate::mlp::Mlp;
use crate::models::ModelConfig;
use crate::optim::Optimizer;
use crate::tensor::{MatView, Matrix};
use crate::workspace::Workspace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Range;

/// A decoupled GNN: `head(combine(hops(X)))`.
#[derive(Clone)]
pub struct DecoupledModel {
    kind: PrecomputeKind,
    k: usize,
    head: Mlp,
    batch_size: usize,
    rng: StdRng,
    /// Tiny cache of combined features keyed by dataset identity (a client
    /// alternates between at most its train view and an eval view).
    cache: Vec<(u64, Matrix)>,
    /// Scratch arena for batches/activations (empty after `clone()`).
    ws: Workspace,
}

impl DecoupledModel {
    /// Builds the model for `in_dim` raw features and `num_classes`.
    ///
    /// `cfg.layers == 1` gives the linear head the SGC paper uses; deeper
    /// heads insert `cfg.hidden`-wide ReLU layers.
    pub fn new(cfg: &ModelConfig, in_dim: usize, num_classes: usize) -> Self {
        let head_in = cfg.kind_in_dim(in_dim);
        let mut dims = vec![head_in];
        for _ in 0..cfg.layers.saturating_sub(1) {
            dims.push(cfg.hidden);
        }
        dims.push(num_classes);
        Self {
            kind: match cfg.kind {
                super::ModelKind::Sgc => PrecomputeKind::Sgc,
                super::ModelKind::Sign => PrecomputeKind::Sign,
                super::ModelKind::S2gc => PrecomputeKind::S2gc,
                super::ModelKind::Gbp => PrecomputeKind::Gbp { beta: cfg.beta },
                _ => PrecomputeKind::Sgc,
            },
            k: cfg.k,
            head: Mlp::new(&dims, cfg.dropout, cfg.seed),
            batch_size: cfg.batch_size,
            rng: StdRng::seed_from_u64(cfg.seed ^ 0x9e37_79b9_7f4a_7c15),
            cache: Vec::new(),
            ws: Workspace::new(),
        }
    }

    /// The model's scratch arena: tests assert what inference leaves in it.
    #[doc(hidden)]
    pub fn workspace(&self) -> &Workspace {
        &self.ws
    }

    /// Checks out the cached combined features for `data`, computing them
    /// on a miss. The caller must return the entry with
    /// [`Self::return_combined`] — checking the entry *out* (instead of
    /// borrowing it) lets training call `&mut self` methods on the head
    /// without cloning the full feature matrix every epoch, which is what
    /// the seed implementation did.
    fn take_combined(&mut self, data: &GraphDataset) -> (u64, Matrix) {
        if let Some(pos) = self.cache.iter().position(|(k, _)| *k == data.cache_key) {
            return self.cache.swap_remove(pos);
        }
        let p = precompute(self.kind, &data.adj_norm, &data.features, self.k);
        if self.cache.len() >= 2 {
            self.cache.remove(0);
        }
        (data.cache_key, p)
    }

    /// Returns a checked-out cache entry (most-recently-used last).
    fn return_combined(&mut self, entry: (u64, Matrix)) {
        self.cache.push(entry);
    }
}

impl GraphModel for DecoupledModel {
    fn num_params(&self) -> usize {
        self.head.num_params()
    }

    fn params(&self) -> Vec<f32> {
        self.head.params().to_vec()
    }

    fn set_params(&mut self, p: &[f32]) {
        self.head.set_params(p);
    }

    fn train_epoch(
        &mut self,
        data: &GraphDataset,
        opt: &mut dyn Optimizer,
        hooks: &mut TrainHooks<'_>,
    ) -> f32 {
        // Check out (cached) combined features — no per-epoch clone.
        let entry = self.take_combined(data);
        let features = &entry.1;
        let mut ws = std::mem::take(&mut self.ws);

        let batches = make_batches(&data.train_nodes, self.batch_size, &mut self.rng);
        let mut total_loss = 0f64;
        let mut steps = 0usize;
        for batch in &batches {
            if batch.is_empty() {
                continue;
            }
            let mut xb = ws.take_matrix(batch.len(), features.cols());
            features.gather_rows_into(batch, &mut xb);
            // The gathered batch becomes the cache's layer-0 input.
            let (logits, cache) = self.head.forward_ws(xb, true, &mut ws);
            // Supervised CE over the whole batch (rows are local to batch).
            let labels_b: Vec<u32> = batch.iter().map(|&i| data.labels[i as usize]).collect();
            let rows_b: Vec<u32> = (0..batch.len() as u32).collect();
            let (loss, mut d_logits) = softmax_ce(&logits, &labels_b, &rows_b);
            // FedGL-style pseudo labels on the batch subset that has them.
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
            let mut grads = self
                .head
                .backward_ws(&cache, &d_logits, hidden_grad.as_ref(), &mut ws);
            if let Some(gh) = hooks.grad_hook.as_mut() {
                gh(self.head.params(), &mut grads);
            }
            opt.step(self.head.params_mut(), &grads);
            // Everything scratch goes back to the arena for the next batch.
            ws.give(grads);
            ws.give_matrix(d_logits);
            if let Some(hg) = hidden_grad {
                ws.give_matrix(hg);
            }
            cache.recycle(&mut ws);
            ws.give_matrix(logits);
            total_loss += loss as f64;
            steps += 1;
        }
        self.ws = ws;
        self.return_combined(entry);
        if steps == 0 {
            0.0
        } else {
            (total_loss / steps as f64) as f32
        }
    }

    fn predict(&mut self, data: &GraphDataset) -> Matrix {
        let mut out = Matrix::default();
        self.predict_into(data, &mut out);
        out
    }

    fn predict_into(&mut self, data: &GraphDataset, out: &mut Matrix) {
        // Row ranges of the cached combined features, read where they lie.
        let entry = self.take_combined(data);
        let (x, cols) = (entry.1.as_slice(), entry.1.cols());
        let rows_of = |r: Range<usize>, _: &mut Workspace| {
            HeadInput::Rows(MatView::new(r.len(), cols, &x[r.start * cols..r.end * cols]))
        };
        let piece = max_batch_rows(data, self.batch_size);
        head_probs_by_pieces(&self.head, entry.1.rows(), piece, &mut self.ws, rows_of, out);
        self.return_combined(entry);
    }

    fn predict_rows_into(&mut self, data: &GraphDataset, rows: &[u32], out: &mut Matrix) {
        let entry = self.take_combined(data);
        let gather = |r: Range<usize>, ws: &mut Workspace| {
            let mut x = ws.take_matrix(r.len(), entry.1.cols());
            entry.1.gather_rows_into(&rows[r], &mut x);
            HeadInput::Pooled(x)
        };
        let piece = max_batch_rows(data, self.batch_size);
        head_probs_by_pieces(&self.head, rows.len(), piece, &mut self.ws, gather, out);
        self.return_combined(entry);
    }

    fn penultimate(&mut self, data: &GraphDataset) -> Matrix {
        let entry = self.take_combined(data);
        let h = self.head.infer_hidden(&entry.1);
        self.return_combined(entry);
        h
    }

    fn clone_box(&self) -> Box<dyn GraphModel> {
        Box::new(self.clone())
    }
}

impl ModelConfig {
    /// Input dimension of the head after hop combination.
    pub(crate) fn kind_in_dim(&self, in_dim: usize) -> usize {
        match self.kind {
            super::ModelKind::Sign => in_dim * (self.k + 1),
            _ => in_dim,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::metrics::accuracy;
    use crate::models::ModelKind;
    use crate::optim::Adam;
    use fedgta_graph::EdgeList;

    /// Two homophilous clusters with separable features.
    pub(crate) fn toy_dataset(seed: u64) -> GraphDataset {
        use rand::Rng;
        let n = 40;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut el = EdgeList::new(n);
        for i in 0..n as u32 {
            for j in (i + 1)..n as u32 {
                let same = (i < 20) == (j < 20);
                let p = if same { 0.3 } else { 0.02 };
                if rng.random::<f64>() < p {
                    el.push_undirected(i, j).unwrap();
                }
            }
        }
        let mut x = Matrix::zeros(n, 4);
        for i in 0..n {
            let c = usize::from(i >= 20);
            for j in 0..4 {
                let mu = if j % 2 == c { 1.0 } else { -1.0 };
                x.set(i, j, mu + 0.5 * (rng.random::<f32>() - 0.5));
            }
        }
        let labels: Vec<u32> = (0..n).map(|i| u32::from(i >= 20)).collect();
        let train: Vec<u32> = (0..n as u32).filter(|i| i % 2 == 0).collect();
        let test: Vec<u32> = (0..n as u32).filter(|i| i % 2 == 1).collect();
        GraphDataset::new(&el.to_csr(), x, labels, 2, train, Vec::new(), test)
    }

    fn cfg(kind: ModelKind) -> ModelConfig {
        ModelConfig {
            kind,
            hidden: 16,
            layers: 2,
            k: 2,
            batch_size: 16,
            ..ModelConfig::default()
        }
    }

    #[test]
    fn all_decoupled_variants_learn_the_toy_task() {
        for kind in [ModelKind::Sgc, ModelKind::Sign, ModelKind::S2gc, ModelKind::Gbp] {
            let data = toy_dataset(1);
            let c = cfg(kind);
            let mut m = DecoupledModel::new(&c, data.num_features(), 2);
            let mut opt = Adam::new(0.05, 0.0);
            for _ in 0..30 {
                m.train_epoch(&data, &mut opt, &mut TrainHooks::none());
            }
            let probs = m.predict(&data);
            let acc = accuracy(&probs, &data.labels, &data.test_nodes);
            assert!(acc > 0.9, "{:?} acc = {acc}", kind);
        }
    }

    #[test]
    fn params_roundtrip_changes_predictions() {
        let data = toy_dataset(2);
        let c = cfg(ModelKind::Sign);
        let mut m = DecoupledModel::new(&c, data.num_features(), 2);
        let p0 = m.params();
        let mut opt = Adam::new(0.05, 0.0);
        for _ in 0..5 {
            m.train_epoch(&data, &mut opt, &mut TrainHooks::none());
        }
        let trained = m.predict(&data);
        m.set_params(&p0);
        let restored = m.predict(&data);
        assert_ne!(trained, restored);
        assert_eq!(m.params(), p0);
    }

    #[test]
    fn grad_hook_sees_every_step() {
        let data = toy_dataset(3);
        let c = cfg(ModelKind::Sgc);
        let mut m = DecoupledModel::new(&c, data.num_features(), 2);
        let mut opt = Adam::new(0.01, 0.0);
        let mut calls = 0usize;
        let mut hook = |_p: &[f32], _g: &mut [f32]| calls += 1;
        let mut hooks = TrainHooks {
            grad_hook: Some(&mut hook),
            ..TrainHooks::none()
        };
        m.train_epoch(&data, &mut opt, &mut hooks);
        // 20 train nodes / batch 16 => 2 batches.
        assert_eq!(calls, 2);
    }

    #[test]
    fn cache_reused_across_epochs() {
        let data = toy_dataset(4);
        let c = cfg(ModelKind::S2gc);
        let mut m = DecoupledModel::new(&c, data.num_features(), 2);
        let mut opt = Adam::new(0.01, 0.0);
        m.train_epoch(&data, &mut opt, &mut TrainHooks::none());
        assert_eq!(m.cache.len(), 1);
        m.train_epoch(&data, &mut opt, &mut TrainHooks::none());
        assert_eq!(m.cache.len(), 1);
        // Evaluating on a second dataset adds a second entry, not more.
        let other = toy_dataset(5);
        m.predict(&other);
        m.predict(&data);
        assert_eq!(m.cache.len(), 2);
    }
}
