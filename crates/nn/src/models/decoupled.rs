//! The decoupled backbone family: SGC, SIGN, S²GC, GBP.
//!
//! Feature propagation happens once per dataset ([`precompute`]); training
//! is then plain mini-batch MLP training on the combined features — which
//! is why these models scale (paper Table 1: the propagation term `O(kmf)`
//! is training-independent).

use super::common::{GraphDataset, TrainHooks};
use super::head::{BatchedHead, HeadInput};
use super::precompute::{precompute, PrecomputeKind};
use super::{GraphModel, ModelConfig, ModelKind};
use crate::mlp::Mlp;
use crate::optim::Optimizer;
use crate::tensor::{MatView, Matrix};
use crate::workspace::Workspace;
use std::ops::Range;

/// A decoupled GNN: `head(combine(hops(X)))`.
#[derive(Clone)]
pub struct DecoupledModel {
    kind: PrecomputeKind,
    k: usize,
    /// The head, over the combined features of each dataset seen.
    inner: BatchedHead<Matrix>,
}

impl DecoupledModel {
    /// Builds the model for `in_dim` raw features and `num_classes`.
    pub fn new(cfg: &ModelConfig, in_dim: usize, num_classes: usize) -> Self {
        let kind = match cfg.kind {
            ModelKind::Sign => PrecomputeKind::Sign,
            ModelKind::S2gc => PrecomputeKind::S2gc,
            ModelKind::Gbp => PrecomputeKind::Gbp { beta: cfg.beta },
            _ => PrecomputeKind::Sgc,
        };
        let head_in = kind.out_dim(in_dim, cfg.k);
        Self {
            kind,
            k: cfg.k,
            inner: BatchedHead::new(cfg, head_in, num_classes, 0, 0x9e37_79b9_7f4a_7c15),
        }
    }

    /// Checks out the combined features of `data` (computed on a miss);
    /// hand them back with `self.inner.give_features`.
    fn take_combined(&mut self, data: &GraphDataset) -> (u64, Matrix) {
        let (kind, k) = (self.kind, self.k);
        self.inner.take_features(data, || precompute(kind, &data.adj_norm, &data.features, k))
    }
}

impl GraphModel for DecoupledModel {
    fn num_params(&self) -> usize {
        self.inner.head.num_params()
    }

    fn params(&self) -> Vec<f32> {
        self.inner.head.params().to_vec()
    }

    fn set_params(&mut self, p: &[f32]) {
        self.inner.head.set_params(p);
    }

    fn train_epoch(
        &mut self,
        data: &GraphDataset,
        opt: &mut dyn Optimizer,
        hooks: &mut TrainHooks<'_>,
    ) -> f32 {
        let entry = self.take_combined(data);
        let features = &entry.1;
        // A batch is its rows of the combined features; upstream of it is
        // data, so the head's input gradient is never computed.
        let gather = |_: &Mlp, batch: &[u32], ws: &mut Workspace| {
            let mut xb = ws.take_matrix(batch.len(), features.cols());
            features.gather_rows_into(batch, &mut xb);
            (xb, ())
        };
        let loss = self.inner.train_epoch(data, opt, hooks, gather, |head, cache, d, hg, (), ws| {
            head.backward_ws(cache, d, hg, ws)
        });
        self.inner.give_features(entry);
        loss
    }

    fn predict_into(&mut self, data: &GraphDataset, out: &mut Matrix) {
        // Row ranges of the cached combined features, read where they lie.
        let entry = self.take_combined(data);
        let (x, cols) = (entry.1.as_slice(), entry.1.cols());
        let rows_of = |r: Range<usize>, _: &mut Workspace| {
            HeadInput::Rows(MatView::new(r.len(), cols, &x[r.start * cols..r.end * cols]))
        };
        self.inner.probs_by_pieces(data, entry.1.rows(), rows_of, out);
        self.inner.give_features(entry);
    }

    fn predict_rows_into(&mut self, data: &GraphDataset, rows: &[u32], out: &mut Matrix) {
        let entry = self.take_combined(data);
        let gather = |r: Range<usize>, ws: &mut Workspace| {
            let mut x = ws.take_matrix(r.len(), entry.1.cols());
            entry.1.gather_rows_into(&rows[r], &mut x);
            HeadInput::Pooled(x)
        };
        self.inner.probs_by_pieces(data, rows.len(), gather, out);
        self.inner.give_features(entry);
    }

    fn penultimate(&mut self, data: &GraphDataset) -> Matrix {
        let entry = self.take_combined(data);
        let h = self.inner.head.infer_hidden(&entry.1);
        self.inner.give_features(entry);
        h
    }

    fn swap_workspace(&mut self, ws: &mut Workspace) {
        std::mem::swap(&mut self.inner.ws, ws);
    }

    fn clone_box(&self) -> Box<dyn GraphModel> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::metrics::accuracy;
    use crate::optim::Adam;
    use fedgta_graph::EdgeList;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
        assert_eq!(m.inner.cache.len(), 1);
        m.train_epoch(&data, &mut opt, &mut TrainHooks::none());
        assert_eq!(m.inner.cache.len(), 1);
        // Evaluating on a second dataset adds a second entry, not more.
        let other = toy_dataset(5);
        m.predict(&other);
        m.predict(&data);
        assert_eq!(m.inner.cache.len(), 2);
    }
}
