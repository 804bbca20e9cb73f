//! The decoupled backbone family: SGC, SIGN, S²GC, GBP.
//!
//! Feature propagation happens once per dataset ([`GraphModel::prepare`]),
//! which keeps only its result; training is then plain mini-batch MLP
//! training on those rows — which is why these models scale (paper Table 1:
//! the propagation term `O(kmf)` is training-independent).

use super::common::{GraphDataset, TrainHooks};
use super::head::{BatchedHead, HeadInput};
use super::precompute::PrecomputeKind;
use super::{GraphModel, ModelConfig, ModelKind};
use crate::mlp::Mlp;
use crate::optim::Optimizer;
use crate::tensor::{MatView, Matrix};
use crate::workspace::Workspace;
use std::ops::Range;

/// A decoupled GNN: `head(combine(hops(X)))`, where `prepare` computed
/// `combine(hops(X))` into the dataset.
#[derive(Clone)]
pub struct DecoupledModel {
    kind: PrecomputeKind,
    k: usize,
    inner: BatchedHead,
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

    /// The features of `data`, which must be this model's propagation.
    fn features<'a>(&self, data: &'a GraphDataset) -> &'a Matrix {
        data.features_as(Some((self.kind, self.k)))
    }
}

impl GraphModel for DecoupledModel {
    fn prepare(&self, data: GraphDataset) -> GraphDataset {
        data.propagate(Some((self.kind, self.k)))
    }

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
        let features = self.features(data);
        // A batch is its rows of the propagated features; upstream of it
        // is data, so the head's input gradient is never computed.
        let gather = |_: &Mlp, batch: &[u32], ws: &mut Workspace| {
            let mut xb = ws.take_matrix(batch.len(), features.cols());
            features.gather_rows_into(batch, &mut xb);
            (xb, ())
        };
        self.inner.train_epoch(data, opt, hooks, gather, |head, cache, d, hg, (), ws| {
            head.backward_ws(cache, d, hg, ws)
        })
    }

    fn predict_into(&mut self, data: &GraphDataset, out: &mut Matrix) {
        // Row ranges of the propagated features, read where they lie.
        let features = self.features(data);
        let (x, cols) = (features.as_slice(), features.cols());
        let rows_of = |r: Range<usize>, _: &mut Workspace| {
            HeadInput::Rows(MatView::new(r.len(), cols, &x[r.start * cols..r.end * cols]))
        };
        self.inner.probs_by_pieces(data, features.rows(), rows_of, out);
    }

    fn predict_rows_into(&mut self, data: &GraphDataset, rows: &[u32], out: &mut Matrix) {
        let features = self.features(data);
        let gather = |r: Range<usize>, ws: &mut Workspace| {
            let mut x = ws.take_matrix(r.len(), features.cols());
            features.gather_rows_into(&rows[r], &mut x);
            HeadInput::Pooled(x)
        };
        self.inner.probs_by_pieces(data, rows.len(), gather, out);
    }

    fn penultimate(&mut self, data: &GraphDataset) -> Matrix {
        self.inner.head.infer_hidden(self.features(data))
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
    use crate::models::precompute::precompute;
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
        ModelConfig { kind, hidden: 16, layers: 2, k: 2, batch_size: 16, ..ModelConfig::default() }
    }

    /// A model of `kind` and `toy_dataset(seed)` prepared for it.
    fn prepared(kind: ModelKind, seed: u64) -> (DecoupledModel, GraphDataset) {
        let m = DecoupledModel::new(&cfg(kind), 4, 2);
        let data = m.prepare(toy_dataset(seed));
        (m, data)
    }

    #[test]
    fn all_decoupled_variants_learn_the_toy_task() {
        for kind in [ModelKind::Sgc, ModelKind::Sign, ModelKind::S2gc, ModelKind::Gbp] {
            let (mut m, data) = prepared(kind, 1);
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
        let (mut m, data) = prepared(ModelKind::Sign, 2);
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
        let (mut m, data) = prepared(ModelKind::Sgc, 3);
        let mut opt = Adam::new(0.01, 0.0);
        let mut calls = 0usize;
        let mut hook = |_p: &[f32], _g: &mut [f32]| calls += 1;
        let mut hooks = TrainHooks { grad_hook: Some(&mut hook), ..TrainHooks::none() };
        m.train_epoch(&data, &mut opt, &mut hooks);
        // 20 train nodes / batch 16 => 2 batches.
        assert_eq!(calls, 2);
    }

    #[test]
    fn prepare_propagates_once_and_the_model_reads_the_dataset() {
        for kind in [ModelKind::Sgc, ModelKind::Sign, ModelKind::S2gc, ModelKind::Gbp] {
            let raw = toy_dataset(4);
            assert!(raw.adj_mean.num_edges() > 0 && raw.adj_mean_t.num_edges() > 0);
            let (n, raw_bytes) = (raw.num_nodes(), raw.bytes());
            let m = DecoupledModel::new(&cfg(kind), 4, 2);
            let want = precompute(m.kind, &raw.adj_norm, raw.features.clone(), 2);
            let mut data = m.prepare(raw);
            assert_eq!(data.features, want, "{kind:?}");
            assert_eq!(data.propagated, Some((m.kind, 2)));
            // The mean-aggregation pair no decoupled model reads is gone.
            for adj in [&data.adj_mean, &data.adj_mean_t] {
                assert_eq!((adj.num_nodes(), adj.num_edges()), (n, 0), "{kind:?}");
            }
            if kind != ModelKind::Sign {
                assert!(data.bytes() < raw_bytes, "{kind:?}");
            }
            assert_eq!(data.num_features(), 4, "{kind:?}: the raw width");
            // Nothing is cached: the next forward reads what the dataset
            // holds now.
            let mut m = m;
            let before = m.predict(&data);
            data.features.scale(0.0);
            assert_ne!(m.predict(&data), before, "{kind:?}");
        }
    }

    #[test]
    #[should_panic(expected = "pass it through GraphModel::prepare")]
    fn an_unprepared_dataset_is_refused() {
        let data = toy_dataset(5);
        DecoupledModel::new(&cfg(ModelKind::S2gc), 4, 2).predict(&data);
    }

    #[test]
    #[should_panic(expected = "pass it through GraphModel::prepare")]
    fn a_dataset_prepared_for_another_kind_is_refused() {
        let (_, data) = prepared(ModelKind::Sgc, 5);
        DecoupledModel::new(&cfg(ModelKind::S2gc), 4, 2).predict(&data);
    }
}
