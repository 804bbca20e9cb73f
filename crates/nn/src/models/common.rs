//! What every backbone shares: the dataset view a model trains on, the
//! hook bundle federated strategies use to inject auxiliary objectives,
//! and the one place each hook is consulted ([`supervise`], [`step`]).

use super::precompute::{precompute, PrecomputeKind};
use crate::loss::{soft_ce_into, softmax_ce_into};
use crate::optim::Optimizer;
use crate::tensor::Matrix;
use crate::workspace::Workspace;
use fedgta_graph::store::normalize_stream;
use fedgta_graph::{normalized_adjacency, Csr, CsrBuilder, NormKind};
use rand::rngs::StdRng;
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_DATASET_KEY: AtomicU64 = AtomicU64::new(1);

/// A node-classification dataset over one graph (global or a client's
/// local subgraph), with the two normalized adjacencies models need
/// precomputed.
#[derive(Debug, Clone)]
pub struct GraphDataset {
    /// Symmetric GCN normalization `D̂^{-1/2} Â D̂^{-1/2}`.
    pub adj_norm: Csr,
    /// Row-stochastic mean aggregation `D̂^{-1} Â` (GraphSAGE).
    pub adj_mean: Csr,
    /// Transpose of `adj_mean` (needed by SAGE backprop).
    pub adj_mean_t: Csr,
    /// Node features (`n × f`).
    pub features: Matrix,
    /// Node labels (`n`; ignored where masks exclude a node).
    pub labels: Vec<u32>,
    /// Number of classes.
    pub num_classes: usize,
    /// Node ids with training labels.
    pub train_nodes: Vec<u32>,
    /// Node ids used for validation.
    pub val_nodes: Vec<u32>,
    /// Node ids used for testing.
    pub test_nodes: Vec<u32>,
    /// Weighted degrees of `Â = A + I` (the `D̂_ii` FedGTA's smoothing
    /// confidence weights by).
    pub degrees_hat: Vec<f32>,
    /// Identity key for GAMLP's hop cache (a clone, equal, keeps it).
    pub cache_key: u64,
    /// `None` while `features` are the raw `X`; `Some((kind, k))` once a
    /// model's `prepare` replaced them by their propagation (the decoupled
    /// family's input, GCN's first-layer `Â·X`).
    pub propagated: Option<(PrecomputeKind, usize)>,
}

impl GraphDataset {
    /// Builds a dataset from a raw graph; computes both normalized
    /// adjacencies.
    pub fn new(
        graph: &Csr,
        features: Matrix,
        labels: Vec<u32>,
        num_classes: usize,
        train_nodes: Vec<u32>,
        val_nodes: Vec<u32>,
        test_nodes: Vec<u32>,
    ) -> Self {
        let adj_mean = normalized_adjacency(graph, NormKind::RowStochastic);
        Self {
            adj_mean_t: adj_mean.transpose(),
            adj_mean,
            ..Self::for_decoupled(
                graph,
                features,
                labels,
                num_classes,
                train_nodes,
                val_nodes,
                test_nodes,
            )
        }
    }

    /// Builds a dataset for decoupled backbones (SGC/SIGN/S²GC/GBP) and
    /// label-propagation strategies only: computes `adj_norm` and
    /// `degrees_hat` but leaves `adj_mean`/`adj_mean_t` empty.
    ///
    /// FedGTA itself touches only `adj_norm` (non-parametric label
    /// propagation) and `degrees_hat` (smoothing confidence), so with a
    /// decoupled model a client never reads the mean-aggregation
    /// matrices — skipping them cuts per-client adjacency memory ~3×,
    /// which is what makes the 10⁷-node scale run fit. Message-passing
    /// models (GraphSAGE) need [`GraphDataset::new`].
    pub fn for_decoupled(
        graph: &Csr,
        features: Matrix,
        labels: Vec<u32>,
        num_classes: usize,
        train_nodes: Vec<u32>,
        val_nodes: Vec<u32>,
        test_nodes: Vec<u32>,
    ) -> Self {
        assert_eq!(graph.num_nodes(), features.rows(), "feature row mismatch");
        assert_eq!(graph.num_nodes(), labels.len(), "label length mismatch");
        let n = graph.num_nodes();
        let (adj_norm, degrees_hat) =
            normalize_stream(graph, NormKind::Symmetric, CsrBuilder::new(n).keep_weights())
                .expect("an in-memory graph's rows");
        Self {
            adj_norm,
            adj_mean: Csr::empty(n),
            adj_mean_t: Csr::empty(n),
            features,
            labels,
            num_classes,
            train_nodes,
            val_nodes,
            test_nodes,
            degrees_hat,
            cache_key: NEXT_DATASET_KEY.fetch_add(1, Ordering::Relaxed),
            propagated: None,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.features.rows()
    }

    /// The raw feature dimension `f` (SIGN's propagation is `(k + 1)·f` wide).
    pub fn num_features(&self) -> usize {
        self.features.cols() / self.propagated.map_or(1, |(kind, k)| kind.out_dim(1, k))
    }

    /// The dataset with its features replaced by their `kind` propagation in
    /// `k` steps (`None`: as it is), stamped so, and the mean-aggregation pair
    /// emptied: only GraphSAGE and FedSage+ read it, and both need raw `X`.
    pub(crate) fn propagate(mut self, how: Option<(PrecomputeKind, usize)>) -> Self {
        let Some((kind, k)) = how else { return self };
        assert_eq!(self.propagated, None, "features already propagated");
        self.features = precompute(kind, &self.adj_norm, std::mem::take(&mut self.features), k);
        self.propagated = Some((kind, k));
        let n = self.num_nodes();
        for adj in [&mut self.adj_mean, &mut self.adj_mean_t] {
            if adj.num_edges() > 0 {
                *adj = Csr::empty(n);
            }
        }
        self
    }

    /// The features, which must be the propagation `want` (`None`: raw X).
    pub(crate) fn features_as(&self, want: Option<(PrecomputeKind, usize)>) -> &Matrix {
        let (has, hint) = (self.propagated, "pass it through GraphModel::prepare");
        assert!(
            has == want,
            "the model reads features propagated as {want:?}, the dataset's are {has:?}: {hint}"
        );
        &self.features
    }

    /// Heap bytes held: features, adjacencies, labels, splits and degrees.
    pub fn bytes(&self) -> usize {
        let csr = |a: &Csr| {
            8 * a.indptr().len() + 4 * a.num_edges() + a.weights().map_or(0, |w| 4 * w.len())
        };
        let ids = self.labels.len()
            + self.train_nodes.len()
            + self.val_nodes.len()
            + self.test_nodes.len();
        let adjacencies: usize =
            [&self.adj_norm, &self.adj_mean, &self.adj_mean_t].map(csr).iter().sum();
        4 * (self.features.as_slice().len() + ids + self.degrees_hat.len()) + adjacencies
    }
}

/// FedGL-style soft pseudo-label supervision.
#[derive(Debug, Clone)]
pub struct PseudoLabels {
    /// Soft targets per node (`n × |Y|`); rows outside `mask` are ignored.
    pub targets: Matrix,
    /// Which nodes carry a pseudo-label.
    pub mask: Vec<bool>,
    /// Loss weight λ.
    pub weight: f32,
}

/// Gradient-modification hook: `f(current_params, &mut grads)`.
pub type GradHook<'a> = &'a mut dyn FnMut(&[f32], &mut [f32]);

/// Penultimate-representation hook: `f(batch_node_ids,
/// penultimate_batch) -> extra_gradient` (same shape as the batch).
pub type HiddenHook<'a> = &'a mut dyn FnMut(&[u32], &Matrix) -> Matrix;

/// Auxiliary-objective hooks a federated strategy can inject into local
/// training. All fields default to `None` ([`TrainHooks::none`]).
#[derive(Default)]
pub struct TrainHooks<'a> {
    /// Applied to the flat gradient before each optimizer step.
    /// FedProx/Scaffold/FedDC plug in here.
    pub grad_hook: Option<GradHook<'a>>,
    /// Returns an extra gradient on the penultimate representation.
    /// MOON's model-contrastive loss plugs in here.
    pub hidden_hook: Option<HiddenHook<'a>>,
    /// Soft pseudo-label supervision on unlabeled nodes (FedGL).
    pub pseudo: Option<&'a PseudoLabels>,
}

impl<'a> TrainHooks<'a> {
    /// No auxiliary objectives (plain local training).
    pub fn none() -> Self {
        Self::default()
    }
}

/// The one supervised step of every backbone's `train_epoch`, between its
/// forward and its backward pass — everything a strategy can add to the
/// loss is consulted here and nowhere else: hard-label CE on the `labeled`
/// rows, FedGL's soft CE on the rows whose node carries a pseudo-label,
/// then MOON's hook on the penultimate representation. Returns `(loss,
/// d_logits, hidden_grad)`; `d_logits` is checked out of `ws` and the
/// caller gives it back, `hidden_grad` is the hook's own.
///
/// `labels[r]` and `nodes[r]` are the label and the node id of logits row
/// `r`: the full-batch backbones pass `data.labels`, `data.train_nodes`
/// and the identity map, the mini-batch heads the batch's labels, `0..b`
/// and the batch.
pub(crate) fn supervise(
    logits: &Matrix,
    labels: &[u32],
    labeled: &[u32],
    nodes: &[u32],
    penultimate: &Matrix,
    hooks: &mut TrainHooks<'_>,
    ws: &mut Workspace,
) -> (f32, Matrix, Option<Matrix>) {
    let mut d_logits = ws.take_matrix(logits.rows(), logits.cols());
    let loss = softmax_ce_into(logits, labels, labeled, &mut d_logits);
    if let Some(pl) = hooks.pseudo {
        let rows: Vec<u32> =
            (0..nodes.len() as u32).filter(|&r| pl.mask[nodes[r as usize] as usize]).collect();
        if !rows.is_empty() {
            let targets = pl.targets.gather_rows(nodes);
            let mut d_extra = ws.take_matrix(logits.rows(), logits.cols());
            soft_ce_into(logits, &targets, &rows, pl.weight, &mut d_extra);
            d_logits.axpy(1.0, &d_extra);
            ws.give_matrix(d_extra);
        }
    }
    let hidden_grad = hooks.hidden_hook.as_mut().map(|h| h(nodes, penultimate));
    (loss, d_logits, hidden_grad)
}

/// The one optimizer step: the strategy's gradient hook (FedProx, Scaffold,
/// FedDC) reads the parameters and may rewrite `grads`, then `opt` steps.
pub(crate) fn step(
    params: &mut [f32],
    grads: &mut [f32],
    opt: &mut dyn Optimizer,
    hooks: &mut TrainHooks<'_>,
) {
    if let Some(gh) = hooks.grad_hook.as_mut() {
        gh(params, grads);
    }
    opt.step(params, grads);
}

/// Splits `nodes` into shuffled mini-batches of `batch_size`
/// (`0` = single full batch). Returns owned batches.
pub fn make_batches(nodes: &[u32], batch_size: usize, rng: &mut StdRng) -> Vec<Vec<u32>> {
    use rand::seq::SliceRandom;
    let mut order = nodes.to_vec();
    order.shuffle(rng);
    if batch_size == 0 || batch_size >= order.len() {
        return vec![order];
    }
    order.chunks(batch_size).map(|c| c.to_vec()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedgta_graph::EdgeList;
    use rand::SeedableRng;

    fn tiny() -> GraphDataset {
        let mut el = EdgeList::new(4);
        el.push_undirected(0, 1).unwrap();
        el.push_undirected(2, 3).unwrap();
        GraphDataset::new(
            &el.to_csr(),
            Matrix::zeros(4, 3),
            vec![0, 0, 1, 1],
            2,
            vec![0, 2],
            vec![1],
            vec![3],
        )
    }

    #[test]
    fn dataset_builds_both_norms() {
        let d = tiny();
        assert_eq!(d.num_nodes(), 4);
        assert_eq!(d.num_features(), 3);
        // Row-stochastic rows sum to 1.
        for u in 0..4u32 {
            let s: f32 = d.adj_mean.neighbor_weights(u).unwrap().iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn decoupled_dataset_matches_full_on_shared_fields() {
        let mut el = EdgeList::new(4);
        el.push_undirected(0, 1).unwrap();
        el.push_undirected(2, 3).unwrap();
        let g = el.to_csr();
        let full = tiny();
        let lean = GraphDataset::for_decoupled(
            &g,
            Matrix::zeros(4, 3),
            vec![0, 0, 1, 1],
            2,
            vec![0, 2],
            vec![1],
            vec![3],
        );
        assert_eq!(lean.adj_norm, full.adj_norm);
        assert_eq!(lean.degrees_hat, full.degrees_hat);
        assert_eq!(lean.adj_mean.num_edges(), 0);
        assert_eq!(lean.adj_mean_t.num_edges(), 0);
        assert_ne!(lean.cache_key, full.cache_key);
    }

    #[test]
    fn cache_keys_are_unique_per_construction() {
        let a = tiny();
        let b = tiny();
        assert_ne!(a.cache_key, b.cache_key);
        let c = a.clone();
        assert_eq!(a.cache_key, c.cache_key);
    }

    #[test]
    fn batches_cover_all_nodes() {
        let nodes: Vec<u32> = (0..10).collect();
        let mut rng = StdRng::seed_from_u64(0);
        let batches = make_batches(&nodes, 3, &mut rng);
        assert_eq!(batches.len(), 4);
        let mut all: Vec<u32> = batches.concat();
        all.sort_unstable();
        assert_eq!(all, nodes);
        // Full-batch mode.
        let full = make_batches(&nodes, 0, &mut rng);
        assert_eq!(full.len(), 1);
        assert_eq!(full[0].len(), 10);
    }
}
