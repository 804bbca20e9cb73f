//! Shared data structures for graph models: the dataset view a model
//! trains on and the hook bundle federated strategies use to inject
//! auxiliary objectives.

use crate::mlp::Mlp;
use crate::ops::softmax_rows_inplace;
use crate::tensor::{MatView, Matrix};
use crate::workspace::Workspace;
use fedgta_graph::{normalized_adjacency, Csr, NormKind};
use std::ops::Range;
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
    /// Identity key for propagated-feature caches (unique per dataset
    /// instance; cloning keeps the key because the contents are equal).
    pub cache_key: u64,
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
        assert_eq!(graph.num_nodes(), features.rows(), "feature row mismatch");
        assert_eq!(graph.num_nodes(), labels.len(), "label length mismatch");
        let adj_norm = normalized_adjacency(graph, NormKind::Symmetric);
        let adj_mean = normalized_adjacency(graph, NormKind::RowStochastic);
        let adj_mean_t = adj_mean.transpose();
        let degrees_hat = graph.with_self_loops().weighted_degrees();
        Self {
            adj_norm,
            adj_mean,
            adj_mean_t,
            features,
            labels,
            num_classes,
            train_nodes,
            val_nodes,
            test_nodes,
            degrees_hat,
            cache_key: NEXT_DATASET_KEY.fetch_add(1, Ordering::Relaxed),
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
        let adj_norm = normalized_adjacency(graph, NormKind::Symmetric);
        let degrees_hat = graph.with_self_loops().weighted_degrees();
        let n = graph.num_nodes();
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
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.features.rows()
    }

    /// Input feature dimension.
    pub fn num_features(&self) -> usize {
        self.features.cols()
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

/// Splits `nodes` into shuffled mini-batches of `batch_size`
/// (`0` = single full batch). Returns owned batches.
pub fn make_batches(
    nodes: &[u32],
    batch_size: usize,
    rng: &mut rand::rngs::StdRng,
) -> Vec<Vec<u32>> {
    use rand::seq::SliceRandom;
    let mut order = nodes.to_vec();
    order.shuffle(rng);
    if batch_size == 0 || batch_size >= order.len() {
        return vec![order];
    }
    order.chunks(batch_size).map(|c| c.to_vec()).collect()
}

/// Rows of the largest batch [`make_batches`] cuts from `data`'s training
/// nodes — the most rows training ever gathers into a model's workspace.
pub(crate) fn max_batch_rows(data: &GraphDataset, batch_size: usize) -> usize {
    let n = data.train_nodes.len().max(1);
    if batch_size == 0 {
        n
    } else {
        batch_size.min(n)
    }
}

/// The head's input for one piece of rows.
pub(crate) enum HeadInput<'a> {
    /// Consecutive rows of a cached matrix, read where they lie.
    Rows(MatView<'a>),
    /// Rows assembled in a matrix checked out of the piece loop's
    /// workspace, which takes it back.
    Pooled(Matrix),
}

/// The row-separable forward of a decoupled backbone: `out` becomes
/// `n_rows × |Y|` and its rows `r` = `softmax(head(input(r, ws)))`, where
/// `input` yields the head's input for a range of output rows.
///
/// Rows go through `ws` at most `piece` at a time (callers pass
/// [`max_batch_rows`]), so inference reuses the buffers training pooled
/// and never grows a client's resident pool by an `n`-row logits, hidden
/// activation or gather. A logit depends on its own input row only and
/// keeps its `k`-order whatever rows share the GEMM call, so the pieces
/// are invisible in the result.
pub(crate) fn head_probs_by_pieces<'a>(
    head: &Mlp,
    n_rows: usize,
    piece: usize,
    ws: &mut Workspace,
    mut input: impl FnMut(Range<usize>, &mut Workspace) -> HeadInput<'a>,
    out: &mut Matrix,
) {
    let classes = *head.dims().last().expect("an MLP has at least one layer");
    out.resize_to(n_rows, classes);
    for (p, dst) in out.as_mut_slice().chunks_mut(piece * classes).enumerate() {
        let x = input(p * piece..p * piece + dst.len() / classes, ws);
        let view = match &x {
            HeadInput::Rows(v) => *v,
            HeadInput::Pooled(m) => m.view(),
        };
        let mut probs = head.infer_ws(view, ws);
        softmax_rows_inplace(&mut probs);
        dst.copy_from_slice(probs.as_slice());
        ws.give_matrix(probs);
        if let HeadInput::Pooled(m) = x {
            ws.give_matrix(m);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedgta_graph::EdgeList;
    use rand::rngs::StdRng;
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
