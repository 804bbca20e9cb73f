//! The paper's seven GNN backbones behind one [`GraphModel`] trait.
//!
//! | Model | Kind | Architecture |
//! |-------|------|--------------|
//! | GCN | coupled | `softmax(Â σ(Â X W₀) W₁)` |
//! | GraphSAGE | coupled | mean aggregator `σ([H ‖ ĀH] W)` per layer |
//! | SGC | decoupled | linear on `Âᵏ X` |
//! | SIGN | decoupled | MLP on `[X ‖ ÂX ‖ … ‖ Âᵏ X]` |
//! | S²GC | decoupled | MLP on `(1/(k+1)) Σ Âˡ X` |
//! | GBP | decoupled | MLP on `Σ β(1−β)ˡ Âˡ X` |
//! | GAMLP | decoupled | MLP on a learned softmax gate over hop features |
//!
//! A decoupled model propagates a dataset's features once, in
//! [`GraphModel::prepare`], and the dataset holds the result in place of
//! its raw `X` — the scalability property the paper's Table 1 relies on.
//! GCN does the same for its first layer's `Â·X`.
//!
//! A backbone supplies a forward and a backward; everything a federated
//! strategy can reach — the supervised loss, the three [`TrainHooks`]
//! injection points, the optimizer step — is written once, in
//! [`common`], and all seven train through it.

pub mod common;
pub mod coupled;
pub mod decoupled;
pub mod gamlp;
pub mod gcn;
mod head;
pub mod precompute;
pub mod sage;

pub use common::{GraphDataset, PseudoLabels, TrainHooks};
pub use decoupled::DecoupledModel;
pub use gamlp::Gamlp;
pub use gcn::Gcn;
pub use precompute::PrecomputeKind;
pub use sage::Sage;

use crate::optim::Optimizer;
use crate::tensor::Matrix;
use crate::workspace::Workspace;

/// A trainable node-classification model over a [`GraphDataset`].
///
/// All parameters live in one flat `f32` buffer so federated strategies
/// can aggregate models as opaque vectors. `predict`/`penultimate` take
/// `&mut self` because they run through the model's scratch arena.
pub trait GraphModel: Send {
    /// `data` made ready for this model, once, before it trains or predicts
    /// on it: the identity, but for the decoupled family's and GCN's propagation.
    fn prepare(&self, data: GraphDataset) -> GraphDataset {
        data
    }
    /// The flat parameter buffer, read in place.
    fn param_slice(&self) -> &[f32];
    /// The flat parameter buffer, written in place: an aggregation that
    /// stores a client's next model straight into it.
    fn param_slice_mut(&mut self) -> &mut [f32];
    /// Total parameter count.
    fn num_params(&self) -> usize {
        self.param_slice().len()
    }
    /// Snapshot of the flat parameter buffer.
    fn params(&self) -> Vec<f32> {
        self.param_slice().to_vec()
    }
    /// Replaces all parameters (length must match [`Self::num_params`]).
    fn set_params(&mut self, p: &[f32]) {
        let params = self.param_slice_mut();
        assert_eq!(p.len(), params.len(), "param length mismatch");
        params.copy_from_slice(p);
    }
    /// Runs one local training epoch; returns the mean supervised loss.
    fn train_epoch(
        &mut self,
        data: &GraphDataset,
        opt: &mut dyn Optimizer,
        hooks: &mut TrainHooks<'_>,
    ) -> f32;
    /// Softmax class probabilities for every node (`n × |Y|`) into a
    /// caller-provided buffer, reshaped as needed. Scratch comes from the
    /// model's workspace: a warm call of a head backbone (the decoupled
    /// family, GAMLP) performs **zero heap allocations** and a full-batch
    /// one none that grows with `n` — the property FedGTA's per-round
    /// upload pipeline relies on.
    fn predict_into(&mut self, data: &GraphDataset, out: &mut Matrix);
    /// [`Self::predict_into`] a fresh matrix.
    fn predict(&mut self, data: &GraphDataset) -> Matrix {
        let mut out = Matrix::default();
        self.predict_into(data, &mut out);
        out
    }
    /// Softmax class probabilities of the nodes `rows` only: `out` is
    /// reshaped to `rows.len() × |Y|` and its row `r` equals row
    /// `rows[r]` of [`Self::predict`] bit for bit (`rows` may be unsorted
    /// and repeat). The default runs the full forward and selects;
    /// backbones whose forward is row-separable (the decoupled family,
    /// GAMLP) override it to compute nothing but the requested rows —
    /// what makes scoring a test split cost what the split costs.
    fn predict_rows_into(&mut self, data: &GraphDataset, rows: &[u32], out: &mut Matrix) {
        let probs = self.predict(data);
        out.resize_to(rows.len(), probs.cols());
        probs.gather_rows_into(rows, out);
    }
    /// The penultimate representation for every node (MOON's contrastive
    /// anchor).
    fn penultimate(&mut self, data: &GraphDataset) -> Matrix;
    /// Exchanges the model's scratch arena with `ws` (a model without one
    /// does nothing). Every backbone starts with an empty arena of its own
    /// and fills it when driven by hand; a caller that runs many models on
    /// few workers swaps a worker's arena in for the length of a model's
    /// turn and swaps it back out, so no model keeps scratch between
    /// turns. [`Workspace::take`] zero-fills: the arena swapped in cannot
    /// reach a result.
    fn swap_workspace(&mut self, _ws: &mut Workspace) {}
    /// Clones into a boxed trait object.
    fn clone_box(&self) -> Box<dyn GraphModel>;
}

impl Clone for Box<dyn GraphModel> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Which backbone to construct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Graph convolutional network (coupled).
    Gcn,
    /// GraphSAGE with full-neighborhood mean aggregation (coupled).
    Sage,
    /// Simple graph convolution (decoupled, linear head).
    Sgc,
    /// Scalable inception GNN (decoupled, concatenated hops).
    Sign,
    /// Simple spectral graph convolution (decoupled, averaged hops).
    S2gc,
    /// Graph neural network via bidirectional propagation (decoupled,
    /// β-weighted hops).
    Gbp,
    /// Graph attention MLP (decoupled, learned hop gate).
    Gamlp,
}

impl ModelKind {
    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Gcn => "GCN",
            ModelKind::Sage => "SAGE",
            ModelKind::Sgc => "SGC",
            ModelKind::Sign => "SIGN",
            ModelKind::S2gc => "S2GC",
            ModelKind::Gbp => "GBP",
            ModelKind::Gamlp => "GAMLP",
        }
    }

    /// Whether [`GraphModel::prepare`] replaces a dataset's raw features by
    /// a propagation (it then sets [`GraphDataset::propagated`]): every
    /// backbone but GraphSAGE and GAMLP.
    pub fn propagates(self) -> bool {
        !matches!(self, ModelKind::Sage | ModelKind::Gamlp)
    }

    /// All seven backbones.
    pub fn all() -> [ModelKind; 7] {
        [
            ModelKind::Gcn,
            ModelKind::Sage,
            ModelKind::Sgc,
            ModelKind::Sign,
            ModelKind::S2gc,
            ModelKind::Gbp,
            ModelKind::Gamlp,
        ]
    }
}

/// Hyperparameters shared by all backbones.
#[derive(Debug, Clone)]
pub struct ModelConfig {
    /// Which backbone.
    pub kind: ModelKind,
    /// Hidden width.
    pub hidden: usize,
    /// Number of linear layers in the head (decoupled) or of graph
    /// convolutions (coupled).
    pub layers: usize,
    /// Feature-propagation steps `k` for decoupled models.
    pub k: usize,
    /// Dropout probability on hidden activations.
    pub dropout: f32,
    /// Mini-batch size for decoupled heads (`0` = full batch).
    pub batch_size: usize,
    /// GBP's β.
    pub beta: f32,
    /// Parameter-init / batching seed.
    pub seed: u64,
}

impl ModelConfig {
    /// The recipe behind every table of the reproduction (CLI `run`, the
    /// bench runner, the comms bench): `k = 5` propagation steps, GBP's
    /// β = 0.15, batches of 256, two layers — except SGC, whose head is the
    /// paper's single linear layer.
    pub fn paper(kind: ModelKind, hidden: usize, seed: u64) -> Self {
        Self {
            kind,
            hidden,
            layers: if kind == ModelKind::Sgc { 1 } else { 2 },
            k: 5,
            beta: 0.15,
            batch_size: 256,
            seed,
            ..Self::default()
        }
    }

    /// Layer widths `[in, hidden × (layers − 1), classes]`.
    pub(crate) fn widths(&self, in_dim: usize, num_classes: usize) -> Vec<usize> {
        let mut widths = vec![in_dim];
        widths.resize(self.layers.max(1), self.hidden);
        widths.push(num_classes);
        widths
    }
}

impl Default for ModelConfig {
    fn default() -> Self {
        Self {
            kind: ModelKind::Sgc,
            hidden: 64,
            layers: 2,
            k: 3,
            dropout: 0.0,
            batch_size: 256,
            beta: 0.5,
            seed: 0,
        }
    }
}

/// Builds a boxed model for `in_dim` input features and `num_classes`
/// output classes.
pub fn build_model(cfg: &ModelConfig, in_dim: usize, num_classes: usize) -> Box<dyn GraphModel> {
    match cfg.kind {
        ModelKind::Gcn => Box::new(Gcn::new(cfg, in_dim, num_classes)),
        ModelKind::Sage => Box::new(Sage::new(cfg, in_dim, num_classes)),
        ModelKind::Sgc | ModelKind::Sign | ModelKind::S2gc | ModelKind::Gbp => {
            Box::new(DecoupledModel::new(cfg, in_dim, num_classes))
        }
        ModelKind::Gamlp => Box::new(Gamlp::new(cfg, in_dim, num_classes)),
    }
}
