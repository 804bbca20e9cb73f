//! # fedgta-nn — minimal neural-network stack with exact manual backprop
//!
//! burn/candle lack graph layers, so this crate implements the ML substrate
//! the paper's local models need, from scratch:
//!
//! - [`tensor::Matrix`]: row-major `f32` dense matrices;
//! - [`ops`]: blocked, cache-friendly matmul kernels (`A·B`, `Aᵀ·B`, `A·Bᵀ`)
//!   parallelized over row chunks;
//! - [`loss`]: masked softmax cross-entropy with exact gradients, plus soft-
//!   target CE (for FedGL pseudo-labels);
//! - [`optim`]: SGD-with-momentum and Adam over flat parameter buffers;
//! - [`mlp`]: a multi-layer perceptron over one flat parameter buffer with
//!   forward caches, exact backward, and *hidden-gradient injection* (the
//!   mechanism MOON's model-contrastive loss plugs into);
//! - [`models`]: the seven GNN backbones of the paper — GCN, GraphSAGE,
//!   SGC, SIGN, S²GC, GBP, GAMLP — behind one [`models::GraphModel`] trait.
//!
//! Every gradient in this crate is validated against finite differences in
//! tests; federated strategies rely on bit-exact parameter flattening.

pub mod init;
pub mod io;
pub mod loss;
pub mod metrics;
pub mod mlp;
pub mod models;
pub mod ops;
pub mod optim;
pub mod tensor;
pub mod workspace;

pub use mlp::Mlp;
pub use models::{GraphDataset, GraphModel, TrainHooks};
pub use optim::{Adam, OptState, Optimizer, Sgd};
pub use tensor::{MatView, Matrix};
pub use workspace::Workspace;

/// Errors produced by the NN stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NnError {
    /// Matrix dimensions incompatible for the requested op.
    ShapeMismatch {
        context: &'static str,
        lhs: (usize, usize),
        rhs: (usize, usize),
    },
    /// Flat parameter buffer length did not match the model.
    ParamLengthMismatch { expected: usize, found: usize },
}

impl std::fmt::Display for NnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NnError::ShapeMismatch { context, lhs, rhs } => write!(
                f,
                "shape mismatch in {context}: {}x{} vs {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            NnError::ParamLengthMismatch { expected, found } => {
                write!(f, "parameter buffer length {found}, model expects {expected}")
            }
        }
    }
}

impl std::error::Error for NnError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, NnError>;
