//! # fedgta-graph — sparse graph engine
//!
//! The storage and compute substrate shared by every other crate in the FedGTA
//! reproduction: compressed sparse row (CSR) adjacency, the GCN-style
//! normalization family `D̂^{r-1} Â D̂^{-r}`, parallel sparse × dense
//! multiplication (the kernel behind feature propagation and non-parametric
//! label propagation), subgraph extraction with optional 1-hop halos, and the
//! structural metrics (homophily, modularity) used to validate synthetic data
//! and partitions.
//!
//! Design notes:
//! - Node ids are `u32` (graphs in this reproduction stay well below 2^32
//!   nodes); row offsets are `usize`.
//! - Edge weights are `f32`; an unweighted graph stores no weight vector and
//!   is treated as all-ones.
//! - All kernels are deterministic; parallel kernels partition rows into
//!   contiguous chunks so results are bit-identical regardless of thread
//!   count.

#![deny(unsafe_code)]

pub mod coo;
pub mod csr;
pub mod io;
pub mod metrics;
pub mod norm;
pub mod par;
pub mod spmm;
pub mod store;
pub mod subgraph;

pub use coo::EdgeList;
pub use csr::Csr;
pub use norm::{normalized_adjacency, NormKind};
pub use store::{ChunkedCsr, CsrBuilder, RowSink, TileBuf, TileReader};
pub use subgraph::{halo_subgraph, induced_subgraphs, Subgraph};

/// Errors produced by graph construction and kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge endpoint was `>=` the declared node count.
    NodeOutOfRange { node: u32, num_nodes: usize },
    /// A dense operand had incompatible dimensions with the sparse matrix.
    DimensionMismatch { expected: usize, found: usize, context: &'static str },
    /// A weight vector length did not match the edge count.
    WeightLengthMismatch { edges: usize, weights: usize },
    /// The requested node subset was empty.
    EmptySubset,
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, num_nodes } => {
                write!(f, "node id {node} out of range for graph with {num_nodes} nodes")
            }
            GraphError::DimensionMismatch { expected, found, context } => {
                write!(f, "dimension mismatch in {context}: expected {expected}, found {found}")
            }
            GraphError::WeightLengthMismatch { edges, weights } => {
                write!(f, "weight vector length {weights} does not match edge count {edges}")
            }
            GraphError::EmptySubset => write!(f, "node subset is empty"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, GraphError>;
