//! # fedgta-data — synthetic graph benchmarks
//!
//! The paper evaluates on 12 public datasets (Table 2). Those downloads are
//! unavailable here, so this crate generates *synthetic stand-ins* with a
//! degree-corrected stochastic block model whose knobs reproduce the three
//! properties FedGTA's mechanism depends on:
//!
//! 1. **community structure** — nodes live in blocks (several per class),
//!    so Louvain/Metis splits hand whole communities to clients and the
//!    label Non-iid phenomenon of the paper's Fig. 1(a) emerges;
//! 2. **homophily** — a configurable fraction of edges stay within a
//!    class, so label propagation smooths and GNNs beat MLPs;
//! 3. **class-correlated features** — Gaussian class centroids with
//!    controllable separation/noise, so models have signal to learn.
//!
//! [`catalog`] mirrors each paper dataset's node/feature/class counts
//! (large graphs scaled down; see DESIGN.md §3.1). Everything is seeded.

#![deny(unsafe_code)]

pub mod catalog;
pub mod features;
pub mod sbm;
pub mod spec;
pub mod splits;

pub use catalog::{generate_from_spec, load_benchmark, spec_by_name, Benchmark, SPECS};
pub use sbm::{generate_sbm, stream_sbm, SbmConfig, SbmGraph, StreamedSbm};
pub use spec::{DatasetSpec, Task};

/// Errors from dataset generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataError {
    /// Unknown dataset name passed to the catalog.
    UnknownDataset(String),
    /// Inconsistent spec (e.g. zero classes).
    InvalidSpec(&'static str),
}

impl std::fmt::Display for DataError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataError::UnknownDataset(n) => write!(f, "unknown dataset '{n}'"),
            DataError::InvalidSpec(m) => write!(f, "invalid dataset spec: {m}"),
        }
    }
}

impl std::error::Error for DataError {}
