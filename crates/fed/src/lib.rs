//! # fedgta-fed — federated graph learning simulator
//!
//! The distributed-training substrate of the reproduction:
//!
//! - [`client::Client`]: a participant holding a local subgraph (built from
//!   a global benchmark via a Louvain/Metis [`fedgta_partition::Partition`]),
//!   its model, and optimizer;
//! - [`strategies`]: the six FGL optimization baselines the paper compares
//!   against — FedAvg, FedProx, Scaffold, MOON, FedDC, GCFL+ — plus the
//!   Local-only and Global references of Fig. 1(b), all behind one
//!   [`strategies::Strategy`] trait (FedGTA itself implements the same
//!   trait from the `fedgta` crate);
//! - [`fgl_models`]: the two FGL **Model** baselines — FedGL (overlap
//!   pseudo-label supervision) and FedSage+ (missing-neighbor generation) —
//!   which wrap any optimization strategy (Table 5);
//! - [`round::Simulation`]: the round driver with participation sampling,
//!   per-round evaluation and wall-clock accounting (Figs. 4–6);
//! - [`exec::train_participants`]: the deterministic client-parallel
//!   executor every strategy runs its local steps through — bit-identical
//!   results for any worker-thread count;
//! - [`kit`]: the per-worker training scratch (arena + optimizer moments)
//!   a run lends a client for the length of its turn, so a client between
//!   rounds is its data and one parameter vector;
//! - [`transport`] + [`faults`]: the explicit server/client message path
//!   (CRC-checksummed envelopes over a [`transport::Transport`]) and the
//!   seeded fault-injection layer behind the straggler-tolerant round
//!   orchestrator ([`round::CommsConfig`]);
//! - [`codec`]: composable upload codecs (identity, int8
//!   quantization, top-k sparsification, moment-sketch grouping, chains)
//!   compressing the client→server leg before the envelope CRC — armed
//!   via [`round::CommsConfig::codec`], lossless chains bit-identical to
//!   the plain path;
//! - [`ef`]: per-client error-feedback accumulators (delta-vs-reference
//!   with mirrored f32 references) that make aggressive sparsification
//!   accuracy-competitive, with scripted replay semantics under faults.

pub mod client;
pub mod codec;
pub mod ef;
pub mod eval;
pub mod exec;
pub mod faults;
pub mod fgl_models;
pub mod kit;
pub mod round;
pub mod strategies;
pub mod transport;

pub use client::{build_clients, Client, ClientBuildConfig};
pub use codec::{Chain, Codec, CodecSpec, Identity, QuantI8, SketchQuant, TopK};
pub use ef::{EfServer, EfState, EfTensor};
pub use eval::global_test_accuracy;
pub use exec::{mean_loss, par_clients, train_participants, LocalResult};
pub use faults::{FaultConfig, FaultEvent, FaultPlan, RoundScript};
pub use round::{CommsConfig, RoundRecord, SimConfig, Simulation};
pub use strategies::{Broadcast, RoundCtx, RoundStats, Strategy};
pub use transport::{
    ChannelTransport, CommsRound, ParamTensor, TensorRouter, Transport, WirePayload,
};

/// Errors from the federated simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FedError {
    /// A client index was out of range.
    UnknownClient(usize),
    /// A partition left a client without training nodes.
    EmptyClient(usize),
}

impl std::fmt::Display for FedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FedError::UnknownClient(c) => write!(f, "unknown client {c}"),
            FedError::EmptyClient(c) => write!(f, "client {c} has no training nodes"),
        }
    }
}

impl std::error::Error for FedError {}
