//! # fedgta — Federated Graph Topology-aware Aggregation (VLDB 2023)
//!
//! The paper's contribution: a *personalized* federated optimization
//! strategy that lets each client aggregate only with clients whose
//! subgraphs look alike, weighting them by how smooth (confident) their
//! local predictions are. The pipeline (paper §3.1):
//!
//! 1. **Non-parametric label propagation** ([`lp`], Eq. 3) — each client
//!    propagates its soft predictions `Ŷ = softmax(Encoder(A, X))` through
//!    `k` personalized-PageRank steps (`α = 1/2, k = 5`), producing the
//!    topology-aware soft label sequence `Ŷ¹ … Ŷᵏ`;
//! 2. **Local smoothing confidence** ([`confidence`], Eq. 4) — the
//!    degree-weighted gap between the entropy ceiling `e⁻¹` and the actual
//!    per-entry entropy of `Ŷᵏ`: smooth subgraphs ⇒ confident predictions
//!    ⇒ large `H`;
//! 3. **Mixed moments of neighbor features** ([`moments`], Eq. 5) — the
//!    `K`-order central (or raw) moments of each propagation step,
//!    concatenated into `M ∈ R^{(k·K)×|Y|}` — a compact, private sketch of
//!    the local subgraph's label topology;
//! 4. **Server aggregation** ([`similarity`] + [`aggregate`], Eqs. 6–7) —
//!    for each client, the set `Iᵢ = {j : sim(Mᵢ, Mⱼ) ≥ ε} ∪ {i}` and the
//!    personalized average `W̃ᵢ = Σ_{j∈Iᵢ} (Hⱼ/ΣH) Wⱼ`.
//!
//! [`strategy::TopologyAware`] packages the pipeline as an
//! [`fedgta_fed::strategies::Objective`] — steps 1–3 its local step, step
//! 4 its server rule, one row of `W` per arriving client — and
//! [`strategy::FedGta`] runs it through the one aggregating round, drop-in
//! next to FedAvg/FedProx/…, with ablation switches for Table 6
//! (`use_moments`, `use_confidence`).

pub mod aggregate;
pub mod config;
pub mod confidence;
pub mod extensions;
pub mod lp;
pub mod moments;
pub mod scratch;
pub mod similarity;
pub mod strategy;

pub use aggregate::{
    personalized_aggregate, personalized_aggregate_into, personalized_rows, AggregateOptions,
    AggregationReport, ClientUpload,
};
pub use config::FedGtaConfig;
pub use extensions::{adaptive_epsilon, feature_moment_sketch, FeatureMomentConfig};
pub use confidence::local_smoothing_confidence;
pub use lp::label_propagation;
pub use lp::label_propagation_into;
pub use moments::{mixed_moments, mixed_moments_into, MomentKind};
pub use scratch::UploadScratch;
pub use similarity::{moment_similarity, similarity_matrix_threads, SimilarityKind};
pub use strategy::{FedGta, TopologyAware};
