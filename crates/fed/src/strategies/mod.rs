//! FGL optimization strategies behind one [`Strategy`] trait.
//!
//! A strategy owns the *entire* federated round: it decides which
//! parameters each participant starts from, what auxiliary objectives are
//! injected into local training (via [`fedgta_nn::TrainHooks`]), and how
//! uploaded parameters are aggregated. This mirrors the paper's framing:
//! FedGTA is "a personalized optimization strategy" that can wrap any
//! local model — and here it implements exactly this trait (from the
//! `fedgta` crate), next to the six baselines.
//!
//! Every aggregating strategy is an [`Objective`] — a local objective and
//! a server rule returning the collaboration matrix `W` — run by the one
//! round of [`Averaged`], which owns the only model store and applies
//! `P′ = W·P`: FedAvg, FedProx, FedDC, MOON and Scaffold write one shared
//! slot, GCFL+ one per cluster, FedGTA (the `fedgta` crate) one per
//! client. [`LocalOnly`] aggregates nothing and keeps a round of its own.

pub mod averaged;
pub mod fedavg;
pub mod feddc;
pub mod fedprox;
pub mod gcfl;
pub mod moon;
pub mod scaffold;

pub use averaged::{
    apply_rows, Arrivals, Averaged, Collaboration, Next, Objective, Row, Store, Weighted,
};
pub use fedavg::{FedAvg, LocalOnly};
pub use feddc::FedDc;
pub use fedprox::FedProx;
pub use gcfl::GcflPlus;
pub use moon::Moon;
pub use scaffold::Scaffold;

use crate::client::Client;
use crate::kit::{Kit, Pool};
use fedgta_nn::models::PseudoLabels;

/// The start-of-round model broadcast: a view of the strategy's model
/// store, each participant with a slot loading its model (and resetting
/// its optimizer) before local training — through the armed download codec
/// ([`crate::round::CommsConfig::codec_down`]) as real wire bytes. In
/// memory a personal slot ([`Store`]) is its client's model already:
/// nothing loads.
///
/// **Arrival contract.** A client's slot goes `None → Some` when its upload
/// arrives (or earlier) and never back: a client that trains from no
/// vector and whose upload will arrive starts its next turn from a vector
/// and a reset, so the executor frees its moments as this turn ends
/// ([`crate::exec::train_participants`]).
pub type Broadcast<'a> = &'a Store;

/// Per-round context passed by the driver. A wrapper strategy that changes
/// one field copies the rest (`RoundCtx { field, ..*ctx }`), so a field
/// added here reaches every inner strategy.
#[derive(Clone, Copy, Default)]
pub struct RoundCtx<'a> {
    /// Local epochs per round (paper: 3 small / 5 large).
    pub epochs: usize,
    /// Optional FedGL-style pseudo-labels, indexed by position in the
    /// clients slice.
    pub pseudo: Option<&'a [Option<PseudoLabels>]>,
    /// Worker threads for client-parallel local training (0 = auto:
    /// `FEDGTA_THREADS` env var, else available parallelism). By the
    /// executor's determinism contract the value never changes results —
    /// only wall clock.
    pub threads: usize,
    /// Optional accumulator the executor adds local-training wall time
    /// into, so the driver can split a round into train/aggregate phases
    /// without threading timing through every strategy's return value.
    /// Observability only — never read by any strategy.
    pub train_clock: Option<&'a fedgta_obs::TimeCell>,
    /// Optional transport context: when set, the executor runs its wire
    /// stages over the round's [`crate::transport::Transport`] and
    /// replays its fault script — only the scripted survivors' results
    /// come back. `None` skips those stages: results return in memory.
    pub comms: Option<&'a crate::transport::CommsRound<'a>>,
    /// The strategy's model store, each participant with a slot loading it
    /// before its training closure runs ([`Broadcast`], with its arrival
    /// contract). `None` is for a strategy that broadcasts nothing
    /// ([`LocalOnly`]) — not a second way to start a round: a model
    /// installed inside the closure never reaches the download codec or the
    /// error-feedback anchor, so a closure reads its anchors off `c.model`,
    /// which the executor has already loaded.
    pub broadcast: Option<Broadcast<'a>>,
    /// The run's pool of per-worker training scratch ([`crate::kit`]): the
    /// executor, evaluation and FedGL's prediction pass lend a client a kit
    /// for the length of its turn. `None` (a context built without a
    /// [`crate::Simulation`]) lends nothing — every model and optimizer
    /// then uses its own arena and state. Never changes a result.
    pub kits: Option<&'a Pool<Kit>>,
}

impl<'a> RoundCtx<'a> {
    /// A plain context with no auxiliary supervision and automatic
    /// thread-count selection.
    pub fn plain(epochs: usize) -> Self {
        Self::with_threads(epochs, 0)
    }

    /// A plain context with an explicit worker-thread count
    /// (0 = automatic).
    pub fn with_threads(epochs: usize, threads: usize) -> Self {
        Self { epochs, threads, ..Self::default() }
    }

    /// Attaches a train-phase wall-clock accumulator (builder style).
    #[must_use]
    pub fn with_train_clock(mut self, clock: &'a fedgta_obs::TimeCell) -> Self {
        self.train_clock = Some(clock);
        self
    }

    /// The pseudo-labels for client `i`, if any.
    pub fn pseudo_for(&self, i: usize) -> Option<&'a PseudoLabels> {
        self.pseudo.and_then(|p| p.get(i)).and_then(|p| p.as_ref())
    }
}

/// Statistics reported by one round.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RoundStats {
    /// Mean local training loss over participants.
    pub mean_loss: f32,
    /// Bytes the participants uploaded this round (model weights plus any
    /// strategy-specific extras like control variates or FedGTA sketches).
    pub bytes_uploaded: usize,
    /// Bytes the server pushed back down this round (aggregated weights
    /// broadcast to clients, plus strategy extras like control variates).
    pub bytes_downloaded: usize,
}

/// A federated optimization strategy.
pub trait Strategy: Send {
    /// Human-readable name matching the paper's tables.
    fn name(&self) -> String;
    /// Executes one round: local training on `participants` + aggregation
    /// + distribution of updated models.
    fn round(
        &mut self,
        clients: &mut [Client],
        participants: &[usize],
        ctx: &RoundCtx<'_>,
    ) -> RoundStats;
    /// Heap bytes of the model store the strategy keeps between rounds
    /// ([`Store::bytes`]); 0 for one that keeps none.
    fn store_bytes(&self) -> usize {
        0
    }
}

/// Elementwise `a - b`.
pub fn sub(a: &[f32], b: &[f32]) -> Vec<f32> {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(&x, &y)| x - y).collect()
}

/// Euclidean norm of a flat vector.
pub fn l2_norm(v: &[f32]) -> f64 {
    v.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>().sqrt()
}

/// Test/bench utilities: a small deterministic federation for unit tests
/// across crates (not part of the stable API).
pub mod test_support {
    use crate::client::{build_clients, Client, ClientBuildConfig};
    use fedgta_data::{generate_from_spec, DatasetSpec, Task};
    use fedgta_nn::models::{ModelConfig, ModelKind};
    use fedgta_partition::{communities_to_clients, louvain, LouvainConfig};

    /// A small 4-client federation on a synthetic homophilous graph.
    pub fn small_federation(kind: ModelKind, seed: u64) -> Vec<Client> {
        federation_with(kind, seed, 4, 600)
    }

    /// A federation with an arbitrary client count and graph size — used
    /// by determinism/scaling tests that need more clients than worker
    /// threads.
    pub fn federation_with(
        kind: ModelKind,
        seed: u64,
        num_clients: usize,
        nodes: usize,
    ) -> Vec<Client> {
        let spec = DatasetSpec {
            name: "unit",
            nodes,
            features: 16,
            classes: 4,
            avg_degree: 8.0,
            train_frac: 0.3,
            val_frac: 0.2,
            test_frac: 0.5,
            task: Task::Transductive,
            blocks_per_class: 3,
            homophily: 0.85,
            description: "unit-test graph",
        };
        let bench = generate_from_spec(&spec, seed);
        let comm = louvain(&bench.graph, &LouvainConfig::default());
        let parts = communities_to_clients(&comm, num_clients).unwrap();
        build_clients(
            &bench,
            &parts,
            &ClientBuildConfig {
                model: ModelConfig {
                    kind,
                    hidden: 16,
                    layers: 2,
                    k: 2,
                    batch_size: 0,
                    seed,
                    ..ModelConfig::default()
                },
                lr: 0.03,
                weight_decay: 0.0,
                halo: false,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_average_weights_proportionally() {
        // FedAvg's weighted average is one row through the kernel.
        let (a, b) = ([1.0f32, 0.0], [0.0f32, 1.0]);
        let mut avg = Vec::new();
        Row::average([(0, 1.0), (1, 3.0)]).apply(&[&a, &b], &mut avg);
        assert!((avg[0] - 0.25).abs() < 1e-6);
        assert!((avg[1] - 0.75).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "cannot average zero uploads")]
    fn empty_average_panics() {
        Row::average(std::iter::empty());
    }

    #[test]
    fn sub_and_norm() {
        let d = sub(&[3.0, 4.0], &[0.0, 0.0]);
        assert_eq!(d, vec![3.0, 4.0]);
        assert!((l2_norm(&d) - 5.0).abs() < 1e-9);
    }
}
