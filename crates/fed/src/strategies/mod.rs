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
//! A FedAvg-family baseline is a local objective and a server rule: FedAvg,
//! FedProx, FedDC, MOON and Scaffold are [`Objective`]s of the one round
//! [`Averaged`] runs ([`averaged`]), and GCFL+ runs each cluster through it.

pub mod averaged;
pub mod feddc;
pub mod fedavg;
pub mod fedprox;
pub mod gcfl;
pub mod moon;
pub mod privacy;
pub mod scaffold;

pub use averaged::{Averaged, Objective, Server, Weighted};
pub use feddc::FedDc;
pub use fedavg::{FedAvg, LocalOnly};
pub use fedprox::FedProx;
pub use gcfl::GcflPlus;
pub use moon::Moon;
pub use privacy::DpUpload;
pub use scaffold::Scaffold;

use crate::client::Client;
use crate::kit::{Kit, Pool};
use fedgta_nn::models::PseudoLabels;

/// The start-of-round model broadcast a strategy hands the executor:
/// the parameter vector each participant loads (and resets its optimizer
/// for) *before* local training. Declaring it here — instead of each
/// strategy setting parameters inside its training closure — lets the
/// transport path route the broadcast through the armed download codec
/// ([`crate::round::CommsConfig::codec_down`]) as real wire bytes.
///
/// **Arrival contract.** A strategy that declares a broadcast holds a
/// vector for every client whose upload has reached it: `Global` always
/// has one, and a `PerClient` entry goes `None → Some` when that client's
/// upload arrives and never back. The executor relies on it: a client that
/// trains from no vector and whose upload will arrive starts its next turn
/// from a vector and a reset, so its optimizer moments die with this turn
/// ([`crate::exec::train_participants`]).
#[derive(Clone, Copy)]
pub enum Broadcast<'a> {
    /// One shared global model for every participant (FedAvg family).
    Global(&'a [f32]),
    /// A personalized model per federation index (FedGTA); `None` entries
    /// mean "no broadcast yet" — the client trains from where it is, on
    /// the moments it holds. An entry turns `Some` when the client's
    /// upload arrives, and stays so.
    PerClient(&'a [Option<Vec<f32>>]),
}

impl<'a> Broadcast<'a> {
    /// The vector client `i` starts this round from, if any.
    pub fn vector_for(&self, i: usize) -> Option<&'a [f32]> {
        match self {
            Broadcast::Global(g) => Some(g),
            Broadcast::PerClient(p) => p.get(i).and_then(|v| v.as_deref()),
        }
    }
}

/// What [`RoundCtx::upload_filter`] points at: `f(client, start, params)`.
pub type UploadFilter<'a> = &'a (dyn Fn(usize, &[f32], &mut [f32]) + Sync);

/// Per-round context passed by the driver. A wrapper strategy that changes
/// one field copies the rest (`RoundCtx { field, ..*ctx }`), so a field
/// added here reaches every inner strategy.
#[derive(Clone, Copy)]
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
    /// The strategy's start-of-round model broadcast, applied by the
    /// executor to every participant before its training closure runs
    /// (through the download codec when one is armed). `None` is for a
    /// strategy that broadcasts nothing ([`LocalOnly`]) — not a second way
    /// to start a round: a model installed inside the closure never
    /// reaches the download codec or the error-feedback anchor, so a
    /// closure reads its anchors off `c.model`, which the executor has
    /// already loaded. Declaring one is a promise ([`Broadcast`]'s arrival
    /// contract): every client whose upload arrives has a vector in every
    /// later round — the executor frees such a client's moments when a
    /// turn from no vector ends.
    pub broadcast: Option<Broadcast<'a>>,
    /// Optional rewrite of what a participant uploads ([`DpUpload`]). The
    /// executor calls it with the client's index, the model the client
    /// started the round from (the installed broadcast, else its
    /// parameters before training) and payload tensor 0 — the parameter
    /// tensor, the convention [`crate::ef`] folds by — as soon as the
    /// training closure returns: transport, codecs, error feedback and
    /// the strategy's aggregation only ever see what it leaves there. It
    /// runs on the client's worker thread, so it must not draw from shared
    /// state.
    pub upload_filter: Option<UploadFilter<'a>>,
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
        Self {
            epochs,
            pseudo: None,
            threads,
            train_clock: None,
            comms: None,
            broadcast: None,
            upload_filter: None,
            kits: None,
        }
    }

    /// Attaches a train-phase wall-clock accumulator (builder style).
    #[must_use]
    pub fn with_train_clock(mut self, clock: &'a fedgta_obs::TimeCell) -> Self {
        self.train_clock = Some(clock);
        self
    }

    /// A copy of this context carrying a start-of-round broadcast —
    /// strategies call this at the top of `round()` so the executor
    /// distributes models (and meters/compresses the download leg when
    /// armed) instead of the training closure doing it silently.
    #[must_use]
    pub fn with_broadcast(&self, b: Broadcast<'a>) -> RoundCtx<'a> {
        RoundCtx { broadcast: Some(b), ..*self }
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
}

/// `Σ wᵢ·paramsᵢ / Σ wᵢ` over uploaded parameter vectors. A zero total —
/// no upload has a training node — weighs the uploads alike, the uniform
/// fallback of Eq. 7.
pub fn weighted_average(uploads: &[(Vec<f32>, f64)]) -> Vec<f32> {
    assert!(!uploads.is_empty(), "cannot average zero uploads");
    let len = uploads[0].0.len();
    let (uniform, total) = match uploads.iter().map(|(_, w)| w).sum::<f64>() {
        total if total > 0.0 => (false, total),
        _ => (true, uploads.len() as f64),
    };
    let mut out = vec![0f64; len];
    for (p, w) in uploads {
        assert_eq!(p.len(), len, "inconsistent parameter lengths");
        let w = if uniform { 1.0 } else { *w };
        for (o, &v) in out.iter_mut().zip(p) {
            *o += w * v as f64;
        }
    }
    out.iter().map(|&v| (v / total) as f32).collect()
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

    /// Global test accuracy over all clients.
    pub fn federation_accuracy(clients: &mut [Client]) -> f64 {
        crate::eval::global_test_accuracy(clients)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_average_weights_proportionally() {
        let avg = weighted_average(&[(vec![1.0, 0.0], 1.0), (vec![0.0, 1.0], 3.0)]);
        assert!((avg[0] - 0.25).abs() < 1e-6);
        assert!((avg[1] - 0.75).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "cannot average zero uploads")]
    fn empty_average_panics() {
        weighted_average(&[]);
    }

    #[test]
    fn sub_and_norm() {
        let d = sub(&[3.0, 4.0], &[0.0, 0.0]);
        assert_eq!(d, vec![3.0, 4.0]);
        assert!((l2_norm(&d) - 5.0).abs() < 1e-9);
    }
}
