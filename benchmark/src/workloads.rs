//! The four pinned workloads and the set-up that turns one of them plus
//! a seed into a federation.
//!
//! Each workload exists to put most of a round's time in a different
//! layer (see `README.md` for the measured shares), so that an
//! optimisation to one layer has a workload that shows it and three on
//! which the prediction is "no change".

use fedgta_bench::runner::{partition_benchmark, SplitKind};
use fedgta_bench::scale::{build_scale_clients, generate_raw};
use fedgta_data::load_benchmark;
use fedgta_fed::client::{build_clients, Client, ClientBuildConfig};
use fedgta_fed::codec::CodecSpec;
use fedgta_fed::faults::FaultConfig;
use fedgta_fed::round::{CommsConfig, SimConfig};
use fedgta_nn::models::{ModelConfig, ModelKind};
use std::path::Path;
use std::time::Instant;

/// Where a workload's graph and clients come from.
pub enum Source {
    /// A catalog dataset generated in memory, split by a partitioner,
    /// with one local model per client (the CLI's `run` recipe).
    Catalog {
        dataset: &'static str,
        split: SplitKind,
        model: ModelKind,
        hidden: usize,
    },
    /// A stochastic block model streamed to a chunked v2 file; clients
    /// are contiguous block ranges extracted by tile reads, with SGC
    /// (k = 2) backbones (the scale bench's recipe).
    ScaleSbm { nodes: usize, avg_degree: f64 },
}

pub struct Workload {
    pub name: &'static str,
    /// One sentence: why the workload exists.
    pub why: &'static str,
    pub source: Source,
    pub clients: usize,
    pub epochs: usize,
    pub participation: f64,
    pub eval_every: usize,
    /// Measured rounds per block, after [`WARMUP_ROUNDS`].
    pub rounds: usize,
    /// `SimConfig::threads`: workers for client-parallel training and
    /// row-parallel aggregation.
    pub threads_outer: usize,
    /// Rounds cross the channel transport with codecs, error feedback
    /// and injected faults.
    pub wire: bool,
    /// `fed.rounds_to_acc` is the first measured round whose test
    /// accuracy reaches this (about 0.97 of the final accuracy).
    pub acc_target: f64,
    /// A full-length run whose final accuracy is below this is incorrect
    /// (about 0.9 of what the pinned recipe reaches on any seed).
    pub acc_floor: f64,
    /// Listed in `BENCHMARK.json`: the driver runs it and holds later
    /// changes to its bounds. The driver's hour is shared by the listed
    /// workloads, and on this shared machine a run has to be about 40 s
    /// long for its fastest round to be steady, which leaves room for
    /// three; a workload that is not listed runs by hand all the same.
    pub listed: bool,
}

/// Round 1 pays lazy precompute (feature propagation, normalisation
/// caches) and first-touch allocation; users pay it once per run, so it
/// is counted in `setup_s` and not in the per-round metrics.
pub const WARMUP_ROUNDS: usize = 1;

/// `FEDGTA_THREADS` for every workload: kernels run inline on the thread
/// that calls them. With it unset, a serial round spawns threads inside
/// every kernel call (cora/GCN ran 3–5× slower that way in sizing runs).
pub const THREADS_KERNEL: usize = 1;

pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "pubmed_gcn_direct",
            why: "Coupled-GNN local training (dense matmul kernels at m~2000, SpMM at 64 columns) is most of the round; server and wire are near zero, so only kernel work should move it.",
            source: Source::Catalog {
                dataset: "pubmed",
                split: SplitKind::Louvain,
                model: ModelKind::Gcn,
                hidden: 64,
            },
            clients: 10,
            epochs: 3,
            participation: 1.0,
            eval_every: 1,
            rounds: 12,
            threads_outer: 1,
            wire: false,
            acc_target: 0.72,
            acc_floor: 0.65,
            // Its layer, dense training kernels, is also most of a round
            // on `cora_gcn_wire` (71 %) and `arxiv_sign_128c` (58 %).
            listed: false,
        },
        Workload {
            name: "cora_gcn_wire",
            why: "270-node clients over the channel transport with top-k+i8 uploads, error feedback, i8 broadcasts and injected drops/corruption: fold, codec, CRC envelope and mailbox take their largest share.",
            source: Source::Catalog {
                dataset: "cora",
                split: SplitKind::Louvain,
                model: ModelKind::Gcn,
                hidden: 32,
            },
            clients: 10,
            epochs: 3,
            participation: 1.0,
            eval_every: 1,
            rounds: 60,
            threads_outer: 1,
            wire: true,
            acc_target: 0.65,
            acc_floor: 0.55,
            listed: true,
        },
        Workload {
            name: "arxiv_sign_128c",
            why: "128 clients with a 103592-parameter SIGN head on two worker threads: Eq. 6/7 aggregation over 128 x 1e5 floats, parameter export and allocation churn are largest here; codecs play no part.",
            source: Source::Catalog {
                dataset: "ogbn-arxiv",
                split: SplitKind::Metis,
                model: ModelKind::Sign,
                hidden: 128,
            },
            clients: 128,
            epochs: 1,
            participation: 1.0,
            eval_every: 1,
            rounds: 4,
            threads_outer: 2,
            wire: false,
            acc_target: 0.86,
            acc_floor: 0.75,
            listed: true,
        },
        Workload {
            name: "sbm1m_sgc_disk",
            why: "A 1e6-node graph streamed to disk and read back by tiles, 32 clients at 25% participation: set-up and memory are first-order; label propagation + moments (16-column SpMM, 31k nodes) rival training.",
            source: Source::ScaleSbm { nodes: 1_000_000, avg_degree: 8.0 },
            clients: 32,
            epochs: 2,
            participation: 0.25,
            eval_every: 5,
            rounds: 16,
            threads_outer: 1,
            wire: false,
            acc_target: 0.90,
            acc_floor: 0.80,
            listed: true,
        },
    ]
}

pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

impl Workload {
    pub fn sim_config(&self, seed: u64, rounds: usize) -> SimConfig {
        SimConfig {
            rounds: WARMUP_ROUNDS + rounds,
            local_epochs: self.epochs,
            participation: self.participation,
            eval_every: self.eval_every,
            seed,
            threads: self.threads_outer,
        }
    }

    /// The transport configuration of a wire workload. No `crash` fault:
    /// the harness reports a lost participant as a failed operation, and
    /// a workload is chosen so that none fails — with five retries a
    /// message is lost with probability 0.07⁶ ≈ 1e-7, so the retry and
    /// CRC-reject paths run on every block and the give-up path never.
    pub fn comms(&self, seed: u64) -> Option<CommsConfig> {
        self.wire.then(|| CommsConfig {
            faults: FaultConfig::parse("drop=0.05,corrupt=0.02,retries=5")
                .expect("valid fault spec"),
            fault_seed: seed ^ 0xFA17,
            codec: Some(CodecSpec::parse("topk=512+quant-i8").expect("valid codec chain")),
            codec_down: Some(CodecSpec::parse("quant-i8").expect("valid codec chain")),
            codec_sketch: Some(CodecSpec::parse("sketch").expect("valid codec chain")),
            error_feedback: true,
            ..CommsConfig::default()
        })
    }
}

/// A federation ready to run, with the wall time of each set-up phase.
pub struct Federation {
    pub clients: Vec<Client>,
    /// Dataset generation (`load_benchmark` / `generate_raw`).
    pub load_s: f64,
    /// Partitioning (`louvain` / `metis_kway`; 0 for block-range clients).
    pub split_s: f64,
    /// `build_clients` / `build_scale_clients`.
    pub build_s: f64,
}

/// Generates the workload's inputs from `seed` and builds its clients.
/// `scratch` holds the streamed graph file while clients are extracted.
pub fn build_federation(w: &Workload, seed: u64, scratch: &Path) -> Federation {
    match w.source {
        Source::Catalog {
            dataset,
            split,
            model,
            hidden,
        } => {
            let t = Instant::now();
            let bench = load_benchmark(dataset, seed).expect("catalog dataset");
            let load_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let parts = partition_benchmark(&bench, split, w.clients, seed);
            let split_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let clients = build_clients(
                &bench,
                &parts,
                &ClientBuildConfig {
                    model: ModelConfig {
                        kind: model,
                        hidden,
                        layers: 2,
                        k: 5,
                        beta: 0.15,
                        batch_size: 256,
                        seed,
                        ..ModelConfig::default()
                    },
                    lr: 0.02,
                    weight_decay: 5e-4,
                    halo: false,
                },
            );
            Federation {
                clients,
                load_s,
                split_s,
                build_s: t.elapsed().as_secs_f64(),
            }
        }
        Source::ScaleSbm { nodes, avg_degree } => {
            let raw =
                generate_raw(nodes, avg_degree, seed, scratch).expect("streamed SBM generation");
            let t = Instant::now();
            let clients = build_scale_clients(&raw, w.clients, seed);
            let build_s = t.elapsed().as_secs_f64();
            let _ = std::fs::remove_file(&raw.path);
            Federation {
                clients,
                load_s: raw.gen_s,
                split_s: 0.0,
                build_s,
            }
        }
    }
}
