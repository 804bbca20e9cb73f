//! The experiment runner: benchmark → partition → federation → rounds.

use fedgta::{FedGta, FedGtaConfig};
use fedgta_data::{load_benchmark, Benchmark};
use fedgta_fed::client::{build_clients, ClientBuildConfig};
use fedgta_fed::fgl_models::{FedGl, FedSagePlus};
use fedgta_fed::round::{best_accuracy, RoundRecord, SimConfig, Simulation};
use fedgta_fed::strategies::{FedAvg, FedDc, FedProx, GcflPlus, LocalOnly, Moon, Scaffold, Strategy};
use fedgta_nn::metrics::accuracy;
use fedgta_nn::models::{build_model, ModelConfig, ModelKind};
use fedgta_nn::{Adam, TrainHooks};
use fedgta_partition::{communities_to_clients, louvain, metis_kway, LouvainConfig, MetisConfig, Partition};

/// Which federated split simulation to use (paper §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitKind {
    /// Louvain communities packed onto clients.
    Louvain,
    /// Metis-style balanced k-way partition.
    Metis,
}

impl SplitKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SplitKind::Louvain => "Louvain",
            SplitKind::Metis => "Metis",
        }
    }
}

/// The strategy names the runner accepts.
pub const STRATEGY_NAMES: &[&str] = &[
    "Local", "FedAvg", "FedProx", "Scaffold", "MOON", "FedDC", "GCFL+", "FedGTA",
    "FedGTA-noMom", "FedGTA-noConf",
];

/// What a table cell trains with: the label its row prints and a
/// constructor, so a sweep over `FedGtaConfig` or a `DpUpload` wrapper is
/// as much a cell as a named baseline.
#[derive(Debug, Clone, Copy)]
pub struct StrategySpec {
    /// Row label.
    pub label: &'static str,
    /// Builds a fresh strategy for one run.
    pub make: fn() -> Box<dyn Strategy>,
}

/// Builds a strategy by name (paper-default hyperparameters); panics on a
/// name [`strategy_named`] does not know.
pub fn make_strategy(name: &str) -> Box<dyn Strategy> {
    strategy_named(name).unwrap_or_else(|| panic!("unknown strategy '{name}'"))
}

/// A strategy by name, or `None` for an unknown one: one of
/// [`STRATEGY_NAMES`], or `FedGL+X` / `FedSage++X`, which wrap the named
/// inner strategy with the FGL Model baselines (Table 5).
pub fn strategy_named(name: &str) -> Option<Box<dyn Strategy>> {
    if let Some(inner) = name.strip_prefix("FedGL+") {
        return Some(Box::new(FedGl::new(strategy_named(inner)?)));
    }
    if let Some(inner) = name.strip_prefix("FedSage++") {
        return Some(Box::new(FedSagePlus::new(strategy_named(inner)?)));
    }
    let strategy: Box<dyn Strategy> = match name {
        "Local" => Box::new(LocalOnly::new()),
        "FedAvg" => Box::new(FedAvg::new()),
        "FedProx" => Box::new(FedProx::new(0.01)),
        "Scaffold" => Box::new(Scaffold::new()),
        "MOON" => Box::new(Moon::new(1.0, 0.5)),
        "FedDC" => Box::new(FedDc::new(0.01)),
        "GCFL+" => Box::new(GcflPlus::new(5, 1.1)),
        "FedGTA" => Box::new(FedGta::with_defaults()),
        "FedGTA-noMom" => Box::new(FedGta::from(FedGtaConfig::without_moments())),
        "FedGTA-noConf" => Box::new(FedGta::from(FedGtaConfig::without_confidence())),
        _ => return None,
    };
    Some(strategy)
}

/// Partitions a benchmark into `n_clients` federated subgraphs.
pub fn partition_benchmark(
    bench: &Benchmark,
    split: SplitKind,
    n_clients: usize,
    seed: u64,
) -> Partition {
    match split {
        SplitKind::Louvain => {
            // Louvain's resolution limit can merge planted communities
            // below the client count; escalate the resolution until enough
            // communities exist (real FGL pipelines hit the same issue on
            // dense graphs). Metis remains the last-resort fallback.
            for resolution in [1.0f64, 2.0, 4.0, 8.0, 16.0] {
                let comm = louvain(
                    &bench.graph,
                    &LouvainConfig {
                        seed,
                        resolution,
                        ..LouvainConfig::default()
                    },
                );
                if comm.num_parts >= n_clients {
                    return communities_to_clients(&comm, n_clients)
                        .expect("enough communities");
                }
            }
            metis_kway(&bench.graph, n_clients, &MetisConfig { seed, ..MetisConfig::default() })
                .expect("valid k")
        }
        SplitKind::Metis => metis_kway(
            &bench.graph,
            n_clients,
            &MetisConfig {
                seed,
                ..MetisConfig::default()
            },
        )
        .expect("valid k"),
    }
}

/// Hidden width of every table's local model.
const HIDDEN: usize = 32;

/// One experiment cell: dataset × model × strategy × split.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// Catalog dataset name.
    pub dataset: String,
    /// Local model backbone.
    pub model: ModelKind,
    /// Strategy label and constructor.
    pub strategy: StrategySpec,
    /// Federated split simulation.
    pub split: SplitKind,
    /// Number of clients.
    pub clients: usize,
    /// Communication rounds.
    pub rounds: usize,
    /// Local epochs per round.
    pub epochs: usize,
    /// Independent runs (different seeds); paper uses 10.
    pub runs: usize,
    /// Client participation fraction per round.
    pub participation: f64,
    /// Evaluate every this many rounds (trade accuracy-curve resolution
    /// for wall-clock).
    pub eval_every: usize,
    /// Build halo (ghost-node) clients — FedGL reads them.
    pub halo: bool,
    /// Base seed.
    pub seed: u64,
}

impl ExperimentSpec {
    /// A sensible default cell; override fields as needed.
    pub fn new(dataset: &str, model: ModelKind, strategy: StrategySpec) -> Self {
        Self {
            dataset: dataset.to_string(),
            model,
            strategy,
            split: SplitKind::Louvain,
            clients: 10,
            rounds: 30,
            epochs: 3,
            runs: 2,
            participation: 1.0,
            eval_every: 1,
            halo: false,
            seed: 0,
        }
    }
}

/// Aggregated result over runs.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Mean of the best test accuracy across runs.
    pub mean: f64,
    /// Population standard deviation across runs.
    pub std: f64,
    /// Per-run round records.
    pub histories: Vec<Vec<RoundRecord>>,
}

pub(crate) fn mean_std(xs: &[f64]) -> (f64, f64) {
    let n = xs.len().max(1) as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// Runs one experiment cell over `spec.runs` seeds.
pub fn run_experiment(spec: &ExperimentSpec) -> ExperimentResult {
    let mut bests = Vec::with_capacity(spec.runs);
    let mut histories = Vec::with_capacity(spec.runs);
    for run in 0..spec.runs {
        let seed = spec.seed + run as u64;
        let bench = load_benchmark(&spec.dataset, seed).expect("known dataset");
        let parts = partition_benchmark(&bench, spec.split, spec.clients, seed);
        let model = ModelConfig::paper(spec.model, HIDDEN, seed);
        let clients = build_clients(&bench, &parts, &ClientBuildConfig::paper(model, spec.halo));
        let mut sim = Simulation::new(
            clients,
            (spec.strategy.make)(),
            SimConfig {
                rounds: spec.rounds,
                local_epochs: spec.epochs,
                participation: spec.participation,
                eval_every: spec.eval_every,
                seed,
                threads: 0,
            },
        );
        let records = sim.run();
        bests.push(best_accuracy(&records));
        histories.push(records);
    }
    let (mean, std) = mean_std(&bests);
    ExperimentResult {
        mean,
        std,
        histories,
    }
}

/// The "Global" reference of Table 3 and Fig. 1(b): the cell's model
/// trained centrally on the full graph for the `rounds × epochs` epochs
/// each of its federated clients gets.
pub fn run_global(spec: &ExperimentSpec) -> ExperimentResult {
    let epochs = spec.rounds * spec.epochs;
    let accs: Vec<f64> = (0..spec.runs as u64)
        .map(|run| {
            let seed = spec.seed + run;
            let raw = load_benchmark(&spec.dataset, seed).expect("known dataset").to_dataset();
            let cfg = ModelConfig::paper(spec.model, HIDDEN, seed);
            let mut m = build_model(&cfg, raw.num_features(), raw.num_classes);
            let data = m.prepare(raw);
            let mut opt = Adam::new(0.02, 5e-4);
            let mut best = 0f64;
            for e in 0..epochs {
                m.train_epoch(&data, &mut opt, &mut TrainHooks::none());
                if e % 5 == 4 || e + 1 == epochs {
                    let probs = m.predict(&data);
                    best = best.max(accuracy(&probs, &data.labels, &data.test_nodes));
                }
            }
            best
        })
        .collect();
    let (mean, std) = mean_std(&accs);
    ExperimentResult { mean, std, histories: Vec::new() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_strategy_names_resolve() {
        for name in STRATEGY_NAMES {
            let s = make_strategy(name);
            assert!(!s.name().is_empty());
        }
        assert_eq!(make_strategy("FedGL+FedAvg").name(), "FedGL+FedAvg");
        assert_eq!(make_strategy("FedSage++MOON").name(), "FedSage++MOON");
        for unknown in ["Nope", "FedGL+", "FedSage++Nope", "fedavg"] {
            assert!(strategy_named(unknown).is_none(), "{unknown}");
        }
    }

    #[test]
    fn a_round_with_no_arrival_keeps_every_model() {
        use fedgta_fed::client::Client;
        use fedgta_fed::strategies::test_support::small_federation;
        use fedgta_fed::strategies::{RoundCtx, RoundStats};
        let bits = |clients: &[Client]| -> Vec<Vec<u32>> {
            clients.iter().map(|c| c.model.param_slice().iter().map(|v| v.to_bits()).collect()).collect()
        };
        let wrapped = STRATEGY_NAMES.iter().flat_map(|n| [format!("FedGL+{n}"), format!("FedSage++{n}")]);
        for name in STRATEGY_NAMES.iter().map(|n| n.to_string()).chain(wrapped) {
            // FedSage+ mends raw features, which only a SAGE (or GAMLP) client still holds.
            let model = if name.starts_with("FedSage++") { ModelKind::Sage } else { ModelKind::Gcn };
            let mut clients = small_federation(model, 3);
            let before = bits(&clients);
            let stats = make_strategy(&name).round(&mut clients, &[], &RoundCtx::plain(1));
            assert_eq!(stats, RoundStats::default(), "{name}");
            assert_eq!(bits(&clients), before, "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "unknown strategy")]
    fn unknown_strategy_panics() {
        make_strategy("FedMagic");
    }

    #[test]
    fn quick_experiment_cell_runs() {
        let fedgta = StrategySpec { label: "FedGTA", make: || make_strategy("FedGTA") };
        let mut spec = ExperimentSpec::new("cora", ModelKind::Sgc, fedgta);
        spec.rounds = 3;
        spec.runs = 1;
        spec.clients = 4;
        spec.eval_every = 3;
        let r = run_experiment(&spec);
        assert!(r.mean > 0.2, "accuracy {}", r.mean);
        assert_eq!(r.histories.len(), 1);
    }

    #[test]
    fn global_baseline_runs() {
        let fedavg = StrategySpec { label: "FedAvg", make: || make_strategy("FedAvg") };
        let mut spec = ExperimentSpec::new("cora", ModelKind::Sgc, fedavg);
        (spec.rounds, spec.epochs, spec.runs) = (5, 2, 1);
        let r = run_global(&spec);
        assert!(r.mean > 0.3, "global acc {}", r.mean);
    }

    #[test]
    fn partitioners_produce_requested_clients() {
        let bench = load_benchmark("cora", 0).unwrap();
        for split in [SplitKind::Louvain, SplitKind::Metis] {
            let p = partition_benchmark(&bench, split, 10, 0);
            assert_eq!(p.num_parts, 10, "{:?}", split);
        }
    }
}
