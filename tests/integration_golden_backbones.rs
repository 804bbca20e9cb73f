//! Golden bits for the strategy ↔ model contract: every cell of
//! `tests/golden/backbones.txt` is one short federated run whose final
//! per-client parameter hashes and test-accuracy bits must not move — at
//! one worker thread or four. The file was generated from the tree
//! *before* the four `train_epoch`s were folded into one supervised step,
//! so it is what "not one result bit changed" is checked against.
//!
//! To re-bless after an intended change of arithmetic:
//! `FEDGTA_GOLDEN_BLESS=1 cargo test --test integration_golden_backbones`
//! and commit the diff (the header lines starting with `#` are kept).

use fedgta::{FedGta, FedGtaConfig};
use fedgta_data::{generate_from_spec, spec_by_name, DatasetSpec, Task};
use fedgta_fed::client::{build_clients, Client, ClientBuildConfig};
use fedgta_fed::faults::FaultConfig;
use fedgta_fed::fgl_models::FedGl;
use fedgta_fed::kit::Kit;
use fedgta_fed::round::{CommsConfig, SimConfig, Simulation};
use fedgta_fed::strategies::test_support::{federation_with, small_federation};
use fedgta_fed::strategies::{
    FedAvg, FedDc, FedProx, GcflPlus, RoundCtx, RoundStats, Scaffold, Strategy,
};
use fedgta_nn::models::{ModelConfig, ModelKind};
use fedgta_partition::{communities_to_clients, louvain, LouvainConfig};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

mod golden;

const SEED: u64 = 2023;

/// `small_federation`'s recipe with the three things it pins opened up:
/// hidden-layer dropout, the head's batch size, and 1-hop halo nodes
/// (FedGL needs overlapping clients, as in `fedgl.rs`'s own tests).
fn federation(kind: ModelKind, dropout: f32, batch_size: usize, halo: bool) -> Vec<Client> {
    let spec = DatasetSpec {
        name: "golden",
        nodes: 600,
        features: 16,
        classes: 4,
        avg_degree: 8.0,
        train_frac: 0.3,
        val_frac: 0.2,
        test_frac: 0.5,
        task: Task::Transductive,
        blocks_per_class: 3,
        homophily: 0.85,
        description: "golden-file graph",
    };
    let bench = generate_from_spec(&spec, SEED);
    let comm = louvain(&bench.graph, &LouvainConfig::default());
    let parts = communities_to_clients(&comm, 4).unwrap();
    let model = ModelConfig {
        kind,
        hidden: 16,
        layers: 2,
        k: 2,
        dropout,
        batch_size,
        seed: SEED,
        ..ModelConfig::default()
    };
    let cfg = ClientBuildConfig { model, lr: 0.03, weight_decay: 0.0, halo };
    build_clients(&bench, &parts, &cfg)
}

/// The inductive protocol on the catalog's Flickr recipe at 2 000 nodes:
/// each client trains on the graph induced on its train nodes and is
/// scored on its full subgraph, so a client holds two datasets and
/// evaluation reads the second.
fn inductive(kind: ModelKind) -> Vec<Client> {
    let spec = DatasetSpec { nodes: 2000, ..*spec_by_name("flickr").unwrap() };
    let bench = generate_from_spec(&spec, SEED);
    let comm = louvain(&bench.graph, &LouvainConfig::default());
    let parts = communities_to_clients(&comm, 4).unwrap();
    let model =
        ModelConfig { kind, hidden: 16, layers: 2, k: 2, seed: SEED, ..ModelConfig::default() };
    build_clients(
        &bench,
        &parts,
        &ClientBuildConfig { model, lr: 0.03, weight_decay: 0.0, halo: false },
    )
}

/// One cell: its name, its clients, its strategy, its round count, the
/// share of clients sampled per round and the transport it runs over
/// (`None`: in memory).
struct Cell {
    name: &'static str,
    clients: fn() -> Vec<Client>,
    strategy: fn() -> Box<dyn Strategy>,
    rounds: usize,
    participation: f64,
    comms: Option<fn() -> CommsConfig>,
}

/// A full-participation, in-memory cell.
fn cell(
    name: &'static str,
    clients: fn() -> Vec<Client>,
    strategy: fn() -> Box<dyn Strategy>,
    rounds: usize,
) -> Cell {
    Cell { name, clients, strategy, rounds, participation: 1.0, comms: None }
}

/// The channel transport losing 30 % of all messages, with no retry: a
/// client whose request is lost sits the round out, one whose upload is
/// lost trained for nothing.
fn lossy_channel() -> CommsConfig {
    CommsConfig {
        faults: FaultConfig::parse("drop=0.3,retries=0").unwrap(),
        fault_seed: LOSSY_FAULT_SEED,
        ..CommsConfig::default()
    }
}

const LOSSY_FAULT_SEED: u64 = 5;

fn fedgta() -> Box<dyn Strategy> {
    Box::new(FedGta::with_defaults())
}

fn fedavg() -> Box<dyn Strategy> {
    Box::new(FedAvg::new())
}

/// FedGL with a gate low enough that pseudo-labels are on from its first
/// round after warm-up (round 3 of 5) on every client.
fn fedgl() -> Box<dyn Strategy> {
    let mut s = FedGl::new(Box::new(FedAvg::new()));
    s.confidence = 0.3;
    Box::new(s)
}

/// GCFL+ with `aggressive_gap_forces_a_split`'s recipe: `gap < 1` and a
/// one-round warm-up, so the federation splits by round 2 and the later
/// rounds train and average each cluster on its own.
fn gcfl_plus() -> GcflPlus {
    let mut s = GcflPlus::new(3, 0.5);
    s.objective.warmup = 1;
    s
}

fn gcfl() -> Box<dyn Strategy> {
    Box::new(gcfl_plus())
}

/// [`lossy_channel`] under the fault seed that makes the GCFL+ cell split
/// and then leave a cluster with no arrival.
fn gcfl_lossy_channel() -> CommsConfig {
    CommsConfig { fault_seed: GCFL_FAULT_SEED, ..lossy_channel() }
}

const GCFL_FAULT_SEED: u64 = 4;

fn cells() -> Vec<Cell> {
    vec![
        cell("FedGTA/GCN", || small_federation(ModelKind::Gcn, SEED), fedgta, 3),
        cell("FedGTA/SAGE", || small_federation(ModelKind::Sage, SEED), fedgta, 3),
        cell("FedGTA/SGC", || small_federation(ModelKind::Sgc, SEED), fedgta, 3),
        cell("FedGTA/SIGN", || small_federation(ModelKind::Sign, SEED), fedgta, 3),
        cell("FedGTA/S2GC", || small_federation(ModelKind::S2gc, SEED), fedgta, 3),
        cell("FedGTA/GBP", || small_federation(ModelKind::Gbp, SEED), fedgta, 3),
        cell(
            "FedProx/SGC",
            || small_federation(ModelKind::Sgc, SEED),
            || Box::new(FedProx::new(0.1)),
            3,
        ),
        cell(
            "FedDC/SGC",
            || small_federation(ModelKind::Sgc, SEED),
            || Box::new(FedDc::new(0.01)),
            3,
        ),
        cell(
            "Scaffold/SGC",
            || small_federation(ModelKind::Sgc, SEED),
            || Box::new(Scaffold::new()),
            3,
        ),
        cell("GCFL+/SGC", || small_federation(ModelKind::Sgc, SEED), gcfl, 6),
        cell("FedGL+FedAvg/SGC/halo", || federation(ModelKind::Sgc, 0.0, 0, true), fedgl, 5),
        cell("FedGL+FedAvg/GCN/halo", || federation(ModelKind::Gcn, 0.0, 0, true), fedgl, 5),
        cell("FedAvg/GCN/dropout", || federation(ModelKind::Gcn, 0.5, 0, false), fedavg, 3),
        cell("FedAvg/SAGE/dropout", || federation(ModelKind::Sage, 0.5, 0, false), fedavg, 3),
        cell(
            "FedAvg/SIGN/dropout/batch32",
            || federation(ModelKind::Sign, 0.5, 32, false),
            fedavg,
            3,
        ),
        cell("FedGTA/SIGN/inductive", || inductive(ModelKind::Sign), fedgta, 3),
        Cell {
            participation: 0.5,
            comms: Some(lossy_channel),
            ..cell("FedGTA/SIGN/half/lossy", || small_federation(ModelKind::Sign, SEED), fedgta, 5)
        },
        Cell {
            participation: 0.5,
            comms: Some(gcfl_lossy_channel),
            ..cell(
                "GCFL+/SGC/half/lossy",
                || small_federation(ModelKind::Sgc, SEED),
                gcfl,
                GCFL_LOSSY_ROUNDS,
            )
        },
        cell(
            "FedGTA(w/o Conf.)/SGC",
            || federation_with(ModelKind::Sgc, SEED, 8, 900),
            || Box::new(FedGta::from(FedGtaConfig::without_confidence())),
            3,
        ),
        cell(
            "FedGTA(w/o Mom.)/SGC",
            || small_federation(ModelKind::Sgc, SEED),
            || Box::new(FedGta::from(FedGtaConfig::without_moments())),
            3,
        ),
    ]
}

const GCFL_LOSSY_ROUNDS: usize = 8;

/// `name params=<fnv1a per client> acc=<f64 bits>` for one cell.
fn line(cell: &Cell, threads: usize) -> String {
    line_with(cell, threads, |_| {})
}

/// [`line`] after `prepare` has had its way with the simulation.
fn line_with(cell: &Cell, threads: usize, prepare: impl FnOnce(&mut Simulation)) -> String {
    let config = SimConfig {
        rounds: cell.rounds,
        local_epochs: 2,
        participation: cell.participation,
        eval_every: 0,
        seed: SEED,
        threads,
    };
    let mut sim = Simulation::new((cell.clients)(), (cell.strategy)(), config);
    if let Some(comms) = cell.comms {
        sim = sim.with_comms(comms());
    }
    prepare(&mut sim);
    sim.run();
    let mut out = format!("{} params=", cell.name);
    for (i, c) in sim.clients.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let bits = c.model.param_slice().iter().flat_map(|v| v.to_bits().to_le_bytes());
        write!(out, "{sep}{:016x}", golden::fnv1a(bits)).unwrap();
    }
    write!(out, " acc={:016x}", sim.test_accuracy().to_bits()).unwrap();
    out
}

const GOLDEN: &str = "backbones.txt";

#[test]
fn backbone_bits_match_the_golden_file_at_one_and_four_threads() {
    let cells = cells();
    let got: Vec<String> = cells.iter().map(|c| line(c, 1)).collect();
    for (cell, one) in cells.iter().zip(&got) {
        assert_eq!(&line(cell, 4), one, "{}: 4 threads differ from 1", cell.name);
    }
    golden::check(GOLDEN, &got);
}

/// "Every lent buffer is rewritten before it is read", checked instead of
/// argued: the run starts with its kit pool pre-filled — one kit per worker
/// — with NaN arena buffers large enough to serve every `take`, and NaN
/// moment vectors of exactly the parameter count (the length at which an
/// optimizer that was *not* reset would keep them). Not a bit moves.
#[test]
fn kits_full_of_nan_cannot_reach_a_result_bit() {
    let poison = |sim: &mut Simulation| {
        let params = sim.clients[0].model.num_params();
        for _ in 0..4 {
            let mut kit = Kit::default();
            for _ in 0..24 {
                kit.ws.give(vec![f32::NAN; 1 << 16]);
            }
            kit.opt.first = vec![f32::NAN; params];
            kit.opt.second = vec![f32::NAN; params];
            sim.kits.give(kit);
        }
    };
    let golden = golden::read(GOLDEN);
    let prox_gcn = cell(
        "FedProx/GCN",
        || small_federation(ModelKind::Gcn, SEED),
        || Box::new(FedProx::new(0.1)),
        3,
    );
    let cells = cells();
    let gta_sign = cells.iter().find(|c| c.name == "FedGTA/SIGN").expect("cell");
    for threads in [1, 4] {
        let dirty = line_with(gta_sign, threads, poison);
        assert!(golden.lines().any(|l| l == dirty), "{threads} threads: {dirty}");
        // No golden line for this pair: the clean run is the reference.
        assert_eq!(line_with(&prox_gcn, threads, poison), line(&prox_gcn, 1), "{threads} threads");
    }
}

/// Forwards to the cell's strategy after logging `(round, client,
/// accepted)` for every client the round's fault script lets train.
struct Logged {
    inner: Box<dyn Strategy>,
    turns: Arc<Mutex<Vec<(usize, usize, bool)>>>,
}

impl Strategy for Logged {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn round(
        &mut self,
        clients: &mut [Client],
        participants: &[usize],
        ctx: &RoundCtx<'_>,
    ) -> RoundStats {
        let script = ctx.comms.expect("the lossy cell runs over the wire").script;
        let trained = participants.iter().filter_map(|&c| script.fate(c).filter(|f| f.trains));
        self.turns.lock().unwrap().extend(trained.map(|f| (script.round, f.client, f.accepted)));
        self.inner.round(clients, participants, ctx)
    }
}

/// The lossy cell reaches the two cases a FedGTA client can be in before
/// the server holds a model for it: a client whose first upload is lost
/// and who trains again with no vector to start from (on the moments it
/// kept), and a client whose first turn comes after round 1.
#[test]
fn the_lossy_cell_loses_a_first_upload_and_starts_a_client_late() {
    let cells = cells();
    let lossy = cells.iter().find(|c| c.comms.is_some()).expect("a cell over the wire");
    let turns = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&turns);
    let dirty = line_with(lossy, 1, move |sim| {
        let inner = std::mem::replace(&mut sim.strategy, fedavg());
        sim.strategy = Box::new(Logged { inner, turns: log });
    });
    let golden = golden::read(GOLDEN);
    assert!(golden.lines().any(|l| l == dirty), "logging moved a bit: {dirty}");
    let turns = turns.lock().unwrap();
    let of = |c: usize| {
        turns.iter().filter(move |t| t.1 == c).map(|&(round, _, accepted)| (round, accepted))
    };
    let clients = 0..(lossy.clients)().len();
    let relearns = clients.clone().find(|&c| {
        let mut mine = of(c);
        mine.next().is_some_and(|(_, accepted)| !accepted) && mine.next().is_some()
    });
    let late = clients.clone().find(|&c| of(c).next().is_some_and(|(round, _)| round > 1));
    assert!(relearns.is_some(), "no client lost its first upload and trained again: {turns:?}");
    assert!(late.is_some(), "every client's first turn was in round 1: {turns:?}");
}

/// One GCFL+ round as seen from outside: the clusters it trained, and the
/// participants whose upload arrived.
type ClusterRound = (Vec<Vec<usize>>, Vec<usize>);

/// Forwards to GCFL+ after noting its clusters and the round's arrivals.
struct Watched {
    inner: GcflPlus,
    rounds: Arc<Mutex<Vec<ClusterRound>>>,
}

impl Strategy for Watched {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn round(
        &mut self,
        clients: &mut [Client],
        participants: &[usize],
        ctx: &RoundCtx<'_>,
    ) -> RoundStats {
        let script = ctx.comms.expect("the GCFL+ lossy cell runs over the wire").script;
        let arrived =
            participants.iter().copied().filter(|&c| script.fate(c).is_some_and(|f| f.accepted));
        let seen = (self.inner.clusters().to_vec(), arrived.collect());
        self.rounds.lock().unwrap().push(seen);
        self.inner.round(clients, participants, ctx)
    }
}

/// The lossy GCFL+ cell splits its one cluster, and in a later round one
/// cluster has arrivals while another has none and keeps its model.
#[test]
fn the_lossy_gcfl_cell_splits_and_leaves_a_cluster_without_arrivals() {
    let cells = cells();
    let cell = cells.iter().find(|c| c.name == "GCFL+/SGC/half/lossy").expect("cell");
    let rounds = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&rounds);
    let dirty = line_with(cell, 1, move |sim| {
        sim.strategy = Box::new(Watched { inner: gcfl_plus(), rounds: log });
    });
    let golden = golden::read(GOLDEN);
    assert!(golden.lines().any(|l| l == dirty), "watching moved a bit: {dirty}");
    let rounds = rounds.lock().unwrap();
    let has_arrival =
        |cluster: &[usize], arrived: &[usize]| cluster.iter().any(|c| arrived.contains(c));
    let idle = rounds.iter().position(|(clusters, arrived)| {
        clusters.len() > 1
            && clusters.iter().any(|k| has_arrival(k, arrived))
            && clusters.iter().any(|k| !has_arrival(k, arrived))
    });
    assert!(idle.is_some(), "no round left a cluster without arrivals after a split: {rounds:?}");
}
