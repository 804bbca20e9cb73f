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

use fedgta::FedGta;
use fedgta_data::{generate_from_spec, spec_by_name, DatasetSpec, Task};
use fedgta_fed::client::{build_clients, Client, ClientBuildConfig};
use fedgta_fed::fgl_models::FedGl;
use fedgta_fed::kit::Kit;
use fedgta_fed::round::{SimConfig, Simulation};
use fedgta_fed::strategies::test_support::small_federation;
use fedgta_fed::strategies::{FedAvg, FedDc, FedProx, GcflPlus, Scaffold, Strategy};
use fedgta_nn::models::{ModelConfig, ModelKind};
use fedgta_partition::{communities_to_clients, louvain, LouvainConfig};
use std::fmt::Write as _;
use std::path::PathBuf;

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
    let model = ModelConfig { kind, hidden: 16, layers: 2, k: 2, seed: SEED, ..ModelConfig::default() };
    build_clients(&bench, &parts, &ClientBuildConfig { model, lr: 0.03, weight_decay: 0.0, halo: false })
}

fn fnv1a(params: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in params.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One cell: its name, its clients, its strategy, its round count.
type Cell = (&'static str, fn() -> Vec<Client>, fn() -> Box<dyn Strategy>, usize);

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
fn gcfl() -> Box<dyn Strategy> {
    let mut s = GcflPlus::new(3, 0.5);
    s.warmup = 1;
    Box::new(s)
}

fn cells() -> Vec<Cell> {
    vec![
        ("FedGTA/GCN", || small_federation(ModelKind::Gcn, SEED), fedgta, 3),
        ("FedGTA/SAGE", || small_federation(ModelKind::Sage, SEED), fedgta, 3),
        ("FedGTA/SGC", || small_federation(ModelKind::Sgc, SEED), fedgta, 3),
        ("FedGTA/SIGN", || small_federation(ModelKind::Sign, SEED), fedgta, 3),
        ("FedGTA/S2GC", || small_federation(ModelKind::S2gc, SEED), fedgta, 3),
        ("FedGTA/GBP", || small_federation(ModelKind::Gbp, SEED), fedgta, 3),
        ("FedProx/SGC", || small_federation(ModelKind::Sgc, SEED), || Box::new(FedProx::new(0.1)), 3),
        ("FedDC/SGC", || small_federation(ModelKind::Sgc, SEED), || Box::new(FedDc::new(0.01)), 3),
        ("Scaffold/SGC", || small_federation(ModelKind::Sgc, SEED), || Box::new(Scaffold::new()), 3),
        ("GCFL+/SGC", || small_federation(ModelKind::Sgc, SEED), gcfl, 6),
        ("FedGL+FedAvg/SGC/halo", || federation(ModelKind::Sgc, 0.0, 0, true), fedgl, 5),
        ("FedGL+FedAvg/GCN/halo", || federation(ModelKind::Gcn, 0.0, 0, true), fedgl, 5),
        ("FedAvg/GCN/dropout", || federation(ModelKind::Gcn, 0.5, 0, false), fedavg, 3),
        ("FedAvg/SAGE/dropout", || federation(ModelKind::Sage, 0.5, 0, false), fedavg, 3),
        ("FedAvg/SIGN/dropout/batch32", || federation(ModelKind::Sign, 0.5, 32, false), fedavg, 3),
        ("FedGTA/SIGN/inductive", || inductive(ModelKind::Sign), fedgta, 3),
    ]
}

/// `name params=<fnv1a per client> acc=<f64 bits>` for one cell.
fn line(cell: &Cell, threads: usize) -> String {
    line_with(cell, threads, |_| {})
}

/// [`line`] after `prepare` has had its way with the simulation.
fn line_with(cell: &Cell, threads: usize, prepare: impl FnOnce(&mut Simulation)) -> String {
    let (name, clients, strategy, rounds) = *cell;
    let config = SimConfig {
        rounds,
        local_epochs: 2,
        participation: 1.0,
        eval_every: 0,
        seed: SEED,
        threads,
    };
    let mut sim = Simulation::new(clients(), strategy(), config);
    prepare(&mut sim);
    sim.run();
    let mut out = format!("{name} params=");
    for (i, c) in sim.clients.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        write!(out, "{sep}{:016x}", fnv1a(&c.model.params())).unwrap();
    }
    write!(out, " acc={:016x}", sim.test_accuracy().to_bits()).unwrap();
    out
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/backbones.txt")
}

#[test]
fn backbone_bits_match_the_golden_file_at_one_and_four_threads() {
    let path = golden_path();
    let golden = std::fs::read_to_string(&path).unwrap_or_default();
    let header: Vec<&str> = golden.lines().filter(|l| l.starts_with('#')).collect();
    let want: Vec<&str> = golden.lines().filter(|l| !l.starts_with('#') && !l.is_empty()).collect();
    let cells = cells();
    let got: Vec<String> = cells.iter().map(|c| line(c, 1)).collect();
    for (cell, one) in cells.iter().zip(&got) {
        assert_eq!(&line(cell, 4), one, "{}: 4 threads differ from 1", cell.0);
    }
    if std::env::var_os("FEDGTA_GOLDEN_BLESS").is_some() {
        let mut text = header.join("\n");
        if !text.is_empty() {
            text.push('\n');
        }
        text.push_str(&got.join("\n"));
        text.push('\n');
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, text).unwrap();
        return;
    }
    assert_eq!(want.len(), got.len(), "cell count: golden file vs test");
    for (w, g) in want.iter().zip(&got) {
        assert_eq!(w, g, "golden bits moved");
    }
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
    let golden = std::fs::read_to_string(golden_path()).expect("golden file");
    let prox_gcn: Cell =
        ("FedProx/GCN", || small_federation(ModelKind::Gcn, SEED), || Box::new(FedProx::new(0.1)), 3);
    let cells = cells();
    let gta_sign = cells.iter().find(|c| c.0 == "FedGTA/SIGN").expect("cell");
    for threads in [1, 4] {
        let dirty = line_with(gta_sign, threads, poison);
        assert!(golden.lines().any(|l| l == dirty), "{threads} threads: {dirty}");
        // No golden line for this pair: the clean run is the reference.
        assert_eq!(line_with(&prox_gcn, threads, poison), line(&prox_gcn, 1), "{threads} threads");
    }
}
