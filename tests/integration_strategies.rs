//! Cross-crate smoke test: every optimization strategy and both FGL Model
//! wrappers run end-to-end and produce sane accuracy on a tiny federation.

use fedgta::{FedGta, FedGtaConfig};
use fedgta_fed::fgl_models::{FedGl, FedSagePlus};
use fedgta_fed::round::{best_accuracy, SimConfig, Simulation};
use fedgta_fed::strategies::test_support::small_federation;
use fedgta_fed::strategies::{
    FedAvg, FedDc, FedProx, GcflPlus, LocalOnly, Moon, Scaffold, Strategy,
};
use fedgta_nn::models::ModelKind;

fn run(strategy: Box<dyn Strategy>, kind: ModelKind, rounds: usize) -> f64 {
    let clients = small_federation(kind, 77);
    let mut sim = Simulation::new(
        clients,
        strategy,
        SimConfig {
            rounds,
            local_epochs: 2,
            eval_every: rounds.div_ceil(3),
            seed: 77,
            ..SimConfig::default()
        },
    );
    best_accuracy(&sim.run())
}

#[test]
fn every_optimization_strategy_learns() {
    // Full strategies must clear 0.55; the FedGTA ablations get a lower
    // bar — w/o-Mom degenerates to confidence-weighted FedAvg, which is
    // expected to trail under this heavily label-non-IID Louvain split
    // (same rationale as the `ablations_still_learn` unit test).
    let strategies: Vec<(Box<dyn Strategy>, f64)> = vec![
        (Box::new(LocalOnly::new()), 0.55),
        (Box::new(FedAvg::new()), 0.55),
        (Box::new(FedProx::new(0.01)), 0.55),
        (Box::new(Scaffold::new()), 0.55),
        (Box::new(Moon::new(1.0, 0.5)), 0.55),
        (Box::new(FedDc::new(0.01)), 0.55),
        (Box::new(GcflPlus::new(5, 2.0)), 0.55),
        (Box::new(FedGta::with_defaults()), 0.55),
        (Box::new(FedGta::from(FedGtaConfig::without_moments())), 0.45),
        (Box::new(FedGta::from(FedGtaConfig::without_confidence())), 0.45),
    ];
    for (s, bar) in strategies {
        let name = s.name();
        let acc = run(s, ModelKind::Sgc, 12);
        assert!(acc > bar, "{name}: accuracy {acc} (bar {bar})");
    }
}

#[test]
fn fgl_model_wrappers_learn() {
    let acc = run(Box::new(FedGl::new(Box::new(FedAvg::new()))), ModelKind::Gcn, 10);
    assert!(acc > 0.55, "FedGL acc {acc}");
    let acc = run(Box::new(FedSagePlus::new(Box::new(FedAvg::new()))), ModelKind::Sage, 10);
    assert!(acc > 0.55, "FedSage+ acc {acc}");
}

#[test]
fn fedgta_drives_fgl_models_too() {
    // The Table 5 combination: FedGL + FedGTA inner aggregation.
    let acc = run(Box::new(FedGl::new(Box::new(FedGta::with_defaults()))), ModelKind::Gcn, 10);
    assert!(acc > 0.55, "FedGL+FedGTA acc {acc}");
}

#[test]
fn all_backbones_work_under_fedgta() {
    for kind in [
        ModelKind::Gcn,
        ModelKind::Sage,
        ModelKind::Sgc,
        ModelKind::Sign,
        ModelKind::S2gc,
        ModelKind::Gbp,
        ModelKind::Gamlp,
    ] {
        let acc = run(Box::new(FedGta::with_defaults()), kind, 10);
        assert!(acc > 0.5, "{}: accuracy {acc}", kind.name());
    }
}

#[test]
fn upload_accounting_reflects_strategy_payloads() {
    use fedgta_fed::strategies::RoundCtx;
    let round_bytes = |mut s: Box<dyn Strategy>| {
        let mut clients = small_federation(ModelKind::Sgc, 88);
        let all: Vec<usize> = (0..clients.len()).collect();
        s.round(&mut clients, &all, &RoundCtx::plain(1)).bytes_uploaded
    };
    let local = round_bytes(Box::new(LocalOnly::new()));
    let avg = round_bytes(Box::new(FedAvg::new()));
    let gta = round_bytes(Box::new(FedGta::with_defaults()));
    let scaffold = round_bytes(Box::new(Scaffold::new()));
    assert_eq!(local, 0);
    assert!(avg > 0);
    // FedGTA ships the moment sketch on top of the weights…
    assert!(gta > avg, "gta {gta} vs avg {avg}");
    // …but far less than SCAFFOLD's doubled payload (control variates).
    assert!(scaffold > gta, "scaffold {scaffold} vs gta {gta}");
}
