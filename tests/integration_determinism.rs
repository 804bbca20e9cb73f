//! Reproducibility guarantees: identical seeds yield bit-identical
//! federations, training trajectories, and FedGTA aggregation decisions.

use fedgta::FedGta;
use fedgta_fed::round::{SimConfig, Simulation};
use fedgta_fed::strategies::test_support::small_federation;
use fedgta_fed::strategies::{FedAvg, RoundCtx, Strategy};
use fedgta_nn::models::ModelKind;

#[test]
fn federations_are_bit_identical_per_seed() {
    let a = small_federation(ModelKind::Sign, 5);
    let b = small_federation(ModelKind::Sign, 5);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.data.features, y.data.features);
        assert_eq!(x.data.labels, y.data.labels);
        assert_eq!(x.data.train_nodes, y.data.train_nodes);
        assert_eq!(x.model.params(), y.model.params());
    }
}

#[test]
fn training_trajectories_are_reproducible() {
    let run = || {
        let clients = small_federation(ModelKind::Sgc, 6);
        let mut sim = Simulation::new(
            clients,
            Box::new(FedAvg::new()),
            SimConfig {
                rounds: 5,
                local_epochs: 2,
                eval_every: 1,
                seed: 6,
                ..SimConfig::default()
            },
        );
        sim.run()
    };
    let a = run();
    let b = run();
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.mean_loss, y.mean_loss);
        assert_eq!(x.test_acc, y.test_acc);
    }
}

#[test]
fn fedgta_aggregation_sets_are_reproducible() {
    let run = || {
        let mut clients = small_federation(ModelKind::Sgc, 8);
        let mut s = FedGta::with_defaults();
        let all: Vec<usize> = (0..clients.len()).collect();
        for _ in 0..3 {
            s.round(&mut clients, &all, &RoundCtx::plain(2));
        }
        s.objective.last_report().unwrap().clone()
    };
    let a = run();
    let b = run();
    for (x, y) in a.entries.iter().zip(&b.entries) {
        assert_eq!(x.members, y.members);
        assert_eq!(x.weights, y.weights);
    }
}

#[test]
fn different_seeds_actually_differ() {
    let a = small_federation(ModelKind::Sgc, 1);
    let b = small_federation(ModelKind::Sgc, 2);
    assert_ne!(a[0].data.features, b[0].data.features);
}
