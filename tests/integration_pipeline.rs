//! End-to-end integration: data generation → partition → federation →
//! FedGTA rounds → evaluation, across every crate.

use fedgta::FedGta;
use fedgta_data::load_benchmark;
use fedgta_fed::client::{build_clients, ClientBuildConfig};
use fedgta_fed::round::{best_accuracy, SimConfig, Simulation};
use fedgta_graph::metrics::edge_homophily;
use fedgta_nn::models::{ModelConfig, ModelKind};
use fedgta_partition::{communities_to_clients, louvain, metis_kway, LouvainConfig, MetisConfig};

#[test]
fn full_pipeline_cora_fedgta() {
    let bench = load_benchmark("cora", 1).unwrap();
    assert!(edge_homophily(&bench.graph, &bench.labels) > 0.6);

    let comm = louvain(&bench.graph, &LouvainConfig::default());
    assert!(comm.num_parts >= 10, "only {} communities", comm.num_parts);
    let parts = communities_to_clients(&comm, 10).unwrap();
    assert_eq!(parts.num_parts, 10);

    let clients = build_clients(
        &bench,
        &parts,
        &ClientBuildConfig {
            model: ModelConfig {
                kind: ModelKind::Sgc,
                hidden: 16,
                layers: 1,
                k: 2,
                seed: 1,
                ..ModelConfig::default()
            },
            lr: 0.02,
            weight_decay: 0.0,
            halo: false,
        },
    );
    assert_eq!(clients.len(), 10);
    let total_nodes: usize = clients.iter().map(|c| c.data.num_nodes()).sum();
    assert_eq!(total_nodes, bench.graph.num_nodes());

    let mut sim = Simulation::new(
        clients,
        Box::new(FedGta::with_defaults()),
        SimConfig { rounds: 10, local_epochs: 2, eval_every: 2, seed: 1, ..SimConfig::default() },
    );
    let records = sim.run();
    assert_eq!(records.len(), 10);
    let best = best_accuracy(&records);
    assert!(best > 0.5, "pipeline accuracy only {best}");
}

#[test]
fn metis_pipeline_balances_clients() {
    let bench = load_benchmark("citeseer", 2).unwrap();
    let parts = metis_kway(&bench.graph, 10, &MetisConfig::default()).unwrap();
    let sizes = parts.sizes();
    let ideal = bench.graph.num_nodes() as f64 / 10.0;
    for &s in &sizes {
        assert!((s as f64) < 1.4 * ideal, "size {s} vs ideal {ideal}");
        assert!((s as f64) > 0.4 * ideal, "size {s} vs ideal {ideal}");
    }
}

#[test]
fn inductive_pipeline_keeps_test_nodes_out_of_training() {
    let bench = load_benchmark("flickr", 3).unwrap();
    let parts = metis_kway(&bench.graph, 5, &MetisConfig::default()).unwrap();
    let clients = build_clients(&bench, &parts, &ClientBuildConfig::default());
    for c in &clients {
        let eval = c.eval_data.as_ref().expect("inductive eval view");
        // Training graph strictly smaller; its nodes are all train nodes.
        assert!(c.data.num_nodes() <= eval.num_nodes());
        assert!(c.data.test_nodes.is_empty());
    }
}
