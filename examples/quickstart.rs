//! Quickstart: federated node classification on the Cora stand-in with
//! FedGTA vs FedAvg.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use fedgta_suite::core::FedGta;
use fedgta_suite::data::load_benchmark;
use fedgta_suite::fed::client::{build_clients, ClientBuildConfig};
use fedgta_suite::fed::round::{best_accuracy, SimConfig, Simulation};
use fedgta_suite::fed::strategies::FedAvg;
use fedgta_suite::fed::Strategy;
use fedgta_suite::nn::models::{ModelConfig, ModelKind};
use fedgta_suite::partition::{communities_to_clients, louvain, LouvainConfig};

fn main() {
    // 1. A benchmark graph (synthetic Cora stand-in; see DESIGN.md §3).
    let bench = load_benchmark("cora", 42).expect("catalog dataset");
    println!(
        "cora-sim: {} nodes, {} edges, {} classes",
        bench.graph.num_nodes(),
        bench.graph.num_edges() / 2,
        bench.num_classes
    );

    // 2. Simulate the federation: Louvain communities → 10 clients.
    let communities = louvain(&bench.graph, &LouvainConfig::default());
    println!("louvain found {} communities", communities.num_parts);
    let partition = communities_to_clients(&communities, 10).expect("10 clients");

    // 3–4. Run each strategy for 30 rounds and compare.
    for strategy in
        [Box::new(FedAvg::new()) as Box<dyn Strategy>, Box::new(FedGta::with_defaults())]
    {
        let clients = build_clients(
            &bench,
            &partition,
            &ClientBuildConfig {
                model: ModelConfig {
                    kind: ModelKind::Gamlp,
                    hidden: 32,
                    layers: 2,
                    k: 3,
                    seed: 42,
                    ..ModelConfig::default()
                },
                lr: 0.01,
                weight_decay: 5e-4,
                halo: false,
            },
        );
        let name = strategy.name();
        let mut sim = Simulation::new(
            clients,
            strategy,
            SimConfig {
                rounds: 30,
                local_epochs: 3,
                eval_every: 5,
                seed: 42,
                ..SimConfig::default()
            },
        );
        let records = sim.run();
        println!(
            "{name:<8} best test accuracy: {:.1}%  ({:.1}s)",
            100.0 * best_accuracy(&records),
            records.last().unwrap().cumulative_s
        );
    }
}
