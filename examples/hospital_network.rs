//! Cross-silo federated disease-network analysis — the paper's
//! introduction motivates FGL with exactly this scenario: hospitals hold
//! patient-interaction subgraphs they cannot share.
//!
//! Each hospital's patient population is specialized (an oncology center
//! sees different diagnoses than a cardiology clinic), so the label
//! distributions across silos are severely Non-iid. This example builds a
//! custom disease-network spec, splits it over 8 "hospitals" with
//! Louvain, quantifies the label skew, and shows FedGTA's personalized
//! aggregation sets keeping incompatible hospitals apart.
//!
//! ```sh
//! cargo run --release --example hospital_network
//! ```

use fedgta_suite::core::FedGta;
use fedgta_suite::data::{generate_from_spec, DatasetSpec, Task};
use fedgta_suite::fed::client::{build_clients, ClientBuildConfig};
use fedgta_suite::fed::eval::global_test_accuracy;
use fedgta_suite::fed::strategies::{FedAvg, RoundCtx, Strategy};
use fedgta_suite::nn::models::{ModelConfig, ModelKind};
use fedgta_suite::partition::{communities_to_clients, louvain, LouvainConfig};

fn main() {
    // A disease-interaction network: 6 diagnosis groups, strong community
    // structure (patients cluster by region/provider).
    let spec = DatasetSpec {
        name: "disease-network",
        nodes: 6000,
        features: 64,
        classes: 6,
        avg_degree: 12.0,
        train_frac: 0.3,
        val_frac: 0.2,
        test_frac: 0.5,
        task: Task::Transductive,
        blocks_per_class: 4,
        homophily: 0.85,
        description: "synthetic patient-interaction network",
    };
    let bench = generate_from_spec(&spec, 7);
    // Higher resolution keeps Louvain from merging the planted communities
    // below the number of hospitals.
    let communities =
        louvain(&bench.graph, &LouvainConfig { resolution: 4.0, ..LouvainConfig::default() });
    let partition = communities_to_clients(&communities, 8).expect("8 hospitals");
    let hospitals = partition.num_parts;

    // Quantify the Non-iid problem per hospital.
    println!("per-hospital diagnosis distribution (rows sum to hospital size):");
    let mut counts = vec![vec![0usize; 6]; hospitals];
    for (v, &h) in partition.parts.iter().enumerate() {
        counts[h as usize][bench.labels[v] as usize] += 1;
    }
    for (h, row) in counts.iter().enumerate() {
        println!("  hospital {h}: {row:?}");
    }

    let make_clients = || {
        build_clients(
            &bench,
            &partition,
            &ClientBuildConfig {
                model: ModelConfig {
                    kind: ModelKind::Sign,
                    hidden: 32,
                    layers: 2,
                    k: 2,
                    seed: 7,
                    ..ModelConfig::default()
                },
                lr: 0.01,
                weight_decay: 5e-4,
                halo: false,
            },
        )
    };

    // FedAvg reference.
    let mut clients = make_clients();
    let mut fedavg = FedAvg::new();
    let all: Vec<usize> = (0..clients.len()).collect();
    for _ in 0..25 {
        fedavg.round(&mut clients, &all, &RoundCtx::plain(3));
    }
    let avg_acc = global_test_accuracy(&mut clients);

    // FedGTA: personalized aggregation.
    let mut clients = make_clients();
    let mut gta = FedGta::with_defaults();
    for _ in 0..25 {
        gta.round(&mut clients, &all, &RoundCtx::plain(3));
    }
    let gta_acc = global_test_accuracy(&mut clients);

    println!("\nFedAvg diagnosis accuracy: {:.1}%", 100.0 * avg_acc);
    println!("FedGTA diagnosis accuracy: {:.1}%", 100.0 * gta_acc);

    // Who aggregates with whom? (Fig. 3 of the paper, on this network.)
    let report = gta.objective.last_report().expect("round ran");
    println!("\nFedGTA aggregation sets (hospital: partners with weights):");
    for (h, e) in report.entries.iter().enumerate() {
        let members: Vec<String> =
            e.members.iter().zip(&e.weights).map(|(m, w)| format!("{m}({w:.2})")).collect();
        println!("  hospital {h}: {}", members.join(" "));
    }
}
