//! Integration tests for the extension features: adaptive aggregation
//! and real-data ingestion.

use fedgta::{FedGta, FedGtaConfig};
use fedgta_data::Benchmark;
use fedgta_fed::client::{build_clients, ClientBuildConfig};
use fedgta_fed::eval::global_test_accuracy;
use fedgta_fed::strategies::test_support::small_federation;
use fedgta_fed::strategies::{FedAvg, RoundCtx, Strategy};
use fedgta_graph::io::parse_edge_list_text;
use fedgta_nn::models::{ModelConfig, ModelKind};
use fedgta_nn::Matrix;
use fedgta_partition::{metis_kway, MetisConfig};

#[test]
fn adaptive_variant_runs_end_to_end() {
    let mut clients = small_federation(ModelKind::Sgc, 300);
    let mut s = FedGta::from(FedGtaConfig::adaptive(0.7));
    let all: Vec<usize> = (0..clients.len()).collect();
    for _ in 0..10 {
        s.round(&mut clients, &all, &RoundCtx::plain(2));
    }
    let acc = global_test_accuracy(&mut clients);
    assert!(acc > 0.55, "{}: acc {acc}", s.name());
}

#[test]
fn user_supplied_edge_list_trains_federated() {
    // A ring of 4 dense blobs loaded from "real" text data.
    let mut text = String::new();
    let blob = 30usize;
    for b in 0..4 {
        let base = b * blob;
        for i in 0..blob {
            for j in (i + 1)..blob {
                if (i * 7 + j * 13 + b) % 4 == 0 {
                    text.push_str(&format!("{} {}\n", base + i, base + j));
                }
            }
        }
        text.push_str(&format!("{} {}\n", base, (base + blob) % (4 * blob)));
    }
    let n = 4 * blob;
    let graph = parse_edge_list_text(&text, n).unwrap();
    let labels: Vec<u32> = (0..n).map(|i| (i / blob % 2) as u32).collect();
    let mut feats = Matrix::zeros(n, 4);
    for (i, &label) in labels.iter().enumerate() {
        let c = label as f32;
        for j in 0..4 {
            feats.set(i, j, c * 2.0 - 1.0 + ((i * 31 + j * 17) % 11) as f32 / 11.0);
        }
    }
    let bench = Benchmark::from_parts(graph, feats, labels, 2, 0.4, 0.2, 0.4, 0);
    let parts = metis_kway(&bench.graph, 4, &MetisConfig::default()).unwrap();
    let mut clients = build_clients(
        &bench,
        &parts,
        &ClientBuildConfig {
            model: ModelConfig {
                kind: ModelKind::Sgc,
                hidden: 8,
                layers: 1,
                k: 2,
                seed: 0,
                ..ModelConfig::default()
            },
            lr: 0.05,
            weight_decay: 0.0,
            halo: false,
        },
    );
    let mut s = FedAvg::new();
    let all: Vec<usize> = (0..clients.len()).collect();
    for _ in 0..15 {
        s.round(&mut clients, &all, &RoundCtx::plain(2));
    }
    let acc = global_test_accuracy(&mut clients);
    assert!(acc > 0.8, "user-data federation acc {acc}");
}
