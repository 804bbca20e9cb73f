//! Table 1 — empirical validation of the complexity analysis.
//!
//! The paper's Table 1 is asymptotic; this binary measures the quantities
//! those bounds predict, on one machine:
//!
//! - **client time** per round as the local graph grows (`O(kmf + nf²)`
//!   for all strategies; FedGTA adds the training-independent
//!   `O(km·kc + n(f²+c))` LP/moment term);
//! - **upload size** per client (`O(f²)` params; FedGTA adds `O(kKc)`);
//! - **server time** per round as N grows (`O(N)` for FedAvg-style
//!   averaging; `O(N + NkKc)` for FedGTA's similarity + personalized
//!   averages; superlinear for GCFL+'s pairwise DTW).
//!
//! Usage: `cargo run --release -p fedgta-bench --bin table1 [--full]`

use fedgta::{label_propagation, local_smoothing_confidence, mixed_moments, FedGtaConfig};
use fedgta::aggregate::{personalized_aggregate, AggregateOptions, ClientUpload};
use fedgta::SimilarityKind;
use fedgta_bench::{is_full_run, Table};
use fedgta_data::{generate_from_spec, DatasetSpec, Task};
use fedgta_nn::Matrix;
use fedgta_obs::timed;

fn spec(n: usize, f: usize, c: usize) -> DatasetSpec {
    DatasetSpec {
        name: "scale",
        nodes: n,
        features: f,
        classes: c,
        avg_degree: 10.0,
        train_frac: 0.5,
        val_frac: 0.2,
        test_frac: 0.3,
        task: Task::Transductive,
        blocks_per_class: 2,
        homophily: 0.8,
        description: "scaling probe",
    }
}

fn main() {
    let full = is_full_run();
    let cfg = FedGtaConfig::default();

    // --- Client-side: FedGTA's extra cost scales with m·k·c, not training.
    println!("Table 1 (client side) — FedGTA metric computation vs subgraph size\n");
    let sizes: Vec<usize> = if full {
        vec![1000, 4000, 16000, 64000]
    } else {
        vec![1000, 4000, 16000]
    };
    let mut t = Table::new(&["n (nodes)", "m (edges)", "LP+moments+conf (ms)", "per-edge (ns)"]);
    for &n in &sizes {
        let bench = generate_from_spec(&spec(n, 32, 8), 0);
        let data = bench.to_dataset();
        let soft = Matrix::from_vec(n, 8, vec![1.0 / 8.0; n * 8]);
        let (_, ns_elapsed) = timed("table1.client_metrics", || {
            let steps = label_propagation(&data.adj_norm, &soft, cfg.k_lp, cfg.alpha);
            let _h = local_smoothing_confidence(steps.last().unwrap(), &data.degrees_hat);
            let _m = mixed_moments(&steps, cfg.moment_order, cfg.moment_kind);
        });
        let ms = ns_elapsed as f64 / 1e6;
        let m_edges = data.adj_norm.num_edges();
        t.row(vec![
            format!("{n}"),
            format!("{m_edges}"),
            format!("{ms:.2}"),
            format!("{:.1}", 1e6 * ms / m_edges as f64),
        ]);
    }
    t.print();

    // --- Upload size: params O(f²) vs FedGTA extras O(kKc).
    println!("\nTable 1 (upload) — bytes per client upload\n");
    let mut t = Table::new(&["component", "floats", "bytes"]);
    let f = 128usize;
    let hidden = 64usize;
    let c = 40usize;
    let params = f * hidden + hidden + hidden * c + c;
    let extras = cfg.k_lp * cfg.moment_order * c + 1;
    t.row(vec!["model weights (all strategies)".into(), format!("{params}"), format!("{}", params * 4)]);
    t.row(vec![
        format!("FedGTA extras (k={}, K={}, c={c})", cfg.k_lp, cfg.moment_order),
        format!("{extras}"),
        format!("{}", extras * 4),
    ]);
    t.print();

    // --- Server side: aggregation time vs N.
    println!("\nTable 1 (server side) — aggregation time vs participants\n");
    let ns: Vec<usize> = if full {
        vec![10, 50, 100, 500]
    } else {
        vec![10, 50, 100]
    };
    let plen = params;
    let sketch_len = cfg.k_lp * cfg.moment_order * c;
    let mut t = Table::new(&["N", "FedAvg-style avg (ms)", "FedGTA personalized (ms)"]);
    for &n in &ns {
        let params_all: Vec<Vec<f32>> = (0..n)
            .map(|i| (0..plen).map(|j| ((i * j) % 97) as f32 / 97.0).collect())
            .collect();
        let sketches: Vec<Vec<f32>> = (0..n)
            .map(|i| (0..sketch_len).map(|j| ((i + j) % 13) as f32 / 13.0).collect())
            .collect();
        // FedAvg-style single average.
        let (_, fedavg_ns) = timed("table1.fedavg_aggregate", || {
            let uploads: Vec<(Vec<f32>, f64)> =
                params_all.iter().map(|p| (p.clone(), 1.0)).collect();
            fedgta_fed::strategies::weighted_average(&uploads)
        });
        let fedavg_ms = fedavg_ns as f64 / 1e6;
        // FedGTA personalized aggregation.
        let ups: Vec<ClientUpload<'_>> = (0..n)
            .map(|i| ClientUpload {
                params: &params_all[i],
                confidence: 1.0 + i as f64,
                moments: &sketches[i],
                n_train: 10,
            })
            .collect();
        let (_, gta_ns) = timed("table1.fedgta_aggregate", || {
            personalized_aggregate(
                &ups,
                &AggregateOptions {
                    epsilon: 0.5,
                    epsilon_quantile: None,
                    similarity: SimilarityKind::Cosine,
                    use_moments: true,
                    use_confidence: true,
                },
            )
        });
        let gta_ms = gta_ns as f64 / 1e6;
        t.row(vec![format!("{n}"), format!("{fedavg_ms:.2}"), format!("{gta_ms:.2}")]);
    }
    t.print();
    println!("\nNote: FedGTA's personalized pass computes N aggregates + an N×N similarity, so it is O(N) heavier than one FedAvg average but stays millisecond-scale at N=500 — matching the paper's O(N + NkKc) bound.");

    // --- Inference efficiency per backbone (paper §4.5 inline table).
    inference_times(full);
}

/// Per-backbone full-inference wall-clock on a 10-client split —
/// the paper's §4.5 inline measurement (SGC fastest … FedSage slowest,
/// decoupled models ahead of coupled ones).
fn inference_times(full: bool) {
    use fedgta_bench::{partition_benchmark, SplitKind};
    use fedgta_data::load_benchmark;
    use fedgta_fed::client::{build_clients, ClientBuildConfig};
    use fedgta_nn::models::{ModelConfig, ModelKind};

    let dataset = if full { "ogbn-arxiv" } else { "pubmed" };
    println!("\nTable 1 (inference) — federation-wide inference seconds on {dataset}, 10-client Louvain split\n");
    let bench = load_benchmark(dataset, 0).expect("dataset");
    let parts = partition_benchmark(&bench, SplitKind::Louvain, 10, 0);
    let mut t = Table::new(&["model", "cold (s)", "warm (s)"]);
    for kind in ModelKind::all() {
        // Inference only: the optimizer never steps, whatever it is set to.
        let build = ClientBuildConfig {
            lr: 0.01,
            weight_decay: 0.0,
            ..ClientBuildConfig::paper(ModelConfig::paper(kind, 64, 0), false)
        };
        let mut clients = build_clients(&bench, &parts, &build);
        // Cold: includes decoupled models' one-time propagation precompute.
        let (_, cold_ns) = fedgta_obs::timed("table1.inference_cold", || {
            for c in clients.iter_mut() {
                let _ = c.model.predict(&c.data);
            }
        });
        let cold = cold_ns as f64 / 1e9;
        // Warm: precomputed features cached (the deployment steady state).
        let (_, warm_ns) = fedgta_obs::timed("table1.inference_warm", || {
            for c in clients.iter_mut() {
                let _ = c.model.predict(&c.data);
            }
        });
        let warm = warm_ns as f64 / 1e9;
        t.row(vec![
            kind.name().to_string(),
            format!("{cold:.3}"),
            format!("{warm:.3}"),
        ]);
    }
    t.print();
}
