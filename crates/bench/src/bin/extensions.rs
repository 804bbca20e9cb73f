//! Extensions study (DESIGN.md §5 / the paper's conclusion): base FedGTA
//! vs the adaptive-ε and propagated-feature-moment extensions, plus the
//! DP-upload privacy wrapper's accuracy cost.
//!
//! Usage: `cargo run --release -p fedgta-bench --bin extensions [--full]`

use fedgta::{FedGta, FedGtaConfig};
use fedgta_bench::{fmt_pm, is_full_run, partition_benchmark, SplitKind, Table};
use fedgta_data::load_benchmark;
use fedgta_fed::client::{build_clients, ClientBuildConfig};
use fedgta_fed::round::{best_accuracy, SimConfig, Simulation};
use fedgta_fed::strategies::{DpUpload, Strategy};
use fedgta_nn::models::{ModelConfig, ModelKind};

fn run_once(dataset: &str, strategy: Box<dyn Strategy>, rounds: usize, seed: u64) -> f64 {
    let bench = load_benchmark(dataset, seed).expect("dataset");
    let parts = partition_benchmark(&bench, SplitKind::Louvain, 10, seed);
    let model = ModelConfig::paper(ModelKind::Gamlp, 32, seed);
    let clients = build_clients(&bench, &parts, &ClientBuildConfig::paper(model, false));
    let mut sim = Simulation::new(
        clients,
        strategy,
        SimConfig {
            rounds,
            local_epochs: 3,
            eval_every: 5,
            seed,
            ..SimConfig::default()
        },
    );
    best_accuracy(&sim.run())
}

type VariantRow = (&'static str, Box<dyn Fn() -> Box<dyn Strategy>>);

fn mean_std(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let m = xs.iter().sum::<f64>() / n;
    let v = xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / n;
    (m, v.sqrt())
}

fn main() {
    let full = is_full_run();
    let datasets = if full {
        vec!["cora", "amazon-photo", "ogbn-arxiv"]
    } else {
        vec!["cora", "amazon-photo"]
    };
    let (rounds, runs) = if full { (60, 3) } else { (25, 2) };
    let variants: Vec<VariantRow> = vec![
        (
            "FedGTA (fixed ε=0.5)",
            Box::new(|| Box::new(FedGta::with_defaults()) as Box<dyn Strategy>),
        ),
        (
            "FedGTA adaptive ε (q=0.8)",
            Box::new(|| Box::new(FedGta::new(FedGtaConfig::adaptive(0.8)))),
        ),
        (
            "FedGTA adaptive ε (q=0.5)",
            Box::new(|| Box::new(FedGta::new(FedGtaConfig::adaptive(0.5)))),
        ),
        (
            "FedGTA + feature moments",
            Box::new(|| Box::new(FedGta::new(FedGtaConfig::with_feature_moments()))),
        ),
        (
            "DP(FedGTA) σ=0.002",
            Box::new(|| {
                Box::new(DpUpload::new(
                    Box::new(FedGta::with_defaults()),
                    5.0,
                    0.002,
                    0,
                ))
            }),
        ),
        (
            "DP(FedGTA) σ=0.01",
            Box::new(|| {
                Box::new(DpUpload::new(
                    Box::new(FedGta::with_defaults()),
                    5.0,
                    0.01,
                    0,
                ))
            }),
        ),
    ];

    let mut header = vec!["variant".to_string()];
    header.extend(datasets.iter().map(|d| d.to_string()));
    let hdr: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(&hdr);
    for (label, make) in &variants {
        let mut row = vec![label.to_string()];
        for d in &datasets {
            let accs: Vec<f64> = (0..runs)
                .map(|r| run_once(d, make(), rounds, 37 + r as u64))
                .collect();
            let (m, s) = mean_std(&accs);
            row.push(fmt_pm(m, s));
            eprintln!("[extensions] {label} {d} -> {}", fmt_pm(m, s));
        }
        t.row(row);
    }
    println!(
        "Extensions study — GAMLP, Louvain 10 clients, {} rounds, {} runs ({})\n",
        rounds,
        runs,
        if full { "full" } else { "quick" }
    );
    t.print();
}
