//! Large-scale federated graph learning: the ogbn-papers100M protocol,
//! out of core.
//!
//! The paper's headline scalability experiment runs FedGTA with partial
//! participation on ogbn-papers100M. This example runs the same
//! *protocol* at real scale: a 10⁷-node / ~10⁸-edge graph is streamed to
//! the chunked v2 on-disk layout (never materializing the edge list),
//! partitioned into 64 contiguous-community clients extracted in one
//! pass over the file's tiles, and trained for two FedGTA rounds with a
//! decoupled SGC backbone. The run prints the tracked memory peaks —
//! the workspace arena high-water plus the out-of-core tile buffers —
//! and asserts they stay under the 4 GiB laptop-class budget.
//!
//! ```sh
//! cargo run --release --example papers100m_scale            # 10⁷ nodes
//! cargo run --release --example papers100m_scale -- --small # 120k stand-in
//! ```
//!
//! `--small` keeps the original in-memory fast path: the 120k-node
//! catalog stand-in (see DESIGN.md §3.1), a Louvain split into 200
//! clients, and 10 rounds at 20% participation.

use fedgta_suite::bench::scale;
use fedgta_suite::core::FedGta;
use fedgta_suite::data::load_benchmark;
use fedgta_suite::fed::client::{build_clients, ClientBuildConfig};
use fedgta_suite::fed::round::{SimConfig, Simulation};
use fedgta_suite::nn::models::{ModelConfig, ModelKind};
use fedgta_suite::partition::{communities_to_clients, louvain, LouvainConfig};
use std::time::Instant;

fn main() {
    if std::env::args().any(|a| a == "--small") {
        run_small();
    } else {
        run_full();
    }
}

/// The real-scale protocol: streamed generation, out-of-core partition
/// extraction, two FedGTA rounds, a tracked-memory proof.
fn run_full() {
    let nodes = 10_000_000;
    let avg_degree = 11.0;
    let dir = scale::scratch_dir();
    println!("papers100M-scale: streaming a {nodes}-node SBM to {}", dir.display());

    let raw = scale::generate_raw(nodes, avg_degree, 11, &dir).expect("streamed generation");
    println!(
        "generated {} directed edges in {:.1}s (resident edge data: one spill buffer)",
        raw.edges, raw.gen_s
    );

    let stats = scale::run_fed(&raw, 64, 2, 0.25, 11);
    let _ = std::fs::remove_file(&raw.path);
    println!(
        "built {} clients in {:.1}s; {} rounds in {:.1}s; final test acc {:.1}%",
        stats.clients,
        stats.build_s,
        stats.rounds,
        stats.run_s,
        100.0 * stats.final_acc
    );
    println!(
        "tracked peak memory: workspace {:.1} MiB + store tiles {:.1} MiB + metric scratch {:.1} MiB \
         + worker kits {:.1} MiB = {:.1} MiB (budget {} MiB)",
        stats.workspace_hwm_bytes as f64 / (1 << 20) as f64,
        stats.store_resident_peak_bytes as f64 / (1 << 20) as f64,
        stats.metric_scratch_bytes as f64 / (1 << 20) as f64,
        stats.kits_bytes as f64 / (1 << 20) as f64,
        stats.tracked_peak_bytes as f64 / (1 << 20) as f64,
        scale::MEMORY_BUDGET_BYTES >> 20
    );
    if let Some(vm) = stats.vm_hwm_bytes {
        println!(
            "process VmHWM: {:.1} MiB (includes client datasets and models)",
            vm as f64 / (1 << 20) as f64
        );
    }
    assert!(stats.within_budget, "memory budget exceeded");
}

/// The original in-memory fast path on the 120k-node catalog stand-in.
fn run_small() {
    let t0 = Instant::now();
    let bench = load_benchmark("ogbn-papers100m", 5).expect("catalog dataset");
    println!(
        "papers100M-sim: {} nodes, {} edges, {} classes (generated in {:.1}s)",
        bench.graph.num_nodes(),
        bench.graph.num_edges() / 2,
        bench.num_classes,
        t0.elapsed().as_secs_f64()
    );

    let t0 = Instant::now();
    let communities = louvain(&bench.graph, &LouvainConfig::default());
    println!(
        "louvain: {} communities in {:.1}s",
        communities.num_parts,
        t0.elapsed().as_secs_f64()
    );
    let partition = communities_to_clients(&communities, 200).expect("200 clients");

    let t0 = Instant::now();
    let clients = build_clients(
        &bench,
        &partition,
        &ClientBuildConfig {
            model: ModelConfig {
                kind: ModelKind::Sgc,
                hidden: 32,
                layers: 1,
                k: 3,
                batch_size: 256,
                seed: 5,
                ..ModelConfig::default()
            },
            lr: 0.01,
            weight_decay: 5e-4,
            halo: false,
        },
    );
    println!("built {} clients in {:.1}s", clients.len(), t0.elapsed().as_secs_f64());

    let mut sim = Simulation::new(
        clients,
        Box::new(FedGta::with_defaults()),
        SimConfig {
            rounds: 10,
            local_epochs: 2,
            participation: 0.2, // 40 of 200 clients per round
            eval_every: 2,
            seed: 5,
            threads: 0, // auto: one worker per core, clients chunked across them
        },
    );
    for r in sim.run() {
        match r.test_acc {
            Some(acc) => println!(
                "round {:>3}: loss {:.3}, test acc {:.1}%, {:.1}s elapsed",
                r.round,
                r.mean_loss,
                100.0 * acc,
                r.cumulative_s
            ),
            None => println!("round {:>3}: loss {:.3}", r.round, r.mean_loss),
        }
    }
}
