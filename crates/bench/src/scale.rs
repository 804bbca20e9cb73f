//! Out-of-core scale benchmark: the sweep behind `BENCH_SCALE.json`
//! (`repro scale`).
//!
//! Two sections:
//!
//! 1. **SpMM cells** — per graph size, a streamed SBM is generated
//!    straight to the v2 on-disk layout ([`fedgta_data::stream_sbm`]),
//!    normalized without materialization
//!    ([`fedgta_graph::store::normalize_stream`]), then `Y = Ã·X` is timed
//!    four ways: in-memory and out-of-core, at 1 and 4 worker threads.
//!    Every cell hard-asserts all four outputs **bitwise identical** —
//!    the determinism contract of the shared per-row kernel.
//! 2. **Federated run** — the largest graph is split into contiguous
//!    node ranges, every client's induced subgraph is read from the v2
//!    file in one pass by the extraction in-memory clients use
//!    ([`fedgta_graph::induced_subgraphs`], edge weights kept), each client
//!    gets a lean decoupled dataset ([`GraphDataset::for_decoupled`]), and
//!    FedGTA runs ≥ 2 federated SGC rounds. The run reports the tracked
//!    memory peaks — the
//!    `workspace.high_water_bytes` arena gauge, the
//!    `graph.store.resident_bytes` tile gauge, FedGTA's pooled
//!    `fedgta.metric_scratch.bytes` and the per-worker training kits'
//!    `fed.kits.bytes` — and hard-asserts their
//!    sum stays under the 4 GiB laptop-class budget, plus the OS-level
//!    `VmHWM` for honesty (the bench harness itself materializes the
//!    in-memory comparison baseline, which the budget does not cover).
//!
//! Full mode runs the 10⁷-node / ~10⁸-edge configuration; quick mode is
//! the ~10⁶-node CI smoke.

use crate::format::{json_f64, json_fixed, json_opt, json_rows, json_str, Table};
use crate::runner::make_strategy;
use fedgta_data::{stream_sbm, SbmConfig};
use fedgta_fed::client::Client;
use fedgta_fed::round::{SimConfig, Simulation};
use fedgta_graph::io::{CsrV2Writer, IoError};
use fedgta_graph::spmm::spmm_into_threads;
use fedgta_graph::store::{normalize_stream, spmm_chunked_into_threads, ChunkedCsr};
use fedgta_graph::{induced_subgraphs, NormKind};
use fedgta_nn::models::{build_model, ModelConfig, ModelKind};
use fedgta_nn::{Adam, GraphDataset, Matrix};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Tracked-memory budget the federated section must stay under.
pub const MEMORY_BUDGET_BYTES: u64 = 4 << 30;

/// Classes in every generated graph.
const NUM_CLASSES: usize = 16;
/// Blocks per class — 512 blocks total, so a client count dividing 512
/// gives each client whole blocks.
const BLOCKS_PER_CLASS: usize = 32;
/// Feature width of the synthetic node features.
const FEATURE_DIM: usize = 16;
/// Row-chunk granularity of generated v2 files.
const CHUNK_ROWS: usize = 1 << 16;

/// One SpMM throughput cell.
#[derive(Debug, Clone)]
pub struct ScaleCell {
    /// Node count.
    pub nodes: usize,
    /// Directed stored edges of the normalized adjacency.
    pub edges: usize,
    /// Dense column width of the SpMM.
    pub cols: usize,
    /// Seconds to stream-generate the raw graph to disk.
    pub gen_s: f64,
    /// Seconds to stream-normalize it (two passes, no materialization).
    pub norm_s: f64,
    /// Seconds per in-memory SpMM at 1 thread.
    pub mem_1t_s: f64,
    /// Seconds per in-memory SpMM at 4 threads.
    pub mem_4t_s: f64,
    /// Seconds per out-of-core SpMM at 1 thread.
    pub disk_1t_s: f64,
    /// Seconds per out-of-core SpMM at 4 threads.
    pub disk_4t_s: f64,
    /// Out-of-core 1-thread edge throughput (edges/s).
    pub disk_edges_per_s: f64,
    /// All four outputs bitwise equal (hard-asserted).
    pub bit_identical: bool,
}

/// The federated-scale section.
#[derive(Debug, Clone)]
pub struct ScaleFedStats {
    /// Node count of the federated graph.
    pub nodes: usize,
    /// Directed stored edges of the raw graph.
    pub edges: usize,
    /// Client count (contiguous block groups).
    pub clients: usize,
    /// Communication rounds run.
    pub rounds: usize,
    /// Participation fraction per round.
    pub participation: f64,
    /// Seconds to stream-generate the raw graph (0 when a cell's file is
    /// reused).
    pub gen_s: f64,
    /// Seconds to extract all client subgraphs from the v2 file and build
    /// their datasets/models.
    pub build_s: f64,
    /// Seconds for the federated rounds (training + aggregation).
    pub run_s: f64,
    /// Global test accuracy after the last round.
    pub final_acc: f64,
    /// `workspace.high_water_bytes` gauge after the run.
    pub workspace_hwm_bytes: u64,
    /// `graph.store.resident_bytes` gauge high-water after the run.
    pub store_resident_peak_bytes: u64,
    /// `fedgta.metric_scratch.bytes` gauge after the run: what FedGTA's
    /// pool of Algorithm-1 intermediates holds, one instance per worker.
    pub metric_scratch_bytes: u64,
    /// `fed.kits.bytes` gauge after the run: the arenas and optimizer
    /// moments the run lends its clients, one kit per worker.
    pub kits_bytes: u64,
    /// Sum of the four tracked peaks.
    pub tracked_peak_bytes: u64,
    /// Tracked peak within [`MEMORY_BUDGET_BYTES`] (hard-asserted).
    pub within_budget: bool,
    /// OS-level peak resident set (`VmHWM`, bytes) of the whole process —
    /// includes the bench harness's in-memory baselines, not just the
    /// out-of-core path.
    pub vm_hwm_bytes: Option<u64>,
}

/// The full report.
#[derive(Debug, Clone)]
pub struct ScaleReport {
    /// `"quick"` or `"full"`.
    pub mode: &'static str,
    /// SpMM throughput cells, smallest first.
    pub cells: Vec<ScaleCell>,
    /// The federated-scale section.
    pub fed: ScaleFedStats,
}

struct Grid {
    /// `(nodes, avg_degree)` per SpMM cell.
    cells: Vec<(usize, f64)>,
    fed_nodes: usize,
    fed_avg_degree: f64,
    fed_clients: usize,
    fed_rounds: usize,
    participation: f64,
}

impl Grid {
    fn new(quick: bool) -> Self {
        if quick {
            Self {
                cells: vec![(200_000, 8.0)],
                fed_nodes: 1_000_000,
                fed_avg_degree: 8.0,
                fed_clients: 32,
                fed_rounds: 2,
                participation: 0.25,
            }
        } else {
            Self {
                cells: vec![(100_000, 8.0), (1_000_000, 8.0), (10_000_000, 11.0)],
                fed_nodes: 10_000_000,
                fed_avg_degree: 11.0,
                fed_clients: 64,
                fed_rounds: 2,
                participation: 0.25,
            }
        }
    }
}

/// SplitMix64 — the deterministic hash behind synthetic features and
/// train/val/test membership.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform float in `[-0.5, 0.5)` from a hash.
fn hash_unit(x: u64) -> f32 {
    (splitmix64(x) >> 40) as f32 / (1u64 << 24) as f32 - 0.5
}

/// The SBM config every section uses (same structure, so the federated
/// run can reuse a cell's generated file).
fn sbm_config(n: usize, avg_degree: f64, seed: u64) -> SbmConfig {
    SbmConfig::with_homophily(n, NUM_CLASSES, BLOCKS_PER_CLASS, avg_degree, 0.7, seed)
}

/// Deterministic synthetic features for global node `g`: label-aligned
/// signal plus hash noise, so a logistic head on propagated features has
/// something to learn.
fn node_features(g: u32, label: u32, seed: u64, out: &mut [f32]) {
    for (j, o) in out.iter_mut().enumerate() {
        *o = hash_unit(seed ^ ((g as u64) << 8) ^ j as u64);
    }
    out[label as usize % out.len()] += 1.5;
}

/// Deterministic split of global node `g`: 60 / 20 / 20.
fn node_split(g: u32, seed: u64) -> u8 {
    match splitmix64(seed ^ 0xA5A5_0000 ^ g as u64) % 10 {
        0..=5 => 0,
        6 | 7 => 1,
        _ => 2,
    }
}

/// A generated raw graph on disk plus its ground truth.
pub struct RawGraph {
    /// Path of the raw (unnormalized) v2 file.
    pub path: PathBuf,
    /// Class label per node.
    pub labels: Vec<u32>,
    /// Directed stored edges.
    pub edges: usize,
    /// Seconds the streamed generation took.
    pub gen_s: f64,
}

/// Streams an SBM of `n` nodes to a raw v2 file under `dir`.
pub fn generate_raw(n: usize, avg_degree: f64, seed: u64, dir: &Path) -> Result<RawGraph, IoError> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("scale-raw-{n}-{seed}.fgta2"));
    let t0 = Instant::now();
    let writer = CsrV2Writer::create(&path, n, CHUNK_ROWS)?;
    let cfg = sbm_config(n, avg_degree, seed);
    let out = stream_sbm(&cfg, dir, writer)?;
    Ok(RawGraph {
        path,
        labels: out.labels,
        edges: out.output.edges as usize,
        gen_s: t0.elapsed().as_secs_f64(),
    })
}

/// Times `reps` runs of one SpMM and returns seconds per run.
fn time_spmm(reps: usize, mut spmm: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        spmm();
    }
    t0.elapsed().as_secs_f64() / reps as f64
}

/// Runs one SpMM throughput cell; returns the cell and (when
/// `keep_raw`) the generated raw graph for reuse.
pub fn run_cell(
    n: usize,
    avg_degree: f64,
    seed: u64,
    dir: &Path,
    keep_raw: bool,
) -> (ScaleCell, Option<RawGraph>) {
    let raw = generate_raw(n, avg_degree, seed, dir).expect("streamed SBM generation");
    let gen_s = raw.gen_s;
    let norm_path = dir.join(format!("scale-norm-{n}-{seed}.fgta2"));
    let t0 = Instant::now();
    let raw_store = ChunkedCsr::open(&raw.path).expect("open raw v2");
    let writer = CsrV2Writer::create(&norm_path, n, CHUNK_ROWS).expect("create norm v2");
    let (summary, _) =
        normalize_stream(&raw_store, NormKind::Symmetric, writer).expect("streamed normalization");
    drop(raw_store);
    let norm_s = t0.elapsed().as_secs_f64();
    let edges = summary.edges as usize;

    let disk = ChunkedCsr::open(&norm_path).expect("open normalized v2");
    let mem = disk.to_csr().expect("materialize normalized adjacency");

    let cols = FEATURE_DIM;
    let x: Vec<f32> = (0..n * cols).map(|i| hash_unit(seed ^ 0x5eed ^ i as u64)).collect();
    let mut y_ref = vec![0f32; n * cols];
    let mut y = vec![0f32; n * cols];
    let reps = if edges < 2_000_000 { 5 } else { 1 };

    let mem_1t_s = time_spmm(reps, || spmm_into_threads(&mem, &x, cols, &mut y_ref, 1));
    let mem_4t_s = time_spmm(reps, || spmm_into_threads(&mem, &x, cols, &mut y, 4));
    let mut bit_identical = y == y_ref;
    let disk_spmm = |y: &mut [f32], threads| {
        time_spmm(reps, || spmm_chunked_into_threads(&disk, &x, cols, y, threads).expect("spmm"))
    };
    let disk_1t_s = disk_spmm(&mut y, 1);
    bit_identical &= y == y_ref;
    let disk_4t_s = disk_spmm(&mut y, 4);
    bit_identical &= y == y_ref;
    assert!(
        bit_identical,
        "scale cell n={n}: in-memory / out-of-core / thread-count outputs differ bitwise"
    );

    drop(disk);
    let _ = std::fs::remove_file(&norm_path);
    let raw = if keep_raw {
        Some(raw)
    } else {
        let _ = std::fs::remove_file(&raw.path);
        None
    };
    (
        ScaleCell {
            nodes: n,
            edges,
            cols,
            gen_s,
            norm_s,
            mem_1t_s,
            mem_4t_s,
            disk_1t_s,
            disk_4t_s,
            disk_edges_per_s: edges as f64 / disk_1t_s,
            bit_identical,
        },
        raw,
    )
}

/// Contiguous node range of client `c` out of `clients`: `n·c / clients ..
/// n·(c+1) / clients`. At a client count dividing the 512 SBM blocks these
/// are whole runs of consecutive blocks.
fn client_range(n: usize, clients: usize, c: usize) -> std::ops::Range<usize> {
    (n * c / clients)..(n * (c + 1) / clients)
}

/// Builds the federated clients from a generated raw graph: contiguous
/// node ranges, each client's induced subgraph extracted in one pass over
/// the v2 file's tiles ([`induced_subgraphs`], the in-memory clients'
/// extraction, so a duplicated edge keeps its weight), lean decoupled
/// datasets (no mean-aggregation matrices), deterministic features/splits
/// and SGC backbones. `Client::new` propagates each client's features in
/// place, so none keeps its raw `X`. Panics unless `1 <= clients <= n`.
pub fn build_scale_clients(raw: &RawGraph, clients: usize, seed: u64) -> Vec<Client> {
    let n = raw.labels.len();
    assert!(
        (1..=n).contains(&clients),
        "cannot split {n} nodes into {clients} scale clients: need 1 to {n}"
    );
    let parts: Vec<u32> =
        (0..clients).flat_map(|c| client_range(n, clients, c).map(move |_| c as u32)).collect();
    let store = ChunkedCsr::open(&raw.path).expect("open raw v2");
    let graphs = induced_subgraphs(&store, &parts, clients).expect("client extraction");
    drop((store, parts));
    graphs
        .into_iter()
        .enumerate()
        .map(|(id, sg)| {
            let mut feats = vec![0f32; sg.num_owned * FEATURE_DIM];
            let labels: Vec<u32> = sg.global_ids.iter().map(|&g| raw.labels[g as usize]).collect();
            let (mut train, mut val, mut test) = (Vec::new(), Vec::new(), Vec::new());
            for (local, (&g, &lab)) in sg.global_ids.iter().zip(&labels).enumerate() {
                node_features(
                    g,
                    lab,
                    seed,
                    &mut feats[local * FEATURE_DIM..(local + 1) * FEATURE_DIM],
                );
                match node_split(g, seed) {
                    0 => train.push(local as u32),
                    1 => val.push(local as u32),
                    _ => test.push(local as u32),
                }
            }
            let data = GraphDataset::for_decoupled(
                &sg.graph,
                Matrix::from_vec(sg.num_owned, FEATURE_DIM, feats),
                labels,
                NUM_CLASSES,
                train,
                val,
                test,
            );
            let model_cfg = ModelConfig {
                kind: ModelKind::Sgc,
                hidden: 32,
                layers: 1,
                k: 2,
                batch_size: 1024,
                seed: seed.wrapping_add(id as u64 * 1013),
                ..ModelConfig::default()
            };
            let model = build_model(&model_cfg, FEATURE_DIM, NUM_CLASSES);
            Client {
                global_ids: sg.global_ids,
                ..Client::new(id, data, model, Box::new(Adam::new(0.02, 5e-4)))
            }
        })
        .collect()
}

/// Peak resident set of this process (`VmHWM` from `/proc/self/status`),
/// in bytes. `None` off Linux.
pub fn vm_hwm_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

/// Runs the federated section on an already-generated raw graph.
pub fn run_fed(
    raw: &RawGraph,
    grid_clients: usize,
    rounds: usize,
    participation: f64,
    seed: u64,
) -> ScaleFedStats {
    // The memory proof reads the workspace high-water gauge, which only
    // records while metrics are armed.
    fedgta_obs::set_level(fedgta_obs::ObsLevel::Metrics);
    let t0 = Instant::now();
    let clients = build_scale_clients(raw, grid_clients, seed);
    let build_s = t0.elapsed().as_secs_f64();
    let n = raw.labels.len();

    let t0 = Instant::now();
    let mut sim = Simulation::new(
        clients,
        make_strategy("FedGTA"),
        SimConfig { rounds, local_epochs: 2, participation, eval_every: 1, seed, threads: 0 },
    );
    let records = sim.run();
    let run_s = t0.elapsed().as_secs_f64();
    assert!(records.len() >= 2, "scale protocol requires >= 2 federated rounds");
    let final_acc = records.iter().rev().find_map(|r| r.test_acc).unwrap_or(0.0);

    let reg = fedgta_obs::global();
    let workspace_hwm_bytes = reg.gauge("workspace.high_water_bytes").get();
    let store_resident_peak_bytes = reg.gauge("graph.store.resident_bytes").get();
    let metric_scratch_bytes = reg.gauge("fedgta.metric_scratch.bytes").get();
    let kits_bytes = reg.gauge("fed.kits.bytes").get();
    let tracked_peak_bytes =
        workspace_hwm_bytes + store_resident_peak_bytes + metric_scratch_bytes + kits_bytes;
    let within_budget = tracked_peak_bytes <= MEMORY_BUDGET_BYTES;
    assert!(
        within_budget,
        "tracked peak {tracked_peak_bytes} bytes exceeds the {MEMORY_BUDGET_BYTES}-byte budget"
    );
    ScaleFedStats {
        nodes: n,
        edges: raw.edges,
        clients: grid_clients,
        rounds: records.len(),
        participation,
        gen_s: raw.gen_s,
        build_s,
        run_s,
        final_acc,
        workspace_hwm_bytes,
        store_resident_peak_bytes,
        metric_scratch_bytes,
        kits_bytes,
        tracked_peak_bytes,
        within_budget,
        vm_hwm_bytes: vm_hwm_bytes(),
    }
}

/// Scratch directory for generated graphs (`FEDGTA_SCALE_DIR` overrides;
/// defaults to a per-process dir under the system temp root, which must
/// be disk-backed for the out-of-core measurements to mean anything).
pub fn scratch_dir() -> PathBuf {
    match std::env::var("FEDGTA_SCALE_DIR") {
        Ok(d) if !d.is_empty() => PathBuf::from(d),
        _ => std::env::temp_dir().join(format!("fedgta-scale-{}", std::process::id())),
    }
}

/// Runs the sweep. `quick` is the CI smoke grid.
pub fn run(quick: bool) -> ScaleReport {
    fedgta_obs::set_level(fedgta_obs::ObsLevel::Metrics);
    let grid = Grid::new(quick);
    let dir = scratch_dir();
    let seed = 11u64;
    let mut cells = Vec::new();
    let mut fed_raw: Option<RawGraph> = None;
    for &(n, deg) in &grid.cells {
        let reuse = n == grid.fed_nodes && deg == grid.fed_avg_degree;
        let (cell, raw) = run_cell(n, deg, seed, &dir, reuse);
        if let Some(raw) = raw {
            fed_raw = Some(raw);
        }
        cells.push(cell);
    }
    let raw = fed_raw.unwrap_or_else(|| {
        generate_raw(grid.fed_nodes, grid.fed_avg_degree, seed, &dir)
            .expect("streamed SBM generation")
    });
    let fed = run_fed(&raw, grid.fed_clients, grid.fed_rounds, grid.participation, seed);
    let _ = std::fs::remove_file(&raw.path);
    ScaleReport { mode: if quick { "quick" } else { "full" }, cells, fed }
}

/// Hand-rolled JSON via the [`crate::format`] helpers.
pub fn to_json(r: &ScaleReport) -> String {
    let mut s = String::with_capacity(4096);
    s.push_str("{\n");
    s.push_str(&format!("  \"mode\": {},\n", json_str(r.mode)));
    s.push_str(&format!("  \"memory_budget_bytes\": {},\n", MEMORY_BUDGET_BYTES));
    json_rows(&mut s, "cells", &r.cells, |c| {
        [
            ("nodes", c.nodes.to_string()),
            ("edges", c.edges.to_string()),
            ("cols", c.cols.to_string()),
            ("gen_s", json_fixed(c.gen_s, 3)),
            ("norm_s", json_fixed(c.norm_s, 3)),
            ("mem_1t_s", json_fixed(c.mem_1t_s, 4)),
            ("mem_4t_s", json_fixed(c.mem_4t_s, 4)),
            ("disk_1t_s", json_fixed(c.disk_1t_s, 4)),
            ("disk_4t_s", json_fixed(c.disk_4t_s, 4)),
            ("disk_edges_per_s", json_fixed(c.disk_edges_per_s, 0)),
            ("bit_identical", c.bit_identical.to_string()),
        ]
    });
    s.push_str(",\n");
    let f = &r.fed;
    let vm = json_opt(f.vm_hwm_bytes);
    s.push_str("  \"federated\": {\n");
    s.push_str(&format!(
        "    \"nodes\": {}, \"edges\": {}, \"clients\": {}, \"rounds\": {}, \"participation\": {},\n",
        f.nodes,
        f.edges,
        f.clients,
        f.rounds,
        json_fixed(f.participation, 2)
    ));
    s.push_str(&format!(
        "    \"gen_s\": {}, \"build_s\": {}, \"run_s\": {}, \"final_acc\": {},\n",
        json_fixed(f.gen_s, 3),
        json_fixed(f.build_s, 3),
        json_fixed(f.run_s, 3),
        json_f64(f.final_acc)
    ));
    s.push_str(&format!(
        "    \"workspace_hwm_bytes\": {}, \"store_resident_peak_bytes\": {}, \
         \"metric_scratch_bytes\": {}, \"kits_bytes\": {}, \"tracked_peak_bytes\": {}, \
         \"within_budget\": {}, \"vm_hwm_bytes\": {}\n",
        f.workspace_hwm_bytes,
        f.store_resident_peak_bytes,
        f.metric_scratch_bytes,
        f.kits_bytes,
        f.tracked_peak_bytes,
        f.within_budget,
        vm
    ));
    s.push_str("  }\n}\n");
    s
}

/// Plain-text tables for terminal output.
pub fn render_table(r: &ScaleReport) -> String {
    let mut t = Table::new(&[
        "nodes",
        "edges",
        "gen s",
        "norm s",
        "mem 1t s",
        "mem 4t s",
        "disk 1t s",
        "disk 4t s",
        "Medge/s",
        "bitwise",
    ]);
    for c in &r.cells {
        t.row(vec![
            c.nodes.to_string(),
            c.edges.to_string(),
            format!("{:.2}", c.gen_s),
            format!("{:.2}", c.norm_s),
            format!("{:.4}", c.mem_1t_s),
            format!("{:.4}", c.mem_4t_s),
            format!("{:.4}", c.disk_1t_s),
            format!("{:.4}", c.disk_4t_s),
            format!("{:.1}", c.disk_edges_per_s / 1e6),
            if c.bit_identical { "yes" } else { "NO" }.to_string(),
        ]);
    }
    let f = &r.fed;
    format!(
        "scale bench ({} mode, cols {})\n{}\nfederated: {} nodes / {} edges, {} clients, {} rounds \
         (participation {:.2}) — gen {:.1}s, build {:.1}s, run {:.1}s, final acc {:.3}\n\
         tracked memory: workspace HWM {:.1} MiB + store resident peak {:.1} MiB + FedGTA metric \
         scratch {:.1} MiB + worker kits {:.1} MiB = {:.1} MiB (budget {:.0} MiB, within: {}){}\n",
        r.mode,
        FEATURE_DIM,
        t.render(),
        f.nodes,
        f.edges,
        f.clients,
        f.rounds,
        f.participation,
        f.gen_s,
        f.build_s,
        f.run_s,
        f.final_acc,
        f.workspace_hwm_bytes as f64 / (1 << 20) as f64,
        f.store_resident_peak_bytes as f64 / (1 << 20) as f64,
        f.metric_scratch_bytes as f64 / (1 << 20) as f64,
        f.kits_bytes as f64 / (1 << 20) as f64,
        f.tracked_peak_bytes as f64 / (1 << 20) as f64,
        MEMORY_BUDGET_BYTES as f64 / (1 << 20) as f64,
        f.within_budget,
        f.vm_hwm_bytes.map_or_else(String::new, |v| {
            format!("\nprocess VmHWM: {:.1} MiB (includes in-memory comparison baselines)", v as f64 / (1 << 20) as f64)
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_cell_is_bit_identical_and_cleans_up() {
        let dir = scratch_dir().join("cell-test");
        let (cell, raw) = run_cell(4_096, 6.0, 3, &dir, false);
        assert!(raw.is_none());
        assert!(cell.bit_identical);
        assert!(cell.edges > 4_096);
        assert!(
            std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0) == 0,
            "cell left scratch files behind"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tiny_fed_run_stays_in_budget_and_reports_gauges() {
        let dir = scratch_dir().join("fed-test");
        let raw = generate_raw(6_000, 6.0, 5, &dir).expect("generate");
        let stats = run_fed(&raw, 4, 2, 1.0, 5);
        assert_eq!(stats.rounds, 2);
        assert_eq!(stats.clients, 4);
        assert!(stats.within_budget);
        assert!(stats.workspace_hwm_bytes > 0, "workspace gauge never rose");
        assert!(stats.store_resident_peak_bytes > 0, "store resident gauge never rose");
        // 6 000 nodes in 4 clients: Ŷ⁰ + 5 steps of 1 500 × 16 floats each.
        assert!(stats.metric_scratch_bytes >= 6 * 1_500 * NUM_CLASSES as u64 * 4);
        // The kits hold at least one worker's Adam moments.
        assert!(stats.kits_bytes >= 2 * 4 * (FEATURE_DIM + 1) as u64 * NUM_CLASSES as u64);
        assert_eq!(
            stats.tracked_peak_bytes,
            stats.workspace_hwm_bytes
                + stats.store_resident_peak_bytes
                + stats.metric_scratch_bytes
                + stats.kits_bytes
        );
        assert!(stats.final_acc > 1.0 / NUM_CLASSES as f64, "no learning signal");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scale_clients_hold_their_propagation_and_predict_as_before() {
        use fedgta_graph::par::par_map_indexed;
        use fedgta_nn::models::precompute::{combine, hop_features};
        use fedgta_nn::models::PrecomputeKind;
        use fedgta_nn::ops::softmax_rows_inplace;
        use fedgta_nn::{Mlp, Workspace};
        let dir = scratch_dir().join("clients-test");
        let raw = generate_raw(4_096, 6.0, 9, &dir).expect("generate");
        let mut clients = build_scale_clients(&raw, 4, 9);
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for threads in [1, 4] {
            let got = par_map_indexed(&mut clients, Some(threads), |_, c| c.model.predict(&c.data));
            for (c, probs) in clients.iter().zip(&got) {
                let n = c.global_ids.len();
                assert_eq!(c.data.features.shape(), (n, FEATURE_DIM));
                assert_eq!(c.data.propagated, Some((PrecomputeKind::Sgc, 2)));
                // The raw features, and the head over their propagation
                // as a model used to cache it.
                let mut x = Matrix::zeros(n, FEATURE_DIM);
                for (local, &g) in c.global_ids.iter().enumerate() {
                    node_features(g, raw.labels[g as usize], 9, x.row_mut(local));
                }
                let combined = combine(PrecomputeKind::Sgc, &hop_features(&c.data.adj_norm, &x, 2));
                let mut head = Mlp::new(&[FEATURE_DIM, NUM_CLASSES], 0.0, 0);
                head.set_params(&c.model.params());
                let mut want = head.infer_ws(combined.view(), &mut Workspace::new());
                softmax_rows_inplace(&mut want);
                assert_eq!(bits(probs), bits(&want), "client {} at {threads} threads", c.id);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn client_ranges_partition_the_nodes() {
        let n = 10_007;
        for clients in [3, 4, 7, 16, 32, 64, 100] {
            let mut prev_end = 0;
            for c in 0..clients {
                let r = client_range(n, clients, c);
                assert_eq!(r.start, prev_end);
                assert!(!r.is_empty(), "client {c} of {clients} is empty");
                prev_end = r.end;
            }
            assert_eq!(prev_end, n, "{clients} clients");
        }
        // At a divisor of the 512 blocks, each client is whole blocks.
        let blocks = NUM_CLASSES * BLOCKS_PER_CLASS;
        for clients in [4, 32, 64] {
            let per = blocks / clients;
            for c in 0..clients {
                let by_block = (n * c * per / blocks)..(n * (c + 1) * per / blocks);
                assert_eq!(client_range(n, clients, c), by_block, "client {c} of {clients}");
            }
        }
    }

    #[test]
    fn scale_clients_for_any_count_and_refused_outside_one_to_n() {
        let dir = scratch_dir().join("counts-test");
        let raw = generate_raw(600, 4.0, 9, &dir).expect("generate");
        let clients = build_scale_clients(&raw, 3, 9);
        let sizes: Vec<usize> = clients.iter().map(|c| c.global_ids.len()).collect();
        assert_eq!(sizes, [200, 200, 200]);
        for bad in [0, 601] {
            let err =
                std::panic::catch_unwind(|| build_scale_clients(&raw, bad, 9).len()).unwrap_err();
            let msg = err.downcast_ref::<String>().expect("a formatted message");
            assert!(msg.contains(&format!("{bad} scale clients")), "{msg}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn json_is_balanced() {
        let cell = ScaleCell {
            nodes: 10,
            edges: 20,
            cols: 4,
            gen_s: 0.1,
            norm_s: 0.1,
            mem_1t_s: 0.01,
            mem_4t_s: 0.01,
            disk_1t_s: 0.01,
            disk_4t_s: 0.01,
            disk_edges_per_s: 2000.0,
            bit_identical: true,
        };
        let fed = ScaleFedStats {
            nodes: 10,
            edges: 20,
            clients: 2,
            rounds: 2,
            participation: 1.0,
            gen_s: 0.1,
            build_s: 0.1,
            run_s: 0.1,
            final_acc: 0.5,
            workspace_hwm_bytes: 1,
            store_resident_peak_bytes: 1,
            metric_scratch_bytes: 1,
            kits_bytes: 1,
            tracked_peak_bytes: 4,
            within_budget: true,
            vm_hwm_bytes: None,
        };
        let r = ScaleReport { mode: "quick", cells: vec![cell], fed };
        let json = to_json(&r);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"tracked_peak_bytes\""));
        assert!(render_table(&r).contains("federated"));
    }
}
