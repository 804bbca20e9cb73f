//! Degree-corrected stochastic block model, stub-sampled in O(m).
//!
//! Nodes are assigned to contiguous *blocks* (several blocks per class).
//! Each node draws a degree propensity from a heavy-tailed distribution;
//! each edge stub targets (a) its own block, (b) another block of the same
//! class, or (c) a different class, with configurable probabilities. This
//! yields homophilous graphs with strong community structure and realistic
//! skewed degrees — the regime the paper's Louvain/Metis federated splits
//! assume.
//!
//! Two entry points share one sampling core (`sbm_plan` + `draw_node_edges`
//! consume the RNG identically), so they are bit-identical for a given
//! config:
//! - [`generate_sbm`] materializes an [`EdgeList`] and converts to CSR —
//!   simple, but peaks at O(m) edge records plus the CSR itself;
//! - [`stream_sbm`] spills directed edge records to per-row-range bucket
//!   files, then finalizes buckets in row order straight into a
//!   [`RowSink`] (a [`CsrV2Writer`](fedgta_graph::io::CsrV2Writer) for
//!   out-of-core graphs, a [`CsrBuilder`](fedgta_graph::store::CsrBuilder)
//!   for tests) — peak memory is O(n) node metadata + one bucket.

use fedgta_graph::io::IoError;
use fedgta_graph::store::RowSink;
use fedgta_graph::{Csr, EdgeList};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct SbmConfig {
    /// Number of nodes.
    pub n: usize,
    /// Number of classes.
    pub num_classes: usize,
    /// Blocks per class (communities Louvain should find).
    pub blocks_per_class: usize,
    /// Target mean undirected degree.
    pub avg_degree: f64,
    /// Probability an edge stub stays inside its own block.
    pub p_block: f64,
    /// Probability it targets another block of the same class.
    pub p_class: f64,
    /// Degree heterogeneity: propensity `θ ∈ [1, 1 + spread]`, power-law
    /// shaped. `0` gives near-regular degrees.
    pub degree_spread: f64,
    /// RNG seed.
    pub seed: u64,
}

impl SbmConfig {
    /// A config hitting an edge-homophily target `h = p_block + p_class`
    /// with strong blocks.
    pub fn with_homophily(
        n: usize,
        num_classes: usize,
        blocks_per_class: usize,
        avg_degree: f64,
        homophily: f64,
        seed: u64,
    ) -> Self {
        let p_block = homophily * 0.8;
        let p_class = homophily * 0.2;
        Self {
            n,
            num_classes,
            blocks_per_class,
            avg_degree,
            p_block,
            p_class,
            degree_spread: 3.0,
            seed,
        }
    }
}

/// Generator output: graph plus ground-truth structure.
#[derive(Debug, Clone)]
pub struct SbmGraph {
    /// Undirected symmetric adjacency.
    pub graph: Csr,
    /// Class label per node.
    pub labels: Vec<u32>,
    /// Block (community) id per node.
    pub blocks: Vec<u32>,
}

/// The O(n) sampling state shared by both generators: block geometry,
/// labels, class membership, and normalized degree propensities.
struct SbmPlan {
    block_of: Vec<u32>,
    block_start: Vec<usize>,
    labels: Vec<u32>,
    /// Class `c`'s nodes are its blocks `c + j·num_classes` in order of
    /// `j`; `class_start[c·(blocks_per_class + 1) + j]` counts those before
    /// block `j`, the last entry all of them.
    class_start: Vec<usize>,
    theta: Vec<f64>,
}

impl SbmPlan {
    /// The nodes of class `c`, ascending, as prefix counts over its blocks.
    fn class_starts(&self, cfg: &SbmConfig, c: usize) -> &[usize] {
        let w = cfg.blocks_per_class + 1;
        &self.class_start[c * w..(c + 1) * w]
    }

    /// How many nodes class `c` has.
    fn class_len(&self, cfg: &SbmConfig, c: usize) -> usize {
        self.class_starts(cfg, c)[cfg.blocks_per_class]
    }

    /// The `i`-th node, ascending, of class `c`, found from the block
    /// geometry with no O(n) list of the class.
    fn class_node(&self, cfg: &SbmConfig, c: usize, i: usize) -> u32 {
        let starts = self.class_starts(cfg, c);
        let j = starts.partition_point(|&s| s <= i) - 1;
        (self.block_start[c + j * cfg.num_classes] + i - starts[j]) as u32
    }
}

/// Builds the plan, consuming exactly `n` RNG draws when `degree_spread`
/// is positive and none otherwise. Both generators call this first with a
/// fresh seeded RNG, so their subsequent edge draws line up draw-for-draw.
fn sbm_plan(cfg: &SbmConfig, rng: &mut StdRng) -> SbmPlan {
    assert!(cfg.num_classes >= 1 && cfg.blocks_per_class >= 1);
    let num_blocks = cfg.num_classes * cfg.blocks_per_class;
    assert!(cfg.n >= num_blocks, "need at least one node per block");

    // Contiguous blocks of near-equal size.
    let mut block_of = vec![0u32; cfg.n];
    let mut block_start = vec![0usize; num_blocks + 1];
    for b in 0..num_blocks {
        block_start[b + 1] = (cfg.n * (b + 1)) / num_blocks;
        block_of[block_start[b]..block_start[b + 1]].fill(b as u32);
    }
    let labels: Vec<u32> = block_of.iter().map(|&b| b % cfg.num_classes as u32).collect();

    // Nodes of each class, for cross-class targeting: every block holds at
    // least one node, so a class's prefix counts rise strictly.
    let mut class_start = Vec::with_capacity(cfg.num_classes * (cfg.blocks_per_class + 1));
    for c in 0..cfg.num_classes {
        let mut before = 0;
        class_start.push(before);
        for j in 0..cfg.blocks_per_class {
            let b = c + j * cfg.num_classes;
            before += block_start[b + 1] - block_start[b];
            class_start.push(before);
        }
    }

    // Degree propensities: θ = (1 - u)^(-1/3) capped — heavy-tailed with
    // mean ≈ 1.5 for spread 3; normalize to mean 1 afterwards.
    let mut theta: Vec<f64> = (0..cfg.n)
        .map(|_| {
            if cfg.degree_spread <= 0.0 {
                1.0
            } else {
                let u: f64 = rng.random::<f64>();
                (1.0 - u).powf(-1.0 / 3.0).min(1.0 + cfg.degree_spread)
            }
        })
        .collect();
    let mean: f64 = theta.iter().sum::<f64>() / cfg.n as f64;
    for t in &mut theta {
        *t /= mean;
    }

    SbmPlan { block_of, block_start, labels, class_start, theta }
}

/// Draws node `v`'s edge stubs, calling `emit(v, target)` once per
/// accepted *undirected* edge (self-targets are rejected; the caller adds
/// both directions). RNG consumption depends only on `(cfg, plan, v)`, so
/// any emitter sees the identical edge sequence.
fn draw_node_edges(
    cfg: &SbmConfig,
    plan: &SbmPlan,
    rng: &mut StdRng,
    v: usize,
    emit: &mut impl FnMut(u32, u32),
) {
    let stubs = (cfg.avg_degree * 0.5 * plan.theta[v]).round() as usize;
    let b = plan.block_of[v] as usize;
    let c = plan.labels[v] as usize;
    for _ in 0..stubs.max(1) {
        let r: f64 = rng.random();
        let target = if r < cfg.p_block {
            // Own block.
            let lo = plan.block_start[b];
            let hi = plan.block_start[b + 1];
            rng.random_range(lo..hi) as u32
        } else if r < cfg.p_block + cfg.p_class && cfg.blocks_per_class > 1 {
            // Another block of the same class.
            let mut ob = c + cfg.num_classes * rng.random_range(0..cfg.blocks_per_class);
            if ob == b {
                ob = c + cfg.num_classes * ((ob / cfg.num_classes + 1) % cfg.blocks_per_class);
            }
            let lo = plan.block_start[ob];
            let hi = plan.block_start[ob + 1];
            rng.random_range(lo..hi) as u32
        } else if r < cfg.p_block + cfg.p_class {
            // Single block per class: stay within the class (== block).
            plan.class_node(cfg, c, rng.random_range(0..plan.class_len(cfg, c)))
        } else {
            // Different class, uniform over its nodes.
            let mut oc = rng.random_range(0..cfg.num_classes);
            if oc == c {
                oc = (oc + 1) % cfg.num_classes;
            }
            if cfg.num_classes == 1 {
                oc = c;
            }
            plan.class_node(cfg, oc, rng.random_range(0..plan.class_len(cfg, oc)))
        };
        if target as usize != v {
            emit(v as u32, target);
        }
    }
}

/// Generates a degree-corrected SBM graph in memory.
///
/// Blocks are contiguous node ranges of near-equal size; block `b` has
/// class `b % num_classes`, so adjacent blocks carry different classes and
/// any community-respecting partition induces label-skewed clients.
pub fn generate_sbm(cfg: &SbmConfig) -> SbmGraph {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let plan = sbm_plan(cfg, &mut rng);
    let mut el = EdgeList::with_capacity(cfg.n, (cfg.n as f64 * cfg.avg_degree) as usize);
    for v in 0..cfg.n {
        draw_node_edges(cfg, &plan, &mut rng, v, &mut |u, t| {
            el.push_undirected(u, t).expect("in range");
        });
    }
    SbmGraph { graph: el.to_csr(), labels: plan.labels, blocks: plan.block_of }
}

/// Streamed generator output: the sink's product plus ground truth.
#[derive(Debug)]
pub struct StreamedSbm<T> {
    /// Whatever the [`RowSink`] finalized to (a v2 file summary, a CSR…).
    pub output: T,
    /// Class label per node.
    pub labels: Vec<u32>,
    /// Block (community) id per node.
    pub blocks: Vec<u32>,
}

/// Rows per spill bucket during [`stream_sbm`]. One bucket of a
/// `10⁷-node / avg-degree-10` graph holds ≈ 650k directed edge records
/// (≈ 5 MiB), the unit of resident memory in the finalize pass.
pub const STREAM_BUCKET_ROWS: usize = 1 << 16;

/// Bytes of each bucket's spill buffer in [`stream_sbm`]'s first pass: a
/// full buffer goes to its bucket file, so the pass holds
/// `64 KiB × buckets` of records (1 MiB at 10⁶ nodes) however many edges
/// it draws.
const SPILL_BUF_BYTES: usize = 64 << 10;

/// Generates the same graph as [`generate_sbm`] — bit-identical adjacency
/// for the same config — without ever materializing the edge list.
///
/// Directed edge records `(row, col)` — one little-endian `u64`,
/// `row | col << 32` — are spilled to one temp file per
/// [`STREAM_BUCKET_ROWS`]-row range under `scratch`; each bucket is then
/// counting-sorted by row, sorted within rows, duplicate-merged with the
/// same multiplicity-sum rule as [`EdgeList::to_csr`], and emitted to
/// `sink` in row order. Peak memory is the O(n) plan plus one bucket.
///
/// `scratch` is created if absent; bucket files are removed as they are
/// consumed.
pub fn stream_sbm<S: RowSink>(
    cfg: &SbmConfig,
    scratch: &Path,
    mut sink: S,
) -> Result<StreamedSbm<S::Output>, IoError> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let plan = sbm_plan(cfg, &mut rng);
    let nb = cfg.n.div_ceil(STREAM_BUCKET_ROWS).max(1);
    std::fs::create_dir_all(scratch)?;
    let paths: Vec<PathBuf> =
        (0..nb).map(|b| scratch.join(format!("sbm-{}-bucket-{b}.tmp", cfg.seed))).collect();
    let mut files: Vec<File> = paths
        .iter()
        .map(|p| File::options().write(true).create(true).truncate(true).open(p))
        .collect::<std::io::Result<_>>()?;

    // Pass 1: spill both directions of every drawn edge, bucketed by row.
    let mut bufs: Vec<Vec<u8>> = (0..nb).map(|_| Vec::with_capacity(SPILL_BUF_BYTES)).collect();
    let mut failed: Option<std::io::Error> = None;
    for v in 0..cfg.n {
        draw_node_edges(cfg, &plan, &mut rng, v, &mut |u, t| {
            for (r, c) in [(u, t), (t, u)] {
                let b = r as usize / STREAM_BUCKET_ROWS;
                let buf = &mut bufs[b];
                buf.extend_from_slice(&(u64::from(r) | u64::from(c) << 32).to_le_bytes());
                if buf.len() == SPILL_BUF_BYTES {
                    if let Err(e) = files[b].write_all(buf) {
                        failed.get_or_insert(e);
                    }
                    buf.clear();
                }
            }
        });
        if let Some(e) = failed.take() {
            return Err(e.into());
        }
    }
    for (f, buf) in files.iter_mut().zip(&bufs) {
        f.write_all(buf)?;
    }
    drop(files);
    drop(bufs);

    // Pass 2: finalize buckets in row order.
    let mut bytes: Vec<u8> = Vec::new();
    let (mut start, mut next, mut cols) = (Vec::new(), Vec::new(), Vec::new());
    let mut row_cols: Vec<u32> = Vec::new();
    let mut row_ws: Vec<f32> = Vec::new();
    for (b, path) in paths.iter().enumerate() {
        let lo = b * STREAM_BUCKET_ROWS;
        let rows = ((b + 1) * STREAM_BUCKET_ROWS).min(cfg.n) - lo;
        bytes.clear();
        File::open(path)?.read_to_end(&mut bytes)?;
        let records = || {
            bytes.chunks_exact(8).map(|rec| {
                let rec = u64::from_le_bytes(rec.try_into().unwrap());
                (rec as u32 as usize - lo, (rec >> 32) as u32)
            })
        };
        // Counting sort by row: `start[r]..start[r + 1]` is row `r`'s span.
        start.clear();
        start.resize(rows + 1, 0usize);
        for (r, _) in records() {
            debug_assert!(r < rows, "record outside its bucket");
            start[r + 1] += 1;
        }
        for i in 0..rows {
            start[i + 1] += start[i];
        }
        next.clone_from(&start);
        cols.clear();
        cols.resize(start[rows], 0u32);
        for (r, c) in records() {
            cols[next[r]] = c;
            next[r] += 1;
        }
        // Per row: sort, merge duplicates (multiplicity becomes the
        // weight, exactly like `EdgeList::to_csr`), emit.
        for r in 0..rows {
            let s = &mut cols[start[r]..start[r + 1]];
            s.sort_unstable();
            if s.windows(2).all(|w| w[0] != w[1]) {
                sink.push_row(s, None)?;
                continue;
            }
            row_cols.clear();
            row_ws.clear();
            for run in s.chunk_by(|a, b| a == b) {
                row_cols.push(run[0]);
                row_ws.push(run.len() as f32);
            }
            sink.push_row(&row_cols, Some(&row_ws))?;
        }
        let _ = std::fs::remove_file(path);
    }

    let output = sink.finish()?;
    Ok(StreamedSbm { output, labels: plan.labels, blocks: plan.block_of })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedgta_graph::io::CsrV2Writer;
    use fedgta_graph::metrics::{degree_stats, edge_homophily, modularity};
    use fedgta_graph::store::{ChunkedCsr, CsrBuilder};

    fn cfg() -> SbmConfig {
        SbmConfig::with_homophily(2000, 5, 4, 8.0, 0.8, 42)
    }

    fn tmpdir() -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "fedgta-sbm-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn node_and_label_counts() {
        let g = generate_sbm(&cfg());
        assert_eq!(g.graph.num_nodes(), 2000);
        assert_eq!(g.labels.len(), 2000);
        let max_label = *g.labels.iter().max().unwrap();
        assert_eq!(max_label, 4);
        let max_block = *g.blocks.iter().max().unwrap();
        assert_eq!(max_block, 19);
    }

    #[test]
    fn homophily_close_to_target() {
        let g = generate_sbm(&cfg());
        let h = edge_homophily(&g.graph, &g.labels);
        assert!((h - 0.8).abs() < 0.08, "homophily {h}");
    }

    #[test]
    fn average_degree_close_to_target() {
        let g = generate_sbm(&cfg());
        let s = degree_stats(&g.graph);
        assert!((s.mean - 8.0).abs() < 2.0, "mean degree {}", s.mean);
        assert!(s.max > 2 * s.min.max(1), "degrees not heterogeneous");
    }

    #[test]
    fn blocks_have_high_modularity() {
        let g = generate_sbm(&cfg());
        let q = modularity(&g.graph, &g.blocks);
        assert!(q > 0.4, "modularity {q}");
    }

    #[test]
    fn graph_is_symmetric_and_deterministic() {
        let a = generate_sbm(&cfg());
        assert!(a.graph.is_symmetric());
        let b = generate_sbm(&cfg());
        assert_eq!(a.graph, b.graph);
        let mut different = cfg();
        different.seed = 43;
        let c = generate_sbm(&different);
        assert_ne!(a.graph, c.graph);
    }

    #[test]
    fn single_class_single_block_works() {
        let g = generate_sbm(&SbmConfig::with_homophily(50, 1, 1, 4.0, 0.9, 0));
        assert_eq!(g.graph.num_nodes(), 50);
        assert!(g.labels.iter().all(|&l| l == 0));
    }

    #[test]
    fn zero_degree_spread_gives_regular_degrees() {
        let mut c = cfg();
        c.degree_spread = 0.0;
        let g = generate_sbm(&c);
        let s = degree_stats(&g.graph);
        let heavy = generate_sbm(&cfg());
        let hs = degree_stats(&heavy.graph);
        // Without spread the max degree stays near the mean; with the
        // heavy tail it is far above it.
        assert!((s.max as f64) < 3.0 * s.mean, "max {} mean {}", s.max, s.mean);
        assert!((hs.max as f64) > (s.max as f64), "heavy tail not heavier");
    }

    #[test]
    fn streamed_matches_in_memory_bitwise() {
        // Several configs, including ones that span multiple buckets would
        // be too slow here; small graphs with duplicate-edge pressure
        // (tiny blocks, high degree) exercise the merge path instead.
        for cfg in [
            cfg(),
            SbmConfig::with_homophily(300, 3, 2, 20.0, 0.9, 7),
            SbmConfig::with_homophily(50, 1, 1, 12.0, 0.9, 0),
        ] {
            let mem = generate_sbm(&cfg);
            let streamed = stream_sbm(&cfg, &tmpdir(), CsrBuilder::new(cfg.n)).unwrap();
            assert_eq!(streamed.output, mem.graph, "adjacency differs (seed {})", cfg.seed);
            assert_eq!(streamed.labels, mem.labels);
            assert_eq!(streamed.blocks, mem.blocks);
        }
    }

    #[test]
    fn class_nodes_by_block_arithmetic_match_the_listed_classes() {
        // Each class's nodes listed in ascending order are the oracle of
        // the block arithmetic: uneven blocks, one block per class, one
        // node per block.
        for cfg in [
            cfg(),
            SbmConfig::with_homophily(1003, 7, 3, 4.0, 0.8, 1),
            SbmConfig::with_homophily(50, 1, 1, 12.0, 0.9, 0),
            SbmConfig::with_homophily(16, 4, 4, 2.0, 0.5, 2),
        ] {
            let plan = sbm_plan(&cfg, &mut StdRng::seed_from_u64(cfg.seed));
            let mut listed = vec![Vec::new(); cfg.num_classes];
            for (v, &c) in plan.labels.iter().enumerate() {
                listed[c as usize].push(v as u32);
            }
            for (c, nodes) in listed.iter().enumerate() {
                assert_eq!(plan.class_len(&cfg, c), nodes.len());
                for (i, &v) in nodes.iter().enumerate() {
                    assert_eq!(plan.class_node(&cfg, c, i), v, "class {c} node {i}");
                }
            }
        }
    }

    #[test]
    fn streamed_to_v2_file_round_trips() {
        let cfg = cfg();
        let mem = generate_sbm(&cfg);
        let path = tmpdir().join("sbm-stream.fgta2");
        let writer = CsrV2Writer::create(&path, cfg.n, 256).unwrap();
        let streamed = stream_sbm(&cfg, &tmpdir(), writer).unwrap();
        assert_eq!(streamed.output.nodes, cfg.n as u64);
        let store = ChunkedCsr::open(&path).unwrap();
        assert_eq!(store.to_csr().unwrap(), mem.graph);
        std::fs::remove_file(&path).unwrap();
    }
}
