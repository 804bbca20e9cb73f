//! Kernel microbenchmark suite: GFLOP/s and allocation counts for the
//! register-blocked dense kernels and the column-blocked SpMM.
//!
//! Run by `repro kernels [--full]`, which installs the counting allocator
//! (`--full --out BENCH_KERNELS.json` re-takes the committed file).
//!
//! The shape grid follows the training hot path: row counts `n ∈ {2k, 8k,
//! 32k}` (nodes per client subgraph) × feature widths `f ∈ {64, 128, 500}`
//! (hidden width … Cora-scale input width), with a 64-wide output. A
//! square `512³` head-to-head against the retained scalar kernels
//! (`fedgta_nn::ops::naive`) anchors the before/after comparison.
//! The SpMM grid runs on a degree-uniform ring lattice; the
//! `spmm_sbm_client` / `spmm_axpby_sbm_client` cells repeat both SpMM
//! kernels on one `sbm1m_sgc_disk` client's shape (31 250 rows, ≈ 5.5
//! stored entries per row of varying count, 16 label columns), the
//! operand label propagation runs on.
//! The client's soft-label pair — the Eq. 3 row softmax and the Eq. 4
//! entropy sum, both libm-free vectorized kernels — is timed per element at
//! `32k × {7, 16, 40}` against the scalar libm loops they replaced.
//! Four small-shape cells time the output layers of a `cora_gcn_wire`
//! client (7 classes) and an `arxiv_sign_128c` client (40 classes), where
//! column tails and short dot products set the rate.
//! Quick mode shrinks every shape but the client-shaped and small ones and
//! runs one iteration per grid cell (20 ms per small cell) so CI can smoke
//! the whole pipeline in about a second.

use fedgta::confidence::local_smoothing_confidence;
use fedgta_data::{generate_sbm, SbmConfig};
use fedgta_graph::spmm::{spmm_axpby_into, spmm_into};
use fedgta_graph::{normalized_adjacency, Csr, EdgeList, NormKind};
use fedgta_nn::ops::{
    self, matmul_bias_relu_into, matmul_into, matmul_nt_into, matmul_tn_into,
    softmax_rows_inplace,
};
use fedgta_nn::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Reads the process-wide allocation counter (monotone), when the host
/// binary installed one (see [`crate::alloc`]).
pub type AllocCounter = fn() -> u64;

/// One timed cell of the benchmark grid.
#[derive(Debug, Clone)]
pub struct KernelResult {
    /// Kernel name (`matmul`, `matmul_tn`, `matmul_nt`, `matmul_bias_relu`,
    /// `spmm`, `spmm_axpby`, and the client-shaped `spmm_sbm_client`,
    /// `spmm_axpby_sbm_client`).
    pub kernel: &'static str,
    /// `blocked` (this PR's kernels) or `naive` (retained seed scalars).
    pub variant: &'static str,
    /// Output rows / left rows.
    pub m: usize,
    /// Inner dimension (dense) or feature width (spmm).
    pub k: usize,
    /// Output columns.
    pub n: usize,
    /// Throughput in GFLOP/s (`2·m·k·n` flops per dense call,
    /// `2·nnz·cols` per spmm call).
    pub gflops: f64,
    /// Wall time per call in nanoseconds.
    pub ns_per_call: f64,
    /// Heap allocations per `_into` call with pre-allocated buffers
    /// (`None` when the host binary has no counting allocator).
    pub allocs_per_call: Option<u64>,
}

/// One timed cell of the soft-label pair (elementwise kernels: no FLOP
/// rate, the unit is time per matrix element).
#[derive(Debug, Clone)]
pub struct SoftLabelResult {
    /// `softmax` (`softmax_rows_inplace`) or `eq4_entropy`
    /// (`local_smoothing_confidence`).
    pub kernel: &'static str,
    /// Nodes.
    pub rows: usize,
    /// Classes.
    pub cols: usize,
    /// Wall time per matrix element in nanoseconds.
    pub ns_per_element: f64,
    /// Time of the scalar libm loop this kernel replaced ÷ time of the
    /// kernel. Reported without a bar.
    pub vs_scalar_libm: f64,
}

/// The full report: grid results plus the naive-vs-blocked anchor.
#[derive(Debug, Clone)]
pub struct KernelReport {
    /// `"quick"` or `"full"`.
    pub mode: &'static str,
    /// The dense kernels' register tile on this CPU
    /// ([`fedgta_nn::ops::gemm_tile`]): `avx512-8x32` or `portable-8x16`.
    /// Rates taken under different tiles are not comparable.
    pub tile: &'static str,
    /// All timed cells, including the square anchor shapes.
    pub results: Vec<KernelResult>,
    /// The softmax / Eq. 4 cells.
    pub soft_labels: Vec<SoftLabelResult>,
    /// `blocked GFLOP/s ÷ naive GFLOP/s` for `matmul` at the anchor shape.
    pub matmul_speedup_vs_naive: f64,
    /// Side length of the square anchor (`512` full, `96` quick).
    pub anchor_dim: usize,
    /// Minimum over grid cells of `matmul_tn GFLOP/s ÷ matmul GFLOP/s`:
    /// how far the weight-gradient kernel trails the forward kernel it
    /// shares a micro-kernel with, at its worst shape.
    pub matmul_tn_vs_matmul: f64,
    /// One label-propagation step at client shape (32 k rows × 16 columns
    /// in full mode): time of `spmm_into` + the separate `p·β + α·z` sweep
    /// ÷ time of the fused `spmm_axpby_into`. Reported without a bar: every
    /// operand is hot in cache here, which a per-client round's are not
    /// (the traced `core.lp` stage of `sbm1m_sgc_disk` reads 1.33×).
    pub lp_step_fused_vs_unfused: f64,
    /// Cost of the compiled-in observability hook at `ObsLevel::Off`, as
    /// `(instrumented − raw) / raw · 100` on the anchor matmul. The
    /// determinism/overhead contract requires this ≤ 2%; negative values
    /// are timing noise (the hook is one relaxed atomic load).
    pub obs_overhead_pct: f64,
    /// Same measurement with the flight recorder armed (level still
    /// `Off`). The recorder records at span granularity — rounds and
    /// client phases, never per kernel op — so arming it must leave the
    /// per-op hook on the same ≤ 2% budget.
    pub recorder_overhead_pct: f64,
}

/// Times instrumented `matmul_into` against its uninstrumented `_raw`
/// twin at the anchor shape, returning the overhead percentage for two
/// configurations: observability forced to `Off`, and `Off` with the
/// flight recorder armed (the always-on black box a production run
/// flies with).
///
/// The three variants are called **round-robin** and compared by their
/// fastest call: a 2 % gate cannot be read off three consecutive windows
/// of means on a shared host, where a neighbour's burst lands in one
/// window only. Uses its own repetition budget so the numbers are
/// meaningful even in quick mode.
fn measure_obs_overhead(d: usize, rng: &mut StdRng) -> (f64, f64) {
    let saved = fedgta_obs::level();
    let rec_was_armed = fedgta_obs::recorder::armed();
    fedgta_obs::set_level(fedgta_obs::ObsLevel::Off);
    let a = filled(d, d, rng);
    let b = filled(d, d, rng);
    let mut out = vec![0f32; d * d];
    let (budget_ns, max_rounds) = (90_000_000u128, 400usize);
    // [hooked, hooked with the recorder armed, raw]
    let mut best = [f64::INFINITY; 3];
    let start = Instant::now();
    for round in 0..=max_rounds {
        for (variant, fastest) in best.iter_mut().enumerate() {
            if variant == 1 {
                fedgta_obs::recorder::arm_default();
            } else {
                fedgta_obs::recorder::disarm();
            }
            let t = Instant::now();
            if variant == 2 {
                ops::matmul_into_raw(a.view(), b.view(), &mut out);
            } else {
                matmul_into(a.view(), b.view(), &mut out);
            }
            let ns = t.elapsed().as_nanos() as f64;
            // Round 0 is the warmup (operands into cache, pages faulted).
            if round > 0 {
                *fastest = fastest.min(ns);
            }
        }
        if round > 0 && start.elapsed().as_nanos() >= budget_ns {
            break;
        }
    }
    if rec_was_armed {
        fedgta_obs::recorder::arm_default();
    } else {
        fedgta_obs::recorder::disarm();
    }
    fedgta_obs::set_level(saved);
    let [hooked, recorder, raw] = best;
    (100.0 * (hooked - raw) / raw, 100.0 * (recorder - raw) / raw)
}

/// The row loop `softmax_rows_inplace` replaced: one libm `expf` per
/// element inside the row-sum chain.
fn softmax_scalar_libm(x: &mut Matrix) {
    for i in 0..x.rows() {
        let row = x.row_mut(i);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
}

/// The row loop `local_smoothing_confidence` replaced: one libm `f64`
/// `ln` per element.
fn eq4_scalar_libm(y_k: &Matrix, degrees_hat: &[f32]) -> f64 {
    let ceiling = (-1.0f64).exp();
    let mut h = 0f64;
    for (i, &deg) in degrees_hat.iter().enumerate() {
        let mut row_sum = 0f64;
        for &p in y_k.row(i) {
            let p = p as f64;
            let ent = if p > 0.0 { -p * p.ln() } else { 0.0 };
            row_sum += ceiling - ent;
        }
        h += deg as f64 * row_sum;
    }
    h
}

/// Times the soft-label pair at `grid.lp_rows × {7, 16, 40}`. The softmax
/// runs in place on its own previous output (a row of probabilities is as
/// good a logit row as any, and neither side's cost depends on the data),
/// so no refill copy sits inside the timed call.
fn measure_soft_labels(grid: &Grid, rng: &mut StdRng) -> Vec<SoftLabelResult> {
    let rows = grid.lp_rows;
    let time = |f: &mut dyn FnMut()| time_fn(f, grid.min_ns, grid.max_calls);
    let mut out = Vec::new();
    for cols in [7usize, 16, 40] {
        let mut cell = |kernel, ns: f64, ns_scalar: f64| {
            out.push(SoftLabelResult {
                kernel,
                rows,
                cols,
                ns_per_element: ns / (rows * cols) as f64,
                vs_scalar_libm: ns_scalar / ns,
            });
        };
        let mut work = filled(rows, cols, rng);
        let ns_scalar = time(&mut || softmax_scalar_libm(&mut work));
        let ns = time(&mut || softmax_rows_inplace(&mut work));
        cell("softmax", ns, ns_scalar);
        let degrees: Vec<f32> = (0..rows).map(|i| (i % 13 + 1) as f32).collect();
        let ns_scalar = time(&mut || {
            std::hint::black_box(eq4_scalar_libm(&work, &degrees));
        });
        let ns = time(&mut || {
            std::hint::black_box(local_smoothing_confidence(&work, &degrees));
        });
        cell("eq4_entropy", ns, ns_scalar);
    }
    out
}

/// Times one label-propagation step both ways on a `grid.lp_rows`-row
/// lattice with 16 label columns and returns `unfused ÷ fused` (see
/// [`KernelReport::lp_step_fused_vs_unfused`]).
fn measure_lp_step(grid: &Grid, rng: &mut StdRng) -> f64 {
    let (n, cols) = (grid.lp_rows, 16);
    let a = lattice(n);
    let x = filled(n, cols, rng);
    let z = filled(n, cols, rng);
    let (x, z) = (x.as_slice(), z.as_slice());
    let mut prop = vec![0f32; n * cols];
    let mut y = vec![0f32; n * cols];
    let unfused = || {
        spmm_into(&a, x, cols, &mut prop);
        for (o, (&p, &zv)) in y.iter_mut().zip(prop.iter().zip(z)) {
            *o = p * 0.5 + 0.5 * zv;
        }
    };
    let ns_unfused = time_fn(unfused, grid.min_ns, grid.max_calls);
    let ns_fused = time_fn(|| spmm_axpby_into(&a, x, cols, 0.5, 0.5, z, &mut y), grid.min_ns, grid.max_calls);
    ns_unfused / ns_fused
}

fn filled(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    let data: Vec<f32> = (0..rows * cols).map(|_| rng.random::<f32>() - 0.5).collect();
    Matrix::from_vec(rows, cols, data)
}

/// Ring-lattice graph: node `i` links to `i±1..=i±5`, deterministic and
/// degree-uniform. Every row has exactly 10 neighbors, so the SpMM's
/// neighbor-loop exit is always predicted: this operand prices the
/// kernel's arithmetic and gathers, not a client subgraph (that is
/// [`sbm_client`]).
fn lattice(n: usize) -> Csr {
    let mut el = EdgeList::new(n);
    for i in 0..n as u32 {
        for d in 1..=5u32 {
            let j = (i + d) % n as u32;
            if i < j {
                el.push_undirected(i, j).expect("in range");
            }
        }
    }
    el.to_csr()
}

/// Rows, mean undirected degree and label columns of [`sbm_client`]: one
/// `sbm1m_sgc_disk` client is a 31 250-row range of a 10⁶-node, degree-8
/// SBM that keeps the ≈ 4.5 edges per node falling inside its range.
const SBM_CLIENT: (usize, f64, usize) = (31_250, 4.3, 16);

/// The small-shape cells, `(kernel, m, k, n)` with `k` the kernel's own
/// inner dimension: `cora_gcn_wire`'s 7-class output layer on a 270-node
/// client (`Z = X·W`, `dW = Xᵀ·dY`, and `dX = dY·Wᵀ`, whose inner
/// dimension is the 7 classes), and the 40-class output layer of an
/// `arxiv_sign_128c` client. Column tails and short dot products decide
/// these rates; the grid above never has either. Every mode times them at
/// their real shape.
const SMALL_SHAPES: &[(&str, usize, usize, usize)] = &[
    ("matmul", 270, 32, 7),
    ("matmul_tn", 270, 32, 7),
    ("matmul_nt", 270, 7, 32),
    ("matmul", 187, 128, 40),
];

/// Nanoseconds per call of a microsecond-scale kernel: the fastest mean
/// over batches of 32 calls within `budget_ns`, so one preempted batch on
/// a shared host does not read as a slow kernel.
fn time_small(mut f: impl FnMut(), budget_ns: u64) -> f64 {
    f();
    let start = Instant::now();
    let mut best = f64::INFINITY;
    loop {
        let t0 = Instant::now();
        for _ in 0..32 {
            f();
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / 32.0);
        if start.elapsed().as_nanos() as u64 >= budget_ns {
            return best;
        }
    }
}

/// A client-shaped propagation operand, generated in memory and
/// symmetric-normalized with self-loops: ≈ 5.5 stored entries per row.
/// Like the `sbm1m_sgc_disk` client it stands in for, it is 16 contiguous
/// blocks of ≈ 1 953 rows whose edges stay inside their block (the edges
/// a client keeps are its range's within-block ones), with the scale
/// workload's power-law degree spread. Unlike [`lattice`], row degrees
/// vary from row to row, as they do in every client's label propagation.
fn sbm_client(rows: usize, avg_degree: f64) -> Csr {
    let cfg = SbmConfig {
        n: rows,
        num_classes: 16,
        blocks_per_class: 1,
        avg_degree,
        p_block: 1.0,
        p_class: 0.0,
        degree_spread: 3.0,
        seed: 0x5b_c11e,
    };
    normalized_adjacency(&generate_sbm(&cfg).graph, NormKind::Symmetric)
}

/// Times `f` (called repeatedly) and returns ns per call. Runs one warmup
/// call, then calls until `min_ns` elapsed or `max_calls`.
fn time_fn(mut f: impl FnMut(), min_ns: u64, max_calls: usize) -> f64 {
    f(); // warmup (pulls operands into cache, faults pages)
    let start = Instant::now();
    let mut calls = 0usize;
    loop {
        f();
        calls += 1;
        let elapsed = start.elapsed().as_nanos() as u64;
        if elapsed >= min_ns || calls >= max_calls {
            return elapsed as f64 / calls as f64;
        }
    }
}

/// Allocations across one call of `f` (0 expected for `_into` kernels).
fn count_allocs(counter: Option<AllocCounter>, mut f: impl FnMut()) -> Option<u64> {
    counter.map(|c| {
        let before = c();
        f();
        c() - before
    })
}

struct Grid {
    rows: Vec<usize>,
    /// Row count of the label-propagation step comparison and of the
    /// soft-label cells.
    lp_rows: usize,
    feats: Vec<usize>,
    out_cols: usize,
    anchor: usize,
    min_ns: u64,
    max_calls: usize,
}

impl Grid {
    fn new(quick: bool) -> Self {
        if quick {
            Self {
                rows: vec![256],
                lp_rows: 256,
                feats: vec![32],
                out_cols: 16,
                anchor: 96,
                min_ns: 0,
                max_calls: 1,
            }
        } else {
            Self {
                rows: vec![2_000, 8_000, 32_000],
                lp_rows: 32_000,
                feats: vec![64, 128, 500],
                out_cols: 64,
                anchor: 512,
                min_ns: 150_000_000,
                max_calls: 20,
            }
        }
    }
}

/// How a cell is timed: [`time_fn`] over a grid's budget, or
/// [`time_small`] for a microsecond-scale kernel. Shared with the
/// [`crate::aggregate`] suite.
#[derive(Clone, Copy)]
pub(crate) enum Timing {
    Grid { min_ns: u64, max_calls: usize },
    Small { budget_ns: u64 },
}

impl Timing {
    /// Times `call`, then counts the allocations of one more call:
    /// `(ns per call, allocations)`.
    pub(crate) fn measure(self, counter: Option<AllocCounter>, mut call: impl FnMut()) -> (f64, Option<u64>) {
        let ns = match self {
            Timing::Grid { min_ns, max_calls } => time_fn(&mut call, min_ns, max_calls),
            Timing::Small { budget_ns } => time_small(&mut call, budget_ns),
        };
        (ns, count_allocs(counter, call))
    }
}

/// The cells recorded so far, in run order.
struct Cells {
    timing: Timing,
    counter: Option<AllocCounter>,
    results: Vec<KernelResult>,
}

impl Cells {
    /// Measures `call` (`flops` per call) and records the cell; returns its
    /// GFLOP/s.
    fn record(
        &mut self,
        kernel: &'static str,
        variant: &'static str,
        (m, k, n): (usize, usize, usize),
        flops: f64,
        call: impl FnMut(),
    ) -> f64 {
        let (ns, allocs_per_call) = self.timing.measure(self.counter, call);
        let gflops = flops / ns;
        self.results.push(KernelResult { kernel, variant, m, k, n, gflops, ns_per_call: ns, allocs_per_call });
        gflops
    }
}

/// Runs the suite. `quick` is the CI smoke grid; `counter` enables
/// allocation counting when the host binary installed [`crate::alloc`].
pub fn run(quick: bool, counter: Option<AllocCounter>) -> KernelReport {
    let grid = Grid::new(quick);
    let mut rng = StdRng::seed_from_u64(0x5eed_be4c);
    let grid_timing = Timing::Grid { min_ns: grid.min_ns, max_calls: grid.max_calls };
    let mut cells = Cells { timing: grid_timing, counter, results: Vec::new() };

    // --- Dense grid: training-shaped operands -------------------------
    for &n_rows in &grid.rows {
        for &f_in in &grid.feats {
            let h = grid.out_cols;
            let x = filled(n_rows, f_in, &mut rng); // features / propagated
            let w = filled(f_in, h, &mut rng); // weights
            let dy = filled(n_rows, h, &mut rng); // output gradient
            let bias = vec![0.01f32; h];
            let mut out_fwd = vec![0f32; n_rows * h];
            let mut out_dw = vec![0f32; f_in * h];
            let mut out_dx = vec![0f32; n_rows * f_in];
            let (shape, flops) = ((n_rows, f_in, h), 2.0 * (n_rows * f_in * h) as f64);
            // Z = X · W, then the fused epilogue relu(X · W + b)
            cells.record("matmul", "blocked", shape, flops, || matmul_into(x.view(), w.view(), &mut out_fwd));
            cells.record("matmul_bias_relu", "blocked", shape, flops, || {
                matmul_bias_relu_into(x.view(), w.view(), &bias, &mut out_fwd)
            });
            // dW = Xᵀ · dY and dX = dY · Wᵀ
            cells.record("matmul_tn", "blocked", shape, flops, || matmul_tn_into(x.view(), dy.view(), &mut out_dw));
            cells.record("matmul_nt", "blocked", shape, flops, || matmul_nt_into(dy.view(), w.view(), &mut out_dx));

            // spmm: Y = A · X over the ring lattice (≈10 nnz/row), then
            // label propagation's step Y = β·(A · X) + α·Z (dX from the
            // cell above is an n × f operand to stand in for Z)
            let a = lattice(n_rows);
            let mut y = vec![0f32; n_rows * f_in];
            let (shape, flops) = ((n_rows, f_in, f_in), 2.0 * (a.num_edges() * f_in) as f64);
            cells.record("spmm", "blocked", shape, flops, || spmm_into(&a, x.as_slice(), f_in, &mut y));
            let z = out_dx.as_slice();
            cells.record("spmm_axpby", "blocked", shape, flops, || {
                spmm_axpby_into(&a, x.as_slice(), f_in, 0.5, 0.5, z, &mut y)
            });
        }
    }

    // --- Client-shaped SpMM: label propagation on an sbm1m client ------
    let (rows, avg_degree, cols) = SBM_CLIENT;
    let a = sbm_client(rows, avg_degree);
    let x = filled(rows, cols, &mut rng);
    let z = filled(rows, cols, &mut rng);
    let (x, z) = (x.as_slice(), z.as_slice());
    let mut y = vec![0f32; rows * cols];
    let (shape, flops) = ((rows, cols, cols), 2.0 * (a.num_edges() * cols) as f64);
    cells.record("spmm_sbm_client", "blocked", shape, flops, || spmm_into(&a, x, cols, &mut y));
    cells.record("spmm_axpby_sbm_client", "blocked", shape, flops, || {
        spmm_axpby_into(&a, x, cols, 0.5, 0.5, z, &mut y)
    });

    // --- Small shapes: the output layers of cora and arxiv clients ----
    cells.timing = Timing::Small { budget_ns: if quick { 20_000_000 } else { 300_000_000 } };
    for &(kernel, m, k, n) in SMALL_SHAPES {
        let a = filled(m, k, &mut rng);
        let (b, out_len) = match kernel {
            "matmul" => (filled(k, n, &mut rng), m * n),
            "matmul_tn" => (filled(m, n, &mut rng), k * n),
            _ => (filled(n, k, &mut rng), m * n),
        };
        let mut out = vec![0f32; out_len];
        cells.record(kernel, "blocked", (m, k, n), 2.0 * (m * k * n) as f64, || match kernel {
            "matmul" => matmul_into(a.view(), b.view(), &mut out),
            "matmul_tn" => matmul_tn_into(a.view(), b.view(), &mut out),
            _ => matmul_nt_into(a.view(), b.view(), &mut out),
        });
    }

    // --- Square anchor: blocked vs retained naive scalars -------------
    cells.timing = grid_timing;
    let d = grid.anchor;
    let a = filled(d, d, &mut rng);
    let b = filled(d, d, &mut rng);
    let mut out = vec![0f32; d * d];
    let flops = 2.0 * (d * d * d) as f64;
    let blocked_gflops = cells.record("matmul", "blocked", (d, d, d), flops, || matmul_into(a.view(), b.view(), &mut out));
    // The naive kernel allocates its output: it has no `_into` count.
    cells.counter = None;
    let naive_gflops = cells.record("matmul", "naive", (d, d, d), flops, || {
        std::hint::black_box(ops::naive::matmul(&a, &b));
    });
    let results = cells.results;

    let (obs_overhead_pct, recorder_overhead_pct) = measure_obs_overhead(d, &mut rng);
    let lp_step_fused_vs_unfused = measure_lp_step(&grid, &mut rng);
    let soft_labels = measure_soft_labels(&grid, &mut rng);

    let matmul_tn_vs_matmul = results
        .iter()
        .filter(|c| c.kernel == "matmul_tn" && grid.rows.contains(&c.m) && grid.feats.contains(&c.k))
        .map(|tn| {
            let fwd = results
                .iter()
                .find(|c| c.kernel == "matmul" && (c.m, c.k, c.n) == (tn.m, tn.k, tn.n))
                .expect("every grid cell times matmul");
            tn.gflops / fwd.gflops
        })
        .fold(f64::INFINITY, f64::min);

    KernelReport {
        mode: if quick { "quick" } else { "full" },
        tile: ops::gemm_tile(),
        results,
        soft_labels,
        matmul_speedup_vs_naive: blocked_gflops / naive_gflops,
        anchor_dim: d,
        matmul_tn_vs_matmul,
        lp_step_fused_vs_unfused,
        obs_overhead_pct,
        recorder_overhead_pct,
    }
}

/// Hand-rolled JSON (the workspace has no serialization dependency, so
/// the report serializes itself). Strings go through
/// [`crate::format::json_str`] and floats through
/// [`crate::format::json_fixed`] so hostile names and NaN/Inf cells
/// cannot break the artifact.
pub fn to_json(r: &KernelReport) -> String {
    use crate::format::{json_fixed, json_opt, json_rows, json_str};
    let mut s = String::with_capacity(4096);
    s.push_str("{\n");
    s.push_str(&format!("  \"mode\": {},\n", json_str(r.mode)));
    s.push_str(&format!("  \"tile\": {},\n", json_str(r.tile)));
    // Kernels run on the calling thread; the key stays for readers of
    // earlier BENCH_KERNELS.json files.
    s.push_str("  \"threads\": 1,\n");
    s.push_str(&format!("  \"anchor_dim\": {},\n", r.anchor_dim));
    for (key, v) in [
        ("matmul_speedup_vs_naive", r.matmul_speedup_vs_naive),
        ("matmul_tn_vs_matmul", r.matmul_tn_vs_matmul),
        ("lp_step_fused_vs_unfused", r.lp_step_fused_vs_unfused),
        ("obs_overhead_pct", r.obs_overhead_pct),
        ("recorder_overhead_pct", r.recorder_overhead_pct),
    ] {
        s.push_str(&format!("  \"{key}\": {},\n", json_fixed(v, 3)));
    }
    json_rows(&mut s, "results", &r.results, |k| [
        ("kernel", json_str(k.kernel)),
        ("variant", json_str(k.variant)),
        ("m", k.m.to_string()),
        ("k", k.k.to_string()),
        ("n", k.n.to_string()),
        ("gflops", json_fixed(k.gflops, 4)),
        ("ns_per_call", json_fixed(k.ns_per_call, 0)),
        ("allocs_per_call", json_opt(k.allocs_per_call)),
    ]);
    s.push_str(",\n");
    json_rows(&mut s, "soft_labels", &r.soft_labels, |k| [
        ("kernel", json_str(k.kernel)),
        ("rows", k.rows.to_string()),
        ("cols", k.cols.to_string()),
        ("ns_per_element", json_fixed(k.ns_per_element, 3)),
        ("vs_scalar_libm", json_fixed(k.vs_scalar_libm, 3)),
    ]);
    s.push_str("\n}\n");
    s
}

/// Plain-text table for terminal output.
pub fn render_table(r: &KernelReport) -> String {
    let mut s = String::new();
    s.push_str(&format!("kernel bench ({} mode, {} tile)\n", r.mode, r.tile));
    s.push_str(&format!(
        "{:<18} {:>8} {:>7} {:>6} {:>6} {:>10} {:>8}\n",
        "kernel", "variant", "m", "k", "n", "GFLOP/s", "allocs"
    ));
    for k in &r.results {
        let allocs = k.allocs_per_call.map_or_else(|| "-".to_string(), |a| a.to_string());
        s.push_str(&format!(
            "{:<18} {:>8} {:>7} {:>6} {:>6} {:>10.3} {:>8}\n",
            k.kernel, k.variant, k.m, k.k, k.n, k.gflops, allocs
        ));
    }
    for k in &r.soft_labels {
        s.push_str(&format!(
            "{:<18} {:>16} {:>6} {:>9.2} ns/element, {:.2}x the scalar libm loop (no bar)\n",
            k.kernel, k.rows, k.cols, k.ns_per_element, k.vs_scalar_libm
        ));
    }
    s.push_str(&format!(
        "matmul blocked vs naive at {0}x{0}x{0}: {1:.2}x\n",
        r.anchor_dim, r.matmul_speedup_vs_naive
    ));
    s.push_str(&format!(
        "matmul_tn vs matmul, worst grid cell: {:.2}x (full-mode bar 0.6x)\n",
        r.matmul_tn_vs_matmul
    ));
    s.push_str(&format!(
        "label-propagation step, spmm + sweep vs fused spmm_axpby: {:.2}x (hot cache, no bar)\n",
        r.lp_step_fused_vs_unfused
    ));
    s.push_str(&format!(
        "observability hook overhead at ObsLevel::Off: {:+.2}% (budget 2%)\n",
        r.obs_overhead_pct
    ));
    s.push_str(&format!(
        "observability hook overhead with flight recorder armed: {:+.2}% (budget 2%)\n",
        r.recorder_overhead_pct
    ));
    s
}

/// The full-mode acceptance bars, so a regression fails the run instead of
/// sitting in a stale JSON file. Quick mode's single iterations are too
/// noisy for a hard gate and pass unchecked.
pub fn bars(r: &KernelReport) -> Result<(), String> {
    if r.mode != "full" {
        return Ok(());
    }
    if r.matmul_speedup_vs_naive < 2.0 {
        return Err(format!(
            "blocked matmul only {:.2}x naive at {}^3 (need >= 2.0x)",
            r.matmul_speedup_vs_naive, r.anchor_dim
        ));
    }
    // The weight-gradient kernel runs on the forward micro-kernel; what it
    // pays on top is the transpose-pack, and that must stay a minor share.
    if r.matmul_tn_vs_matmul < 0.6 {
        return Err(format!("matmul_tn only {:.2}x matmul at its worst grid cell (need >= 0.6x)", r.matmul_tn_vs_matmul));
    }
    // Compiled-in hooks at ObsLevel::Off, and the same with the flight
    // recorder armed (it records per span, never per kernel op).
    for (what, pct) in [("ObsLevel::Off hook", r.obs_overhead_pct), ("flight-recorder-armed hook", r.recorder_overhead_pct)] {
        if pct > 2.0 {
            return Err(format!("{what} overhead {pct:.2}% exceeds 2% budget"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_mode_produces_full_grid_and_valid_json() {
        let r = run(true, None);
        // 1 row x 1 feat x 6 kernels + 2 client-shaped SpMM rows + 4 small
        // shapes + 2 anchor rows.
        assert_eq!(r.results.len(), 14);
        for &(kernel, m, k, n) in SMALL_SHAPES {
            assert!(
                r.results.iter().any(|c| (c.kernel, c.m, c.k, c.n) == (kernel, m, k, n)),
                "small-shape cell {kernel} {m}x{k}x{n}"
            );
        }
        let client = r
            .results
            .iter()
            .find(|k| k.kernel == "spmm_sbm_client")
            .expect("client-shaped cell");
        assert_eq!((client.m, client.k), (SBM_CLIENT.0, SBM_CLIENT.2));
        assert!(r.results.iter().all(|k| k.gflops > 0.0));
        let json = to_json(&r);
        assert!(json.contains("\"kernel\": \"spmm_axpby_sbm_client\""));
        assert!(json.contains("\"matmul_speedup_vs_naive\""));
        assert!(json.contains(&format!("\"tile\": \"{}\"", fedgta_nn::ops::gemm_tile())));
        assert!(json.contains("\"matmul_tn_vs_matmul\""));
        assert!(r.matmul_tn_vs_matmul > 0.0 && r.matmul_tn_vs_matmul.is_finite());
        assert!(json.contains("\"lp_step_fused_vs_unfused\""));
        assert!(r.lp_step_fused_vs_unfused > 0.0 && r.lp_step_fused_vs_unfused.is_finite());
        assert!(json.contains("\"variant\": \"naive\""));
        // Softmax and Eq. 4 at three class counts each.
        assert_eq!(r.soft_labels.len(), 6);
        assert!(r.soft_labels.iter().all(|k| k.ns_per_element > 0.0 && k.vs_scalar_libm > 0.0));
        assert!(json.contains("\"kernel\": \"softmax\""));
        assert!(json.contains("\"kernel\": \"eq4_entropy\""));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced JSON braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn alloc_counter_reports_zero_for_into_kernels() {
        // With a fake counter that never moves, every cell reports 0.
        fn frozen() -> u64 {
            0
        }
        let r = run(true, Some(frozen));
        for k in r.results.iter().filter(|k| k.variant == "blocked") {
            assert_eq!(k.allocs_per_call, Some(0), "{} allocated", k.kernel);
        }
    }
}
