//! Golden bytes of what `repro`'s four microbenchmark suites print: every
//! line of `tests/golden/suites.txt` is one rendering — a suite's
//! `to_json` or `render_table` over a fixed report — pinned by its length
//! and the FNV-1a-64 hash of its bytes, or one cell of the grid a quick
//! `repro kernels` run times, in run order.
//!
//! The reports are synthetic, so no timing reaches a line: each suite
//! renders one report with a NaN ratio, absent allocation counts,
//! reductions and lossless verdicts, hostile strings and more than one
//! row, and one whose row arrays are empty. CI greps exact rows of these
//! files (`"kernel": "matmul", "variant": "blocked", "m": 270, …`), so a
//! change to the row layout, the comma rule or a number format moves a
//! line here first.
//!
//! To re-bless after an intended change:
//! `FEDGTA_GOLDEN_BLESS=1 cargo test --test integration_golden_suites`
//! and commit the diff (the header lines starting with `#` are kept).

use fedgta_bench::aggregate::{self, AggregateReport, AggregateResult};
use fedgta_bench::comms::{self, CommsReport, CommsResult};
use fedgta_bench::kernels::{self, KernelReport, KernelResult, SoftLabelResult};
use fedgta_bench::scale::{self, ScaleCell, ScaleFedStats, ScaleReport};

mod golden;

/// One golden line: a name, then the text's length and hash.
fn pin(name: &str, text: &str) -> String {
    format!("{name} len={} fnv={:016x}", text.len(), golden::fnv1a(text.bytes()))
}

fn kernel_cell(
    kernel: &'static str,
    variant: &'static str,
    mnk: (usize, usize, usize),
    allocs: Option<u64>,
) -> KernelResult {
    let (m, k, n) = mnk;
    let ns = (m * k + n) as f64 * 1.375;
    KernelResult {
        kernel,
        variant,
        m,
        k,
        n,
        gflops: 2.0 * (m * k * n) as f64 / ns,
        ns_per_call: ns,
        allocs_per_call: allocs,
    }
}

fn kernel_reports() -> [(&'static str, KernelReport); 2] {
    let full = KernelReport {
        mode: "full",
        tile: "avx512-8x32",
        results: vec![
            kernel_cell("matmul", "blocked", (270, 32, 7), Some(0)),
            kernel_cell("matmul_tn", "blocked", (270, 32, 7), Some(0)),
            kernel_cell("matmul_nt", "blocked", (270, 7, 32), Some(3)),
            kernel_cell("spmm_sbm_client", "blocked", (31_250, 16, 16), None),
            kernel_cell("matmul", "naive", (512, 512, 512), None),
        ],
        soft_labels: vec![
            SoftLabelResult {
                kernel: "softmax",
                rows: 32_000,
                cols: 7,
                ns_per_element: 0.8125,
                vs_scalar_libm: 6.25,
            },
            SoftLabelResult {
                kernel: "eq4_entropy",
                rows: 32_000,
                cols: 40,
                ns_per_element: 1.0625,
                vs_scalar_libm: f64::NAN,
            },
        ],
        matmul_speedup_vs_naive: 17.5,
        anchor_dim: 512,
        matmul_tn_vs_matmul: f64::NAN,
        lp_step_fused_vs_unfused: f64::INFINITY,
        obs_overhead_pct: -0.375,
        recorder_overhead_pct: 1.25,
    };
    let empty = KernelReport {
        mode: "quick",
        tile: "portable-8x16",
        results: Vec::new(),
        soft_labels: Vec::new(),
        matmul_speedup_vs_naive: f64::NAN,
        anchor_dim: 96,
        matmul_tn_vs_matmul: f64::INFINITY,
        lp_step_fused_vs_unfused: 0.0,
        obs_overhead_pct: f64::NEG_INFINITY,
        recorder_overhead_pct: 0.0,
    };
    [("full", full), ("empty", empty)]
}

fn aggregate_reports() -> [(&'static str, AggregateReport); 2] {
    let cell =
        |participants: usize, plen: usize, threads: usize, allocs: Option<u64>| AggregateResult {
            participants,
            plen,
            threads,
            ns_per_call: (participants * plen) as f64 / threads as f64 * 0.625,
            gbps: threads as f64 * 3.125,
            allocs_per_call: allocs,
        };
    let full = AggregateReport {
        mode: "full",
        cores: 2,
        results: vec![
            cell(8, 10_000, 1, Some(41)),
            cell(8, 10_000, 4, Some(53)),
            cell(32, 100_000, 4, None),
        ],
        speedup_4v1: f64::NAN,
        headline: (32, 100_000),
        bit_identical: true,
    };
    let empty = AggregateReport {
        mode: "quick",
        cores: 1,
        results: Vec::new(),
        speedup_4v1: 1.5,
        headline: (8, 4_096),
        bit_identical: false,
    };
    [("full", full), ("empty", empty)]
}

fn comms_reports() -> [(&'static str, CommsReport); 2] {
    let plain = CommsResult {
        strategy: "FedGTA".into(),
        codec: "none".into(),
        lossless: true,
        error_feedback: false,
        bytes_raw: 1_234_567,
        bytes_encoded: 1_234_567,
        wire_reduction: 1.0,
        bytes_down_raw: 0,
        bytes_down_encoded: 0,
        down_reduction: None,
        value_compression: None,
        best_acc: 0.8125,
        acc_delta_pp: 0.0,
        bit_identical_threads: true,
        matches_plain: Some(true),
    };
    let lossy = CommsResult {
        strategy: "Fed\"Avg\n\\".into(),
        codec: "topk=64+quant-i8+ef down=quant-i8".into(),
        lossless: false,
        error_feedback: true,
        bytes_raw: 1_234_567,
        bytes_encoded: 98_765,
        wire_reduction: 12.5,
        bytes_down_raw: 400_000,
        bytes_down_encoded: 100_013,
        down_reduction: Some(3.9995),
        value_compression: Some(4.0),
        best_acc: f64::NAN,
        acc_delta_pp: -1.375,
        bit_identical_threads: false,
        matches_plain: None,
    };
    let full = CommsReport {
        mode: "full",
        dataset: "cora".into(),
        rounds: 40,
        results: vec![plain, lossy],
    };
    let empty = CommsReport {
        mode: "quick",
        dataset: "ogbn-\"arxiv\"".into(),
        rounds: 0,
        results: Vec::new(),
    };
    [("full", full), ("empty", empty)]
}

fn scale_reports() -> [(&'static str, ScaleReport); 2] {
    let cell = |nodes: usize, edges: usize, secs: f64| ScaleCell {
        nodes,
        edges,
        cols: 16,
        gen_s: secs * 3.0,
        norm_s: secs * 2.0,
        mem_1t_s: secs,
        mem_4t_s: secs / 4.0,
        disk_1t_s: secs * 1.5,
        disk_4t_s: f64::NAN,
        disk_edges_per_s: edges as f64 / (secs * 1.5),
        bit_identical: nodes.is_multiple_of(2),
    };
    let fed = |vm_hwm_bytes: Option<u64>, final_acc: f64| ScaleFedStats {
        nodes: 1_000_000,
        edges: 8_123_456,
        clients: 32,
        rounds: 2,
        participation: 0.25,
        gen_s: 1.625,
        build_s: 2.375,
        run_s: 3.0625,
        final_acc,
        workspace_hwm_bytes: 12_345_678,
        store_resident_peak_bytes: 2_097_152,
        metric_scratch_bytes: 4_000_000,
        kits_bytes: 65_536,
        tracked_peak_bytes: 18_508_366,
        within_budget: true,
        vm_hwm_bytes,
    };
    let full = ScaleReport {
        mode: "full",
        cells: vec![cell(100_000, 1_234_567, 0.0125), cell(1_000_001, 12_345_678, 0.25)],
        fed: fed(Some(271_581_184), 0.6875),
    };
    let empty = ScaleReport { mode: "quick", cells: Vec::new(), fed: fed(None, f64::NAN) };
    [("full", full), ("empty", empty)]
}

fn lines() -> Vec<String> {
    let mut out = Vec::new();
    for (name, r) in kernel_reports() {
        out.push(pin(&format!("kernels {name} json"), &kernels::to_json(&r)));
        out.push(pin(&format!("kernels {name} table"), &kernels::render_table(&r)));
    }
    for (name, r) in aggregate_reports() {
        out.push(pin(&format!("aggregate {name} json"), &aggregate::to_json(&r)));
        out.push(pin(&format!("aggregate {name} table"), &aggregate::render_table(&r)));
    }
    for (name, r) in comms_reports() {
        out.push(pin(&format!("comms {name} json"), &comms::to_json(&r)));
        out.push(pin(&format!("comms {name} table"), &comms::render_table(&r)));
    }
    for (name, r) in scale_reports() {
        out.push(pin(&format!("scale {name} json"), &scale::to_json(&r)));
        out.push(pin(&format!("scale {name} table"), &scale::render_table(&r)));
    }
    // The grid itself: which cells a quick run times, in which order.
    for c in kernels::run(true, None).results {
        out.push(format!("kernels quick cell {} {} {}x{}x{}", c.kernel, c.variant, c.m, c.k, c.n));
    }
    out
}

#[test]
fn suite_output_matches_the_golden_file() {
    golden::check("suites.txt", &lines());
}
