//! Kernel replays: the dense and sparse kernels timed alone at the
//! shapes the workload's first client really trains with, so a kernel
//! change can be read off as GFLOP/s before it is read off a round.

use crate::stats::median;
use crate::workloads::{Source, Workload};
use fedgta::{similarity_matrix_threads, SimilarityKind};
use fedgta_fed::client::Client;
use fedgta_graph::spmm::spmm_into;
use fedgta_nn::models::ModelKind;
use fedgta_nn::ops::{matmul_into, matmul_nt_into, matmul_tn_into};
use fedgta_nn::MatView;
use std::hint::black_box;
use std::time::Instant;

/// Median seconds per call over enough calls to fill ~40 ms (at least 5).
fn time_call(mut f: impl FnMut()) -> f64 {
    f(); // first touch of the output buffer is not the kernel's cost
    let mut samples = Vec::new();
    let t = Instant::now();
    while samples.len() < 5 || (t.elapsed().as_secs_f64() < 0.04 && samples.len() < 1000) {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64());
    }
    median(&samples)
}

/// A deterministic dense operand in `[-0.5, 0.5)`.
fn operand(len: usize) -> Vec<f32> {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 40) as f32 / (1u64 << 24) as f32 - 0.5
        })
        .collect()
}

pub struct KernelRates {
    pub matmul_gflops: f64,
    pub matmul_tn_gflops: f64,
    pub matmul_nt_gflops: f64,
    pub spmm_gflops: f64,
}

/// Times the first layer's forward (`X·W`), weight-gradient (`Xᵀ·dY`)
/// and input-gradient (`dY·Wᵀ`) products at `m` = the client's node
/// count, and label propagation's SpMM at `|Y|` columns.
pub fn kernels(w: &Workload, c: &Client) -> KernelRates {
    let m = c.data.features.rows();
    let f = c.data.features.cols();
    let (k, n) = match w.source {
        Source::Catalog {
            model: ModelKind::Sign,
            hidden,
            ..
        } => (f * 6, hidden), // hops 0..=5 concatenated
        Source::Catalog { hidden, .. } => (f, hidden),
        Source::ScaleSbm { .. } => (f, c.data.num_classes), // SGC: one linear layer
    };
    let (x, wt, dy) = (operand(m * k), operand(k * n), operand(m * n));
    let flops = 2.0 * (m * k * n) as f64;
    let mut out_mn = vec![0f32; m * n];
    let mut out_kn = vec![0f32; k * n];
    let mut out_mk = vec![0f32; m * k];
    let rate = |secs: f64| flops / secs / 1e9;
    let matmul_gflops = rate(time_call(|| {
        matmul_into(
            MatView::new(m, k, &x),
            MatView::new(k, n, &wt),
            black_box(&mut out_mn),
        )
    }));
    let matmul_tn_gflops = rate(time_call(|| {
        matmul_tn_into(
            MatView::new(m, k, &x),
            MatView::new(m, n, &dy),
            black_box(&mut out_kn),
        )
    }));
    let matmul_nt_gflops = rate(time_call(|| {
        matmul_nt_into(
            MatView::new(m, n, &dy),
            MatView::new(k, n, &wt),
            black_box(&mut out_mk),
        )
    }));
    let cols = c.data.num_classes;
    let adj = &c.data.adj_norm;
    let xs = operand(m * cols);
    let mut ys = vec![0f32; m * cols];
    let spmm_flops = 2.0 * adj.num_edges() as f64 * cols as f64;
    let spmm_gflops =
        spmm_flops / time_call(|| spmm_into(adj, &xs, cols, black_box(&mut ys))) / 1e9;
    KernelRates {
        matmul_gflops,
        matmul_tn_gflops,
        matmul_nt_gflops,
        spmm_gflops,
    }
}

/// Eq. 6 alone on a round's real moment sketches: median ms per call.
pub fn similarity_ms(sketches: &[Vec<f32>], threads: usize) -> f64 {
    let views: Vec<&[f32]> = sketches.iter().map(Vec::as_slice).collect();
    1e3 * time_call(|| {
        black_box(similarity_matrix_threads(
            &views,
            SimilarityKind::Cosine,
            threads,
        ));
    })
}
