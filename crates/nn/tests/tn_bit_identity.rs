//! `matmul_tn_into` (the weight-gradient kernel, packed onto the forward
//! micro-kernel) against a scalar strict-increasing-`i` reference, by
//! `to_bits`: every panel boundary (`m` around 256 and 512), short last
//! bands (`k % 8 ≠ 0`), column tails (`n % 16 ≠ 0`), an `out` pre-filled
//! with garbage, and `FEDGTA_THREADS` 1 vs 4.
//!
//! A file of its own with a single `#[test]`: `FEDGTA_THREADS` is
//! process-global, and `prop_kernels.rs` already owns it in its binary.

use fedgta_graph::par::refresh_thread_env;
use fedgta_nn::ops::matmul_tn_into;
use fedgta_nn::Matrix;

fn gen(r: usize, c: usize, seed: u64) -> Matrix {
    Matrix::from_vec(
        r,
        c,
        (0..r * c)
            .map(|i| {
                (((i as u64).wrapping_mul(2654435761).wrapping_add(seed * 7919) % 97) as f32
                    / 48.5)
                    - 1.0
            })
            .collect(),
    )
}

/// `C[kk][j] = Σ_i A[i][kk]·B[i][j]`, one scalar accumulator per element,
/// `i` strictly increasing.
fn reference(a: &Matrix, b: &Matrix) -> Vec<u32> {
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = Vec::with_capacity(k * n);
    for kk in 0..k {
        for j in 0..n {
            let mut s = 0f32;
            for i in 0..m {
                s += a.get(i, kk) * b.get(i, j);
            }
            out.push(s.to_bits());
        }
    }
    out
}

#[test]
fn matmul_tn_matches_scalar_reference_bitwise_at_any_thread_count() {
    for threads in ["1", "4"] {
        std::env::set_var("FEDGTA_THREADS", threads);
        refresh_thread_env();
        for &m in &[0usize, 1, 255, 256, 257, 513] {
            // 3: one short band; 9 and 20: four chunks of short bands
            // under 4 threads; 67: full bands plus a tail in every chunk.
            for &k in &[3usize, 9, 20, 67] {
                for &n in &[7usize, 16, 17, 40] {
                    let a = gen(m, k, (m + k) as u64);
                    let b = gen(m, n, (m + n + 1) as u64);
                    let mut out = vec![f32::NAN; k * n];
                    matmul_tn_into(a.view(), b.view(), &mut out);
                    let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(
                        got,
                        reference(&a, &b),
                        "m={m} k={k} n={n} threads={threads}"
                    );
                }
            }
        }
    }
    std::env::remove_var("FEDGTA_THREADS");
    refresh_thread_env();
}
