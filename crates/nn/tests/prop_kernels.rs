//! Property tests for the register-blocked kernels: agreement with the
//! retained naive scalar kernels over random shapes, bit-identity with
//! them where the accumulation order is the same, and the determinism
//! contract of the one kernel entry that takes a thread count.

use fedgta_graph::spmm::spmm_into_threads;
use fedgta_graph::EdgeList;
use fedgta_nn::ops::{
    self, matmul, matmul_bias_into, matmul_bias_relu_into, matmul_into, matmul_nt, matmul_tn,
    matmul_tn_into, spmm_csr_into,
};
use fedgta_nn::Matrix;
use proptest::prelude::*;

fn gen(r: usize, c: usize, seed: u64) -> Matrix {
    Matrix::from_vec(
        r,
        c,
        (0..r * c)
            .map(|i| {
                (((i as u64).wrapping_mul(2654435761).wrapping_add(seed * 7919) % 97) as f32 / 48.5)
                    - 1.0
            })
            .collect(),
    )
}

fn assert_close(got: &Matrix, want: &Matrix, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (i, (x, y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert!((x - y).abs() < 1e-4, "{what}: element {i} differs ({x} vs {y})");
    }
}

/// Explicit awkward shapes from the kernel spec: 1×1, 3×5, 7×9 — none a
/// multiple of the register tile — plus a handful that straddle the 8-row
/// and 16-column block boundaries.
#[test]
fn blocked_matches_naive_at_spec_shapes() {
    for &(m, k, n) in
        &[(1, 1, 1), (3, 5, 7), (7, 9, 5), (8, 16, 16), (9, 17, 15), (16, 8, 33), (31, 2, 1)]
    {
        let a = gen(m, k, 1);
        let b = gen(k, n, 2);
        assert_close(&matmul(&a, &b), &ops::naive::matmul(&a, &b), "matmul");
        let a2 = gen(m, k, 3);
        let b2 = gen(m, n, 4);
        assert_close(&matmul_tn(&a2, &b2), &ops::naive::matmul_tn(&a2, &b2), "matmul_tn");
        let a3 = gen(m, k, 5);
        let b3 = gen(n, k, 6);
        assert_close(&matmul_nt(&a3, &b3), &ops::naive::matmul_nt(&a3, &b3), "matmul_nt");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random shapes across several tile boundaries: every blocked kernel
    /// agrees with its naive scalar reference.
    #[test]
    fn blocked_matches_naive_at_random_shapes(
        (m, k, n) in (1usize..40, 1usize..40, 1usize..40),
        seed in 0u64..1000,
    ) {
        let a = gen(m, k, seed);
        let b = gen(k, n, seed + 1);
        assert_close(&matmul(&a, &b), &ops::naive::matmul(&a, &b), "matmul");
        let b_tn = gen(m, n, seed + 2);
        assert_close(&matmul_tn(&a, &b_tn), &ops::naive::matmul_tn(&a, &b_tn), "matmul_tn");
        let b_nt = gen(n, k, seed + 3);
        assert_close(&matmul_nt(&a, &b_nt), &ops::naive::matmul_nt(&a, &b_nt), "matmul_nt");
    }

    /// SpMM against the naive per-row gather, on a ring lattice with
    /// a non-tile-aligned feature width.
    #[test]
    fn spmm_matches_naive(
        nodes in 2usize..60,
        cols in 1usize..20,
        seed in 0u64..100,
    ) {
        let mut el = EdgeList::new(nodes);
        for i in 0..nodes as u32 {
            let j = (i + 1) % nodes as u32;
            if i < j {
                el.push_undirected(i, j).unwrap();
            }
        }
        let a = el.to_csr();
        let x = gen(nodes, cols, seed);
        let mut y = Matrix::zeros(nodes, cols);
        spmm_csr_into(&a, &x, &mut y);
        let want = ops::naive::spmm(&a, x.as_slice(), cols);
        for (g, w) in y.as_slice().iter().zip(&want) {
            prop_assert!((g - w).abs() < 1e-4);
        }
    }
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// The kernels built on the forward micro-kernel accumulate every output
/// element in strict increasing-`k` (`matmul_tn`: increasing-`i`) order —
/// the order of the scalar loops in `ops::naive` — so they agree with them
/// by `to_bits`, whatever the tile, band and block boundaries: `m` around
/// `matmul_tn`'s 256-step blocks, short last bands (`k % 8 ≠ 0`), `A` read
/// in place with step `k` up to an arxiv input layer's 768, column tails
/// (`n % 16 ≠ 0`), widths with and without a 32-column AVX-512 block and a
/// 16-column block after it, an `out` pre-filled with garbage. (`gen` yields no
/// zero, so `naive`'s zero-skip never fires. `matmul_nt_into` sums in
/// lanes, not in `naive`'s order; the tolerance tests above cover it.)
#[test]
fn forward_kernel_family_matches_naive_bitwise() {
    for &m in &[0usize, 1, 255, 256, 257, 513] {
        for &k in &[3usize, 8, 9, 20, 67, 768] {
            for &n in &[7usize, 16, 17, 32, 40, 48, 128] {
                let what = format!("m={m} k={k} n={n}");
                let a = gen(m, k, (m + k) as u64);
                let dy = gen(m, n, (m + n + 1) as u64);
                let mut out = vec![f32::NAN; k * n];
                matmul_tn_into(a.view(), dy.view(), &mut out);
                assert_eq!(
                    bits(&out),
                    bits(ops::naive::matmul_tn(&a, &dy).as_slice()),
                    "matmul_tn {what}"
                );

                let w = gen(k, n, (k + n + 2) as u64);
                let mut out = vec![f32::NAN; m * n];
                matmul_into(a.view(), w.view(), &mut out);
                assert_eq!(
                    bits(&out),
                    bits(ops::naive::matmul(&a, &w).as_slice()),
                    "matmul {what}"
                );

                // The fused epilogues seed the accumulator with the bias.
                let bias: Vec<f32> = (0..n).map(|j| (j as f32 - 10.0) * 0.05).collect();
                let mut want = vec![0f32; m * n];
                for (i, row) in want.chunks_exact_mut(n).enumerate() {
                    for (j, o) in row.iter_mut().enumerate() {
                        *o = (0..k).fold(bias[j], |s, kk| s + a.get(i, kk) * w.get(kk, j));
                    }
                }
                matmul_bias_into(a.view(), w.view(), &bias, &mut out);
                assert_eq!(bits(&out), bits(&want), "matmul_bias {what}");
                for v in &mut want {
                    if *v < 0.0 {
                        *v = 0.0;
                    }
                }
                matmul_bias_relu_into(a.view(), w.view(), &bias, &mut out);
                assert_eq!(bits(&out), bits(&want), "matmul_bias_relu {what}");
            }
        }
    }
}

/// The determinism contract of the one `_into` kernel that still takes a
/// thread count: SpMM through its explicit entry is bit-identical at 1 and
/// 4 threads (and the calling-thread `spmm_csr_into` is the 1-thread run).
/// The dense kernels have no thread count left to sweep.
#[test]
fn into_kernels_bit_identical_across_thread_counts() {
    // Row count well above `2 * threads` so the 4-thread run actually
    // splits; odd sizes so chunk boundaries are ragged.
    let (m, k) = (67usize, 19usize);
    let x = gen(m, k, 11);
    let mut el = EdgeList::new(m);
    for i in 0..m as u32 {
        let j = (i + 1) % m as u32;
        if i < j {
            el.push_undirected(i, j).unwrap();
        }
    }
    let csr = el.to_csr();
    let run = |threads: usize| {
        let mut y = vec![f32::NAN; m * k];
        spmm_into_threads(&csr, x.as_slice(), k, &mut y, threads);
        bits(&y)
    };
    let one = run(1);
    assert_eq!(one, run(4), "spmm differs between 1 and 4 threads");
    let mut y = Matrix::zeros(m, k);
    spmm_csr_into(&csr, &x, &mut y);
    assert_eq!(one, bits(y.as_slice()), "spmm_csr_into is the 1-thread kernel");
}
