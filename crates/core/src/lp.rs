//! Non-parametric label propagation (paper Eq. 3).
//!
//! `Ŷ⁰ = softmax(Encoder(A, X))`;
//! `Ŷˡ = α Ŷ⁰ + (1−α) Ã Ŷˡ⁻¹` with the symmetric normalization
//! `Ã = D̂^{-1/2} Â D̂^{-1/2}` — the approximate personalized-PageRank
//! smoother of Gasteiger et al. No parameters are trained; this is a pure
//! sparse-matrix pipeline, which is why FedGTA's client overhead is
//! training-independent (Table 1).
//!
//! Each step is **one** kernel call,
//! [`spmm_axpby_into`](fedgta_graph::spmm::spmm_axpby_into): the restart
//! term is applied to the SpMM's register accumulator and the step is
//! written once, straight into its retained buffer. The bare product
//! `Ã Ŷˡ⁻¹` never exists in memory, so a step costs the reads of the
//! adjacency, `Ŷˡ⁻¹` and `Ŷ⁰` plus one write — there is no scratch matrix
//! and no second sweep. On a client graph of a few neighbors per row those
//! reads are not the bound: the mispredicted exit of each row's short
//! neighbor loop is, and the SpMM's degree-ordered row schedule (see
//! [`fedgta_graph::spmm`]) is what takes it away.

use fedgta_graph::spmm::spmm_axpby_into;
use fedgta_graph::Csr;
use fedgta_nn::Matrix;

/// Runs `k` propagation steps; returns `[Ŷ¹, …, Ŷᵏ]` (the input `Ŷ⁰` is
/// *not* included — moments are computed over propagated steps only).
///
/// Allocating wrapper of [`label_propagation_into`].
pub fn label_propagation(
    adj_norm: &Csr,
    soft_labels: &Matrix,
    k: usize,
    alpha: f32,
) -> Vec<Matrix> {
    let mut steps = Vec::new();
    label_propagation_into(adj_norm, soft_labels, k, alpha, &mut steps, &mut Vec::new());
    steps
}

/// [`label_propagation`] into persistent buffers: fills `steps` with the
/// `k` propagated matrices, **reusing whatever capacity they already
/// hold**. Once warm (same `n·c·k` shape round over round, as in FedGTA's
/// Algorithm-1 upload path), this performs zero heap allocations.
///
/// `_prop` is **dead**: it was the scratch the bare SpMM product went
/// through before the restart term moved into the kernel. It is neither
/// sized, read nor written, and stays in the signature only because the
/// frozen `benchmark/` package calls this function with six arguments
/// (ROADMAP item 2 records its removal).
///
/// Each element is `p·(1−α) + α·ŷ⁰` with `p` the f32 SpMM row sum —
/// expression and evaluation order unchanged from the two-pass version,
/// so results are bit-identical to it.
pub fn label_propagation_into(
    adj_norm: &Csr,
    soft_labels: &Matrix,
    k: usize,
    alpha: f32,
    steps: &mut Vec<Matrix>,
    _prop: &mut Vec<f32>,
) {
    assert_eq!(adj_norm.num_nodes(), soft_labels.rows(), "adjacency and label rows must agree");
    let (n, c) = soft_labels.shape();
    let y = soft_labels.as_slice();
    let one_minus = 1.0 - alpha;
    steps.truncate(k);
    while steps.len() < k {
        steps.push(Matrix::zeros(0, 0));
    }
    for s in steps.iter_mut() {
        s.resize_to(n, c);
    }
    for s in 0..k {
        // Previous step borrowed from the output vec — no `cur` clone.
        let (done, rest) = steps.split_at_mut(s);
        let cur = if s == 0 { y } else { done[s - 1].as_slice() };
        spmm_axpby_into(adj_norm, cur, c, one_minus, alpha, y, rest[0].as_mut_slice());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedgta_graph::{normalized_adjacency, EdgeList, NormKind};

    fn line_graph(n: usize) -> Csr {
        let mut el = EdgeList::new(n);
        for i in 1..n as u32 {
            el.push_undirected(i - 1, i).unwrap();
        }
        normalized_adjacency(&el.to_csr(), NormKind::Symmetric)
    }

    #[test]
    fn returns_k_steps() {
        let a = line_graph(4);
        let y = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 0.0], &[0.0, 1.0], &[0.0, 1.0]]);
        let steps = label_propagation(&a, &y, 5, 0.5);
        assert_eq!(steps.len(), 5);
        for s in &steps {
            assert_eq!(s.shape(), (4, 2));
        }
    }

    #[test]
    fn into_variant_matches_wrapper_bitwise_and_reuses_buffers() {
        let a = line_graph(5);
        let y = Matrix::from_vec(5, 2, (0..10).map(|i| (i as f32 * 0.17).sin().abs()).collect());
        let want = label_propagation(&a, &y, 4, 0.5);
        // Stale, wrongly-shaped buffers must be recycled.
        let mut steps = vec![Matrix::zeros(2, 7), Matrix::zeros(9, 1)];
        let mut prop = vec![3.0f32; 4];
        label_propagation_into(&a, &y, 4, 0.5, &mut steps, &mut prop);
        assert_eq!(steps.len(), 4);
        for (s, w) in steps.iter().zip(&want) {
            assert_eq!(s.shape(), w.shape());
            for (g, e) in s.as_slice().iter().zip(w.as_slice()) {
                assert_eq!(g.to_bits(), e.to_bits());
            }
        }
        // Warm call: same shapes ⇒ buffers must not move (no realloc).
        let ptr = steps[0].as_slice().as_ptr();
        label_propagation_into(&a, &y, 4, 0.5, &mut steps, &mut prop);
        assert_eq!(steps[0].as_slice().as_ptr(), ptr);
        // The dead scratch argument is neither sized nor written.
        assert_eq!(prop, vec![3.0f32; 4]);
    }

    #[test]
    fn fused_step_matches_the_two_pass_formulation_bitwise() {
        // The formulation this module used before the restart term moved
        // into the kernel: SpMM into a scratch, then a separate sweep.
        fn two_pass(a: &Csr, y0: &Matrix, k: usize, alpha: f32) -> Vec<Vec<f32>> {
            let (y, c) = (y0.as_slice(), y0.cols());
            let one_minus = 1.0 - alpha;
            let mut prop = vec![0f32; y.len()];
            let mut steps: Vec<Vec<f32>> = Vec::new();
            for s in 0..k {
                fedgta_graph::spmm::spmm_into(
                    a,
                    if s == 0 { y } else { &steps[s - 1] },
                    c,
                    &mut prop,
                );
                steps
                    .push(prop.iter().zip(y).map(|(&p, &yv)| p * one_minus + alpha * yv).collect());
            }
            steps
        }
        let a = line_graph(9);
        for c in [3usize, 16, 17] {
            let y =
                Matrix::from_vec(9, c, (0..9 * c).map(|i| (i as f32 * 0.37).sin().abs()).collect());
            for alpha in [0.0f32, 0.5, 1.0] {
                let got = label_propagation(&a, &y, 4, alpha);
                let want = two_pass(&a, &y, 4, alpha);
                assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(&want) {
                    for (g, w) in g.as_slice().iter().zip(w) {
                        assert_eq!(g.to_bits(), w.to_bits(), "c={c} α={alpha}");
                    }
                }
            }
        }
    }

    #[test]
    fn alpha_one_freezes_labels() {
        let a = line_graph(3);
        let y = Matrix::from_rows(&[&[0.9, 0.1], &[0.5, 0.5], &[0.2, 0.8]]);
        let steps = label_propagation(&a, &y, 3, 1.0);
        for s in &steps {
            for (got, want) in s.as_slice().iter().zip(y.as_slice()) {
                assert!((got - want).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn propagation_spreads_labels_to_neighbors() {
        // Node 0 is the only one with class-0 mass; after one step its
        // neighbor should have gained some.
        let a = line_graph(3);
        let y = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[0.0, 1.0]]);
        let steps = label_propagation(&a, &y, 1, 0.5);
        assert!(steps[0].get(1, 0) > 0.0);
        assert!(steps[0].get(2, 0) < steps[0].get(1, 0));
    }

    #[test]
    fn homophilous_graph_converges_to_smooth_labels() {
        // Two disconnected pairs: propagation never mixes components.
        let mut el = EdgeList::new(4);
        el.push_undirected(0, 1).unwrap();
        el.push_undirected(2, 3).unwrap();
        let a = normalized_adjacency(&el.to_csr(), NormKind::Symmetric);
        let y = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 0.0], &[0.0, 1.0], &[0.0, 1.0]]);
        let steps = label_propagation(&a, &y, 8, 0.5);
        let last = steps.last().unwrap();
        assert!(last.get(0, 1) < 1e-6);
        assert!(last.get(3, 0) < 1e-6);
    }

    #[test]
    fn mass_stays_bounded() {
        let a = line_graph(6);
        let y = Matrix::from_vec(6, 3, vec![1.0 / 3.0; 18]);
        let steps = label_propagation(&a, &y, 10, 0.5);
        for s in &steps {
            for &v in s.as_slice() {
                assert!((0.0..=1.0 + 1e-5).contains(&v), "value {v}");
            }
        }
    }
}
