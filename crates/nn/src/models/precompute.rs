//! Propagated-feature pipelines for the decoupled backbones (paper §2.2).
//!
//! All pipelines share the hop sequence `X⁽⁰⁾ … X⁽ᵏ⁾` with
//! `X⁽ˡ⁾ = Ãˡ X` under the symmetric normalization; they differ only in
//! how hops are combined:
//!
//! - **SGC**: take the last hop `X⁽ᵏ⁾`;
//! - **SIGN**: concatenate all hops;
//! - **S²GC**: average all hops;
//! - **GBP**: weighted average with `wₗ = β(1−β)ˡ`.

use crate::ops::spmm_csr_into;
use crate::tensor::Matrix;
use fedgta_graph::spmm::propagate_steps_into;
use fedgta_graph::Csr;

/// How hop features are combined into the model input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PrecomputeKind {
    /// `X⁽ᵏ⁾` (SGC).
    Sgc,
    /// `[X⁽⁰⁾ ‖ … ‖ X⁽ᵏ⁾]` (SIGN).
    Sign,
    /// `(1/(k+1)) Σ X⁽ˡ⁾` (S²GC).
    S2gc,
    /// `Σ β(1−β)ˡ X⁽ˡ⁾` (GBP).
    Gbp {
        /// Decay coefficient β ∈ (0, 1].
        beta: f32,
    },
}

impl PrecomputeKind {
    /// The input dimension the combined features have for `f` raw features
    /// and `k` hops.
    pub fn out_dim(self, f: usize, k: usize) -> usize {
        match self {
            PrecomputeKind::Sign => f * (k + 1),
            _ => f,
        }
    }
}

/// Computes all hop features `[X⁽⁰⁾, …, X⁽ᵏ⁾]` under `adj_norm`.
///
/// Uses the borrowing [`propagate_steps_into`] so only the `k` propagated
/// hops are produced by the kernel; hop 0 is a single clone of the input.
pub fn hop_features(adj_norm: &Csr, features: &Matrix, k: usize) -> Vec<Matrix> {
    let mut hops: Vec<Vec<f32>> = Vec::new();
    propagate_steps_into(adj_norm, features.as_slice(), features.cols(), k, &mut hops)
        .expect("adjacency and features share the node count");
    let mut out = Vec::with_capacity(k + 1);
    out.push(features.clone());
    out.extend(hops.into_iter().map(|s| Matrix::from_vec(features.rows(), features.cols(), s)));
    out
}

/// Combines hop features per `kind` into the model input matrix.
pub fn combine(kind: PrecomputeKind, hops: &[Matrix]) -> Matrix {
    let k = hops.len() - 1;
    match kind {
        PrecomputeKind::Sgc => hops[k].clone(),
        PrecomputeKind::Sign => {
            // One `(k + 1)·f`-wide matrix, each hop copied into its columns.
            let (n, f) = hops[0].shape();
            let mut out = Matrix::zeros(n, kind.out_dim(f, k));
            for (l, h) in hops.iter().enumerate() {
                for i in 0..n {
                    out.row_mut(i)[l * f..(l + 1) * f].copy_from_slice(h.row(i));
                }
            }
            out
        }
        PrecomputeKind::S2gc => {
            let mut out = hops[0].clone();
            for h in &hops[1..] {
                out.axpy(1.0, h);
            }
            out.scale(1.0 / (k as f32 + 1.0));
            out
        }
        PrecomputeKind::Gbp { beta } => {
            let mut out = hops[0].clone();
            out.scale(beta);
            let mut w = beta;
            for h in &hops[1..] {
                w *= 1.0 - beta;
                out.axpy(w, h);
            }
            out
        }
    }
}

/// Propagates and combines in one pass — [`combine`] over
/// [`hop_features`] to the bit, the readable reference it is tested
/// against, without holding hops the kind is done with: SGC ping-pongs `X`'s
/// own buffer and one more, S²GC and GBP fold each hop into a running sum as
/// it appears, and only SIGN, whose output *is* every hop side by side, ends
/// up with `k + 1` of them — written straight into their columns.
pub fn precompute(kind: PrecomputeKind, adj_norm: &Csr, features: Matrix, k: usize) -> Matrix {
    let (n, f) = features.shape();
    let mut cur = features;
    let mut next = Matrix::zeros(n, f);
    let mut out = match kind {
        PrecomputeKind::Sgc => Matrix::default(),
        _ => Matrix::zeros(n, kind.out_dim(f, k)),
    };
    let mut w = 0.0;
    for l in 0..=k {
        if l > 0 {
            spmm_csr_into(adj_norm, &cur, &mut next);
            std::mem::swap(&mut cur, &mut next);
        }
        match kind {
            PrecomputeKind::Sgc => {}
            PrecomputeKind::Sign => {
                for i in 0..n {
                    out.row_mut(i)[l * f..(l + 1) * f].copy_from_slice(cur.row(i));
                }
            }
            PrecomputeKind::S2gc if l == 0 => out.copy_from(&cur),
            PrecomputeKind::S2gc => out.axpy(1.0, &cur),
            PrecomputeKind::Gbp { beta } if l == 0 => {
                out.copy_from(&cur);
                out.scale(beta);
                w = beta;
            }
            PrecomputeKind::Gbp { beta } => {
                w *= 1.0 - beta;
                out.axpy(w, &cur);
            }
        }
    }
    match kind {
        PrecomputeKind::Sgc => cur,
        PrecomputeKind::S2gc => {
            out.scale(1.0 / (k as f32 + 1.0));
            out
        }
        _ => out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedgta_graph::{normalized_adjacency, EdgeList, NormKind};

    fn setup() -> (Csr, Matrix) {
        let mut el = EdgeList::new(3);
        el.push_undirected(0, 1).unwrap();
        el.push_undirected(1, 2).unwrap();
        let a = normalized_adjacency(&el.to_csr(), NormKind::Symmetric);
        let x = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        (a, x)
    }

    #[test]
    fn hop_zero_is_input() {
        let (a, x) = setup();
        let hops = hop_features(&a, &x, 2);
        assert_eq!(hops.len(), 3);
        assert_eq!(hops[0], x);
    }

    #[test]
    fn sgc_takes_last_hop() {
        let (a, x) = setup();
        let hops = hop_features(&a, &x, 2);
        assert_eq!(combine(PrecomputeKind::Sgc, &hops), hops[2]);
    }

    #[test]
    fn sign_concatenates_dims() {
        let (a, x) = setup();
        let p = precompute(PrecomputeKind::Sign, &a, x, 2);
        assert_eq!(p.shape(), (3, 6));
        assert_eq!(PrecomputeKind::Sign.out_dim(2, 2), 6);
    }

    #[test]
    fn s2gc_is_hop_mean() {
        let (a, x) = setup();
        let hops = hop_features(&a, &x, 2);
        let p = combine(PrecomputeKind::S2gc, &hops);
        let expect = (hops[0].get(1, 1) + hops[1].get(1, 1) + hops[2].get(1, 1)) / 3.0;
        assert!((p.get(1, 1) - expect).abs() < 1e-6);
    }

    #[test]
    fn gbp_weights_decay_geometrically() {
        let (a, x) = setup();
        let hops = hop_features(&a, &x, 2);
        let beta = 0.5f32;
        let p = combine(PrecomputeKind::Gbp { beta }, &hops);
        let expect = 0.5 * hops[0].get(0, 0) + 0.25 * hops[1].get(0, 0) + 0.125 * hops[2].get(0, 0);
        assert!((p.get(0, 0) - expect).abs() < 1e-6);
    }

    #[test]
    fn beta_one_reduces_gbp_to_raw_features() {
        let (a, x) = setup();
        let p = precompute(PrecomputeKind::Gbp { beta: 1.0 }, &a, x.clone(), 3);
        assert_eq!(p, x);
    }

    #[test]
    fn store_precompute_matches_in_memory_bitwise() {
        // The one-pass, hop-dropping body against the readable reference,
        // by `to_bits` (`Matrix == Matrix` would let `0.0 == -0.0` pass).
        let (a, x) = setup();
        let kinds = [
            PrecomputeKind::Sgc,
            PrecomputeKind::Sign,
            PrecomputeKind::S2gc,
            PrecomputeKind::Gbp { beta: 0.3 },
        ];
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for kind in kinds {
            for k in 0..4 {
                let want = combine(kind, &hop_features(&a, &x, k));
                let got = precompute(kind, &a, x.clone(), k);
                assert_eq!(got.shape(), want.shape(), "{kind:?} k={k}");
                assert_eq!(bits(&got), bits(&want), "{kind:?} k={k}");
            }
        }
        // SGC copies nothing: after an even number of ping-pongs the
        // result lies in the very buffer `X` came in.
        let input = x.clone();
        let at = input.as_slice().as_ptr();
        assert_eq!(precompute(PrecomputeKind::Sgc, &a, input, 2).as_slice().as_ptr(), at);
    }
}
