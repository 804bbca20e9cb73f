//! Mixed moments of neighbor features (paper Eq. 5).
//!
//! For each propagation step `l = 1..k` and order `o = 1..K`, the per-class
//! moment vector `E[(ŷˡ − μˡ)ᵒ] ∈ R^{|Y|}` — with the per-node mean
//! `μᵢˡ = (1/|Y|) Σⱼ ŷᵢⱼˡ` subtracted (central) or not (raw) — taken in
//! expectation over the client's nodes. Concatenating all `k·K` vectors
//! yields the flattened `M ∈ R^{k·K·|Y|}` sketch the client uploads.

use fedgta_nn::Matrix;

/// Central (paper's example) vs raw moments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MomentKind {
    /// Subtract the per-node class-mean before exponentiation.
    Central,
    /// Use the propagated values directly.
    Raw,
}

/// Computes the flattened mixed-moment sketch of the propagation steps.
///
/// `steps` are `[Ŷ¹, …, Ŷᵏ]` from [`crate::lp::label_propagation`];
/// `order` is `K ≥ 1`. Output length: `steps.len() · order · |Y|`.
/// Allocating wrapper of [`mixed_moments_into`].
pub fn mixed_moments(steps: &[Matrix], order: usize, kind: MomentKind) -> Vec<f32> {
    let mut acc = Vec::new();
    let mut out = Vec::new();
    mixed_moments_into(steps, order, kind, &mut acc, &mut out);
    out
}

/// Class-block width of [`mixed_moments_into`]: 8 `f64` lanes = one
/// AVX-512 / two AVX2 vectors.
const LANES: usize = 8;

/// [`mixed_moments`] into persistent buffers: `acc` is the flat
/// `order × |Y|` `f64` accumulator (`acc[ord·c + j]` holds
/// `Σᵢ vᵢⱼ^(ord+1)`) and `out` receives the sketch. Both reuse their
/// existing capacity; warm calls with a stable `k·K·|Y|` shape perform
/// zero heap allocations.
///
/// Rows are processed in **blocks of [`LANES`] classes**: the centered
/// values and their running powers live in fixed-size arrays, so the
/// `acc += p; p *= v` recurrence has a compile-time trip count and no
/// bounds checks, and vectorizes across classes. That changes only which
/// classes are computed side by side: every `(ord, j)` accumulator still
/// receives its addends in increasing-`i` order and every power is the
/// same chain of multiplications, so the sketch is bit-identical to the
/// element-at-a-time loop. The per-node mean stays the sequential
/// `row.iter().sum()` for the same reason — a lane-split sum would add
/// the classes in another order and change its rounding.
pub fn mixed_moments_into(
    steps: &[Matrix],
    order: usize,
    kind: MomentKind,
    acc: &mut Vec<f64>,
    out: &mut Vec<f32>,
) {
    assert!(order >= 1, "moment order must be positive");
    out.clear();
    if steps.is_empty() {
        return;
    }
    let (n, c) = steps[0].shape();
    out.reserve(steps.len() * order * c);
    for step in steps {
        assert_eq!(step.shape(), (n, c), "inconsistent step shapes");
        acc.clear();
        acc.resize(order * c, 0.0);
        for i in 0..n {
            let row = step.row(i);
            let mu = match kind {
                MomentKind::Central => row.iter().sum::<f32>() / c as f32,
                MomentKind::Raw => 0.0,
            };
            let (blocks, tail) = row.as_chunks::<LANES>();
            for (b, block) in blocks.iter().enumerate() {
                let v = block.map(|y| (y - mu) as f64);
                let mut p = v;
                for a in acc.chunks_exact_mut(c) {
                    let a = &mut a.as_chunks_mut::<LANES>().0[b];
                    for l in 0..LANES {
                        a[l] += p[l];
                        p[l] *= v[l];
                    }
                }
            }
            // The `c % LANES` classes left over, one at a time.
            let done = c - tail.len();
            for (j, &y) in tail.iter().enumerate() {
                let v = (y - mu) as f64;
                let mut p = v;
                for ord in 0..order {
                    acc[ord * c + done + j] += p;
                    p *= v;
                }
            }
        }
        let inv = 1.0 / n.max(1) as f64;
        for &a in acc.iter() {
            out.push((a * inv) as f32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_length_is_k_times_order_times_classes() {
        let steps = vec![Matrix::zeros(4, 3), Matrix::zeros(4, 3)];
        let m = mixed_moments(&steps, 4, MomentKind::Central);
        assert_eq!(m.len(), 2 * 4 * 3);
    }

    #[test]
    fn into_variant_matches_wrapper_bitwise_and_reuses_buffers() {
        let steps: Vec<Matrix> = (0..3)
            .map(|s| {
                Matrix::from_vec(
                    6,
                    4,
                    (0..24).map(|i| ((s * 19 + i * 7) as f32 * 0.11).sin()).collect(),
                )
            })
            .collect();
        for kind in [MomentKind::Central, MomentKind::Raw] {
            let want = mixed_moments(&steps, 3, kind);
            let mut acc = vec![5.0f64; 2]; // stale garbage
            let mut out = vec![1.0f32; 100]; // stale garbage, oversized
            mixed_moments_into(&steps, 3, kind, &mut acc, &mut out);
            assert_eq!(out.len(), want.len());
            for (g, w) in out.iter().zip(&want) {
                assert_eq!(g.to_bits(), w.to_bits());
            }
            // Warm call must not reallocate either buffer.
            let (ap, op) = (acc.as_ptr(), out.as_ptr());
            mixed_moments_into(&steps, 3, kind, &mut acc, &mut out);
            assert_eq!(acc.as_ptr(), ap);
            assert_eq!(out.as_ptr(), op);
        }
    }

    /// The element-at-a-time loop the lane-blocked kernel replaced.
    fn scalar_reference(steps: &[Matrix], order: usize, kind: MomentKind) -> Vec<f32> {
        let mut out = Vec::new();
        for step in steps {
            let (n, c) = step.shape();
            let mut acc = vec![0f64; order * c];
            for i in 0..n {
                let row = step.row(i);
                let mu = match kind {
                    MomentKind::Central => row.iter().sum::<f32>() / c as f32,
                    MomentKind::Raw => 0.0,
                };
                for (j, &y) in row.iter().enumerate() {
                    let v = (y - mu) as f64;
                    let mut p = v;
                    for ord in 0..order {
                        acc[ord * c + j] += p;
                        p *= v;
                    }
                }
            }
            let inv = 1.0 / n.max(1) as f64;
            out.extend(acc.iter().map(|&a| (a * inv) as f32));
        }
        out
    }

    #[test]
    fn lane_blocked_kernel_matches_scalar_reference_bitwise() {
        let special = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0];
        for c in [1usize, 7, 8, 9, 16, 17, 40] {
            for n in [0usize, 1, 1000] {
                // Finite steps, then one salted with NaN / ±Inf / −0.0.
                let mut steps: Vec<Matrix> = (0..2)
                    .map(|s| {
                        let data = (0..n * c).map(|i| ((s * 19 + i * 7) as f32 * 0.11).sin()).collect();
                        Matrix::from_vec(n, c, data)
                    })
                    .collect();
                let mut salted = steps[0].clone();
                for (i, v) in salted.as_mut_slice().iter_mut().enumerate().filter(|(i, _)| i % 5 == 0) {
                    *v = special[i / 5 % special.len()];
                }
                steps.push(salted);
                // A row of −0.0 only: its mean and centered values are signed zeros.
                if n > 0 {
                    steps[0].row_mut(0).fill(-0.0);
                }
                for order in [1usize, 3, 20] {
                    for kind in [MomentKind::Central, MomentKind::Raw] {
                        let got = mixed_moments(&steps, order, kind);
                        let want = scalar_reference(&steps, order, kind);
                        assert_eq!(got.len(), want.len());
                        // Rust leaves the sign and payload of an arithmetic
                        // NaN unspecified, so NaN matches NaN; all else by bits.
                        for (j, (g, w)) in got.iter().zip(&want).enumerate() {
                            assert!(
                                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                                "c={c} n={n} order={order} {kind:?} element {j}: {g} vs {w}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn first_central_moment_of_uniform_rows_is_zero() {
        // Every row equal to its own mean ⇒ centered values are 0.
        let steps = vec![Matrix::from_vec(3, 2, vec![0.5; 6])];
        let m = mixed_moments(&steps, 2, MomentKind::Central);
        assert!(m.iter().all(|&v| v.abs() < 1e-7), "{m:?}");
    }

    #[test]
    fn raw_first_moment_is_class_mean() {
        let steps = vec![Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 0.0]])];
        let m = mixed_moments(&steps, 1, MomentKind::Raw);
        assert!((m[0] - 2.0 / 3.0).abs() < 1e-6);
        assert!((m[1] - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn central_second_moment_matches_variance() {
        // One row [1, 0]: mean 0.5, centered [0.5, −0.5], squares 0.25.
        let steps = vec![Matrix::from_rows(&[&[1.0, 0.0]])];
        let m = mixed_moments(&steps, 2, MomentKind::Central);
        assert!((m[0] - 0.5).abs() < 1e-6); // order-1 class 0
        assert!((m[1] + 0.5).abs() < 1e-6); // order-1 class 1
        assert!((m[2] - 0.25).abs() < 1e-6); // order-2 class 0
        assert!((m[3] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn different_label_distributions_give_different_sketches() {
        let a = vec![Matrix::from_rows(&[&[0.9, 0.1], &[0.8, 0.2]])];
        let b = vec![Matrix::from_rows(&[&[0.1, 0.9], &[0.2, 0.8]])];
        let ma = mixed_moments(&a, 3, MomentKind::Central);
        let mb = mixed_moments(&b, 3, MomentKind::Central);
        assert_ne!(ma, mb);
    }

    #[test]
    fn empty_steps_give_empty_sketch() {
        assert!(mixed_moments(&[], 3, MomentKind::Central).is_empty());
    }
}
