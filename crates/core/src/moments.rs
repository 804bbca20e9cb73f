//! Mixed moments of neighbor features (paper Eq. 5).
//!
//! For each propagation step `l = 1..k` and order `o = 1..K`, the per-class
//! moment vector `E[(ŷˡ − μˡ)ᵒ] ∈ R^{|Y|}` — with the per-node mean
//! `μᵢˡ = (1/|Y|) Σⱼ ŷᵢⱼˡ` subtracted (central) or not (raw) — taken in
//! expectation over the client's nodes. Concatenating all `k·K` vectors
//! yields the flattened `M ∈ R^{k·K·|Y|}` sketch the client uploads.
//!
//! [`mixed_moments_into`] walks each step in **tiles of `TILE` rows**.
//! Per tile it takes the per-node means, then, for each block of
//! `LANES` classes and each block of at most `ORDER_BLOCK` orders,
//! loads that block's `order × class` accumulators into registers once,
//! runs every row of the tile through them and stores them once. The
//! row-at-a-time loop it replaces loaded and stored each accumulator once
//! per row, and that round trip through memory — not the per-node mean,
//! which an 8-row interleave left at 0.98–1.05× — was the cost. On a
//! 2-core Xeon (AVX-512) host, minimum of 25 alternated calls at 31 250
//! rows and five steps, the tiled kernel takes 0.57–0.83× the time at
//! c = 16 (K = 3 and 20), ≈ 0.8× at c = 40, and ≈ 0.25–0.45× at c = 7
//! (cora's class count: every class sits in the ragged block, which is
//! now padded to a vector instead of running a scalar loop).
//!
//! No bit moves. Every `(order, class)` accumulator still receives its
//! addends in increasing row order (tiles in order, rows in order within
//! a tile), and every power is the same chain of multiplications: an
//! order block that does not start at order 1 continues from the power
//! the previous block left in a stack buffer (`carry`) rather than
//! computing it anew. The tiles and the carry live on the stack, so warm
//! calls stay allocation-free and the caller's scratch does not grow.

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

/// Rows per tile of [`mixed_moments_into`]: the accumulators of one
/// (order block, class block) stay in registers across this many rows.
const TILE: usize = 64;

/// Most orders one pass over a tile carries in registers; `order` is cut
/// into blocks of at most this many, chosen at compile time by a `match`.
const ORDER_BLOCK: usize = 4;

/// [`mixed_moments`] into persistent buffers: `acc` is the flat
/// `order × |Y|` `f64` accumulator (`acc[ord·c + j]` holds
/// `Σᵢ vᵢⱼ^(ord+1)`) and `out` receives the sketch. Both reuse their
/// existing capacity; warm calls with a stable `k·K·|Y|` shape perform
/// zero heap allocations.
///
/// See the module header for the kernel. Every `(ord, j)` accumulator
/// receives its addends in increasing-`i` order and every power is the
/// same chain of multiplications as the element-at-a-time loop, so the
/// sketch is bit-identical to it. The per-node mean stays the sequential
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
    let mut mu = [0f32; TILE];
    let mut carry = [[0f64; LANES]; TILE];
    for step in steps {
        assert_eq!(step.shape(), (n, c), "inconsistent step shapes");
        acc.clear();
        acc.resize(order * c, 0.0);
        if c == 0 {
            continue;
        }
        let data = step.as_slice();
        for t0 in (0..n).step_by(TILE) {
            let tile = t0..(t0 + TILE).min(n);
            let mu = &mut mu[..tile.len()];
            for (m, row) in mu.iter_mut().zip(data[tile.start * c..tile.end * c].chunks_exact(c)) {
                *m = match kind {
                    MomentKind::Central => row.iter().sum::<f32>() / c as f32,
                    MomentKind::Raw => 0.0,
                };
            }
            let full = c / LANES * LANES;
            for j0 in (0..full).step_by(LANES) {
                class_block::<true>(data, c, t0, j0, mu, order, acc, &mut carry);
            }
            if full < c {
                class_block::<false>(data, c, t0, full, mu, order, acc, &mut carry);
            }
        }
        let inv = 1.0 / n.max(1) as f64;
        for &a in acc.iter() {
            out.push((a * inv) as f32);
        }
    }
}

/// The [`LANES`] values of `data` from `r` on, of which the caller uses
/// the first `w`. A ragged block reads on into the next row — lanes that
/// are computed on and never stored — and only at the very end of `data`
/// copies its `w` values into a zeroed pad.
#[inline(always)]
fn lanes_at<const FULL: bool>(data: &[f32], r: usize, w: usize) -> [f32; LANES] {
    if FULL || r + LANES <= data.len() {
        data[r..r + LANES].try_into().expect("sliced to LANES")
    } else {
        let mut pad = [0f32; LANES];
        pad[..w].copy_from_slice(&data[r..r + w]);
        pad
    }
}

/// One tile's class block `j0..j0 + LANES` (`FULL`) or `j0..c` (the
/// ragged last block, padded to `LANES` lanes that are computed on and
/// never stored), through every order: [`ORDER_BLOCK`]-order pieces of
/// [`tile_orders`], each carrying its last power to the next in `carry`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn class_block<const FULL: bool>(
    data: &[f32],
    c: usize,
    t0: usize,
    j0: usize,
    mu: &[f32],
    order: usize,
    acc: &mut [f64],
    carry: &mut [[f64; LANES]; TILE],
) {
    let mut o0 = 0;
    while o0 < order {
        let ob = (order - o0).min(ORDER_BLOCK);
        let last = o0 + ob == order;
        match ob {
            1 => tile_orders::<1, FULL>(data, c, t0, j0, mu, o0, last, acc, carry),
            2 => tile_orders::<2, FULL>(data, c, t0, j0, mu, o0, last, acc, carry),
            3 => tile_orders::<3, FULL>(data, c, t0, j0, mu, o0, last, acc, carry),
            _ => tile_orders::<ORDER_BLOCK, FULL>(data, c, t0, j0, mu, o0, last, acc, carry),
        }
        o0 += ob;
    }
}

/// Adds orders `o0 + 1 ..= o0 + OB` of one tile's class block into `acc`
/// (see [`class_block`]). The `OB × LANES` accumulators are loaded once,
/// stay in registers across every row of the tile, and are stored once —
/// the element-at-a-time loop loaded and stored each one per row. A row's
/// block is centered to `v`; its running power `p` starts at `v` (first
/// block) or at the `v^(o0+1)` the previous block left in `carry`, and
/// goes through `acc += p; p *= v` once per order.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tile_orders<const OB: usize, const FULL: bool>(
    data: &[f32],
    c: usize,
    t0: usize,
    j0: usize,
    mu: &[f32],
    o0: usize,
    last: bool,
    acc: &mut [f64],
    carry: &mut [[f64; LANES]; TILE],
) {
    let w = if FULL { LANES } else { c - j0 };
    let mut a = [[0f64; LANES]; OB];
    for (q, aq) in a.iter_mut().enumerate() {
        let start = (o0 + q) * c + j0;
        aq[..w].copy_from_slice(&acc[start..start + w]);
    }
    for (i, (&m, pc)) in mu.iter().zip(carry.iter_mut()).enumerate() {
        let v = lanes_at::<FULL>(data, (t0 + i) * c + j0, w).map(|y| (y - m) as f64);
        let mut p = if o0 == 0 { v } else { *pc };
        for aq in a.iter_mut() {
            for l in 0..LANES {
                aq[l] += p[l];
                p[l] *= v[l];
            }
        }
        if !last {
            *pc = p;
        }
    }
    for (q, aq) in a.iter().enumerate() {
        let start = (o0 + q) * c + j0;
        acc[start..start + w].copy_from_slice(&aq[..w]);
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
            // Tile edges: empty, one row, one short of / exactly / one past a tile.
            for n in [0usize, 1, 63, 64, 65, 1000] {
                // Finite steps, then one salted with NaN / ±Inf / −0.0.
                let mut steps: Vec<Matrix> = (0..2)
                    .map(|s| {
                        let data =
                            (0..n * c).map(|i| ((s * 19 + i * 7) as f32 * 0.11).sin()).collect();
                        Matrix::from_vec(n, c, data)
                    })
                    .collect();
                let mut salted = steps[0].clone();
                for (i, v) in
                    salted.as_mut_slice().iter_mut().enumerate().filter(|(i, _)| i % 5 == 0)
                {
                    *v = special[i / 5 % special.len()];
                }
                steps.push(salted);
                // A row of −0.0 only: its mean and centered values are signed zeros.
                if n > 0 {
                    steps[0].row_mut(0).fill(-0.0);
                }
                // Every order-block edge: one block of 1–4, 4 + 1, 4 + 4, 4 + 4 + 1, five blocks.
                for order in [1usize, 2, 3, 4, 5, 8, 9, 20] {
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
