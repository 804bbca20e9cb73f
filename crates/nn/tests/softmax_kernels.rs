//! The libm-free soft-label path, by `to_bits`: the vectorized `exp` kernel
//! against the correctly rounded result and against pinned goldens (the
//! point of dropping libm is that these hold on any host), the blocked
//! `softmax_rows_inplace` against the scalar row loop it replaced (with the
//! kernel's `exp` substituted), `softmax_ce` on a row subset against
//! softmax-everything-then-select, and the copy-free `Mlp::infer_ws`
//! against the caching forward pass.

use fedgta_nn::loss::softmax_ce;
use fedgta_nn::ops::{exp_nonpos_inplace, softmax_rows, softmax_rows_inplace};
use fedgta_nn::{Matrix, Mlp, Workspace};

fn gen(r: usize, c: usize, seed: u64) -> Matrix {
    Matrix::from_vec(
        r,
        c,
        (0..r * c)
            .map(|i| {
                (((i as u64).wrapping_mul(2654435761).wrapping_add(seed * 7919) % 9973) as f32
                    / 415.0)
                    - 12.0
            })
            .collect(),
    )
}

fn bits(m: &[f32]) -> Vec<u32> {
    m.iter().map(|v| v.to_bits()).collect()
}

/// The kernel on one value (the loop's scalar remainder).
fn kexp(x: f32) -> f32 {
    let mut one = [x];
    exp_nonpos_inplace(&mut one);
    one[0]
}

/// The last input whose correctly rounded `e^x` is a normal `f32`
/// (−87.336 54), and the first one below it (−87.336 55).
const LAST_NORMAL: u32 = 0xc2ae_ac4f;
const FIRST_FLUSHED: u32 = 0xc2ae_ac50;

#[test]
fn exp_is_within_one_ulp_of_the_correctly_rounded_result() {
    // Every 509th f32 from −0.0 down to the last normal result, 2048 at a
    // time so the vector body and the scalar remainder are both exercised.
    let (lo, stride) = ((-0.0f32).to_bits(), 509usize);
    let inputs: Vec<f32> =
        (lo..=LAST_NORMAL).step_by(stride).chain([LAST_NORMAL]).map(f32::from_bits).collect();
    let mut worst = 0u32;
    for xs in inputs.chunks(2048 + 5) {
        let mut ys = xs.to_vec();
        exp_nonpos_inplace(&mut ys);
        for (&x, &y) in xs.iter().zip(&ys) {
            let want = (x as f64).exp() as f32;
            assert!(want >= f32::MIN_POSITIVE, "x = {x:?} is outside the sweep");
            let ulp = y.to_bits().abs_diff(want.to_bits());
            assert!(ulp <= 1, "exp({x:?}) = {y:e}, correctly rounded {want:e}");
            worst = worst.max(ulp);
        }
    }
    assert!(inputs.len() > 2_000_000);
    eprintln!("exp sweep: {} inputs, worst {worst} ulp", inputs.len());
}

#[test]
fn exp_special_values() {
    assert_eq!(kexp(0.0).to_bits(), 1f32.to_bits());
    assert_eq!(kexp(-0.0).to_bits(), 1f32.to_bits());
    // The smallest normal result, then +0 (never a subnormal, never −0).
    assert!(kexp(f32::from_bits(LAST_NORMAL)) >= f32::MIN_POSITIVE);
    assert_eq!(f32::from_bits(FIRST_FLUSHED), -87.33655);
    for x in [f32::from_bits(FIRST_FLUSHED), -87.5, -88.0, -100.0, -1e30, f32::NEG_INFINITY] {
        assert_eq!(kexp(x).to_bits(), 0, "exp({x:?})");
    }
    assert!(kexp(f32::NAN).is_nan());
    // A NaN leaves its neighbours alone.
    let mut block = [-1.0f32; 16];
    block[5] = f32::NAN;
    exp_nonpos_inplace(&mut block);
    assert!(block[5].is_nan());
    assert!(block.iter().enumerate().all(|(i, v)| i == 5 || v.to_bits() == block[0].to_bits()));
}

#[test]
fn exp_goldens_hold_on_any_host() {
    let goldens: [(f32, u32); 12] = [
        (-1.0e-7, 0x3f7f_fffe),
        (-0.001, 0x3f7f_be7f),
        (-0.1, 0x3f67_a36d),
        (-0.346_573_6, 0x3f35_04f3),
        (-0.5, 0x3f1b_4598),
        (-1.0, 0x3ebc_5ab2),
        (-2.5, 0x3da8_1c2e),
        (-10.0, 0x383e_6bce),
        (-20.75, 0x3085_d036),
        (-50.0, 0x1b69_2beb),
        (-80.125, 0x05a9_5f7b),
        (-87.3, 0x0084_c38b),
    ];
    for (x, want) in goldens {
        assert_eq!(kexp(x).to_bits(), want, "exp({x:?}) = {:#010x}", kexp(x).to_bits());
    }
}

/// The row loop `softmax_rows_inplace` replaced, with the kernel's `exp`
/// in place of libm's.
fn softmax_reference(x: &Matrix) -> Matrix {
    let mut out = x.clone();
    for i in 0..out.rows() {
        let row = out.row_mut(i);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0f32;
        for v in row.iter_mut() {
            *v = kexp(*v - max);
            sum += *v;
        }
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
    out
}

#[test]
fn blocked_softmax_matches_the_row_loop_bitwise() {
    for cols in [1usize, 7, 15, 16, 17, 40] {
        for rows in [0usize, 1, 63, 64, 65, 1000] {
            let x = gen(rows, cols, (rows * 41 + cols) as u64);
            let mut got = x.clone();
            softmax_rows_inplace(&mut got);
            assert_eq!(
                bits(got.as_slice()),
                bits(softmax_reference(&x).as_slice()),
                "{rows} x {cols}"
            );
        }
    }
}

#[test]
fn softmax_rows_with_infinities_and_nan_come_out_nan() {
    let (inf, nan) = (f32::INFINITY, f32::NAN);
    let x = Matrix::from_rows(&[
        &[-inf, -inf, -inf],
        &[1.0, inf, 2.0],
        &[1.0, nan, 2.0],
        &[1.0, -inf, 2.0],
        &[-0.0, 0.0, -0.0],
    ]);
    let mut got = x.clone();
    softmax_rows_inplace(&mut got);
    for i in 0..3 {
        assert!(got.row(i).iter().all(|v| v.is_nan()), "row {i}: {:?}", got.row(i));
    }
    // A −∞ logit is an exact zero probability, and the row stays finite.
    assert_eq!(got.get(3, 1).to_bits(), 0);
    assert!((got.get(3, 0) + got.get(3, 2) - 1.0).abs() < 1e-6);
    // Zeros of either sign are one maximum.
    assert_eq!(bits(got.row(4)), bits(&[1.0 / 3.0; 3]));
    assert_eq!(bits(got.as_slice()[9..].as_ref()), bits(&softmax_reference(&x).as_slice()[9..]));
}

#[test]
fn softmax_ce_on_a_subset_is_softmax_everything_then_select() {
    let (n, c) = (300usize, 7usize);
    let logits = gen(n, c, 5);
    let labels: Vec<u32> = (0..n as u32).map(|i| (i * 5 + 1) % c as u32).collect();
    let subsets: [Vec<u32>; 4] = [
        (0..n as u32).collect(),
        (0..n as u32).filter(|i| i % 3 == 0).collect(),
        // Runs longer than one softmax block, a gap, a descending tail.
        (10..150).chain(200..203).chain([299, 7, 5]).collect(),
        vec![42],
    ];
    for rows in &subsets {
        let (loss, grad) = softmax_ce(&logits, &labels, rows);
        let probs = softmax_rows(&logits);
        let inv = 1.0 / rows.len() as f32;
        let mut want = Matrix::zeros(n, c);
        let mut want_loss = 0f64;
        for &i in rows {
            let (i, y) = (i as usize, labels[i as usize] as usize);
            want_loss += -(probs.get(i, y).max(1e-12) as f64).ln();
            for (g, &p) in want.row_mut(i).iter_mut().zip(probs.row(i)) {
                *g = p * inv;
            }
            want.row_mut(i)[y] -= inv;
        }
        assert_eq!(bits(grad.as_slice()), bits(want.as_slice()), "{} rows", rows.len());
        assert_eq!(loss.to_bits(), ((want_loss / rows.len() as f64) as f32).to_bits());
        let selected: std::collections::HashSet<u32> = rows.iter().copied().collect();
        for i in (0..n as u32).filter(|i| !selected.contains(i)) {
            assert!(grad.row(i as usize).iter().all(|v| v.to_bits() == 0), "row {i}");
        }
    }
}

#[test]
fn infer_ws_matches_the_caching_forward_pass_and_leaves_x_alone() {
    for dims in [&[6usize, 4][..], &[6, 9, 4], &[6, 9, 5, 4]] {
        let mut mlp = Mlp::new(dims, 0.5, 17);
        let x = gen(37, 6, 3);
        let before = bits(x.as_slice());
        let mut ws = Workspace::new();
        for _ in 0..2 {
            let inferred = mlp.infer_ws(x.view(), &mut ws);
            let (logits, cache) = mlp.forward_ws(x.clone(), false, &mut ws);
            assert_eq!(bits(inferred.as_slice()), bits(logits.as_slice()), "dims {dims:?}");
            assert_eq!(bits(mlp.infer(&x).as_slice()), bits(logits.as_slice()));
            cache.recycle(&mut ws);
            ws.give_matrix(logits);
            ws.give_matrix(inferred);
        }
        assert_eq!(bits(x.as_slice()), before);
    }
    // A linear head leaves nothing behind in the pool: no copy of the input.
    let mut cold = Workspace::new();
    Mlp::new(&[6, 4], 0.0, 1).infer_ws(gen(37, 6, 3).view(), &mut cold);
    assert_eq!(cold.pooled(), 0);
}
