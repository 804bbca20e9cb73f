//! Local smoothing confidence (paper Eq. 4).
//!
//! `H = Σᵢ Σⱼ D̂ᵢᵢ ( e⁻¹ − (−Ŷᵏᵢⱼ log Ŷᵏᵢⱼ) )`.
//!
//! The function `p ↦ −p ln p` attains its maximum `e⁻¹` at `p = e⁻¹`, so
//! each summand is non-negative: confident (low-entropy) predictions push
//! `H` up, and high-degree nodes — whose smoothness reflects more of the
//! topology — count more. `H ≥ 0` always. Zero and negative entries score
//! zero entropy; a **NaN entry makes `H` NaN** (a diverged client must not
//! come out as the most confident one and take Eq. 7's heaviest weight).
//!
//! ## Kernel
//!
//! The logarithm is a private `f64` kernel in plain `*`/`+`/`/` (no libm
//! call, no `mul_add`: the bits do not depend on the host's libc or FMA
//! support) — the branch-free main path of fdlibm's `e_log`
//! (`s = f/(2+f)`, `Lg1…Lg7`, < 1 ulp), which vectorizes 8 lanes wide. It
//! stays `f64` on purpose: the summands cancel against `e⁻¹`, and an
//! `f32` `logf` leaves `H` 1e-7 off zero where it must be 0 to 1e-9. The
//! matrix is walked as **flat** blocks of [`BLOCK`] elements (an
//! elementwise pass needs no row boundaries); the `f64` row sum is
//! carried across blocks in column order and the degree weighting in row
//! order, exactly as the scalar loop did.

use fedgta_nn::Matrix;

/// `e⁻¹`, the ceiling of `−p ln p` (the `f64` nearest to it).
const CEILING: f64 = 0.367_879_441_171_442_33;

/// Elements per flat block: 4 KiB of summands on the stack.
const BLOCK: usize = 512;

/// `ln x` for positive, normal or infinite `x`, after fdlibm `e_log`:
/// `x = 2ᵏ·(1+f)` with `√2/2 < 1+f < √2`, `s = f/(2+f)`,
/// `ln(1+f) = f − f²/2 + s·(f²/2 + R(s²))`, `R` the even polynomial
/// `Lg1…Lg7`; `k·ln 2` is added in two parts. `k` becomes a float by
/// or-ing it into the mantissa of `2⁵²` (no int→float conversion). An
/// `f32` widened to `f64` is never subnormal, so the exponent field is
/// `k` itself. For `x ≤ 0` or NaN the result is unspecified.
#[inline(always)]
fn ln(x: f64) -> f64 {
    const LN2_HI: f64 = 0.693_147_180_369_123_8;
    const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
    const LG1: f64 = 0.666_666_666_666_673_5;
    const LG2: f64 = 0.399_999_999_994_094_2;
    const LG3: f64 = 0.285_714_287_436_623_9;
    const LG4: f64 = 0.222_221_984_321_497_84;
    const LG5: f64 = 0.181_835_721_616_180_5;
    const LG6: f64 = 0.153_138_376_992_093_73;
    const LG7: f64 = 0.147_981_986_051_165_86;
    const MANTISSA: u64 = 0x000f_ffff_ffff_ffff;
    const ONE: u64 = 0x3ff0_0000_0000_0000;
    const HIDDEN: u64 = 0x0010_0000_0000_0000;
    // 2⁵², and 2⁵² + 1023 (the exponent bias).
    const TWO52: u64 = 0x4330_0000_0000_0000;
    const TWO52_BIAS: f64 = 4_503_599_627_371_519.0;
    let bits = x.to_bits();
    let mant = bits & MANTISSA;
    // The hidden bit where the mantissa is above √2: halve it, bump k.
    let up = (mant + 0x0009_5f64_0000_0000) & HIDDEN;
    let f = f64::from_bits(mant | (up ^ ONE)) - 1.0;
    let k = f64::from_bits(TWO52 | ((bits >> 52) + (up >> 52))) - TWO52_BIAS;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let hfsq = 0.5 * f * f;
    k * LN2_HI - ((hfsq - (s * (hfsq + (t2 + t1)) + k * LN2_LO)) - f)
}

/// One Eq. 4 summand `e⁻¹ − (−p ln p)`: `p ≤ 0` scores zero entropy, NaN
/// yields NaN (every comparison on it is false, and `NaN · x` is NaN
/// whatever [`ln`] made of it).
#[inline(always)]
fn summand(p: f32) -> f64 {
    let p = p as f64;
    let ent = if p <= 0.0 { 0.0 } else { -p * ln(p) };
    CEILING - ent
}

/// Computes `H` for the final propagated soft labels `y_k` with node
/// degrees `degrees_hat` (`D̂ᵢᵢ`, degree including self-loop).
pub fn local_smoothing_confidence(y_k: &Matrix, degrees_hat: &[f32]) -> f64 {
    assert_eq!(y_k.rows(), degrees_hat.len(), "degree length mismatch");
    let cols = y_k.cols();
    let mut h = 0f64;
    // The row whose summands are being added, carried across blocks.
    let (mut row, mut col, mut row_sum) = (0usize, 0usize, 0f64);
    let mut terms = [0f64; BLOCK];
    for block in y_k.as_slice().chunks(BLOCK) {
        for (t, &p) in terms.iter_mut().zip(block) {
            *t = summand(p);
        }
        let mut rest = &terms[..block.len()];
        while !rest.is_empty() {
            let (head, next) = rest.split_at(rest.len().min(cols - col));
            for &t in head {
                row_sum += t;
            }
            col += head.len();
            if col == cols {
                h += degrees_hat[row] as f64 * row_sum;
                (row, col, row_sum) = (row + 1, 0, 0.0);
            }
            rest = next;
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confidence_is_nonnegative() {
        // Even the worst-case entropy (p = e⁻¹ per entry) gives H = 0.
        let p = (-1.0f32).exp();
        let y = Matrix::from_vec(2, 3, vec![p; 6]);
        let h = local_smoothing_confidence(&y, &[2.0, 3.0]);
        assert!(h.abs() < 1e-9, "h = {h}");
    }

    #[test]
    fn one_hot_predictions_maximize_confidence() {
        let onehot = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let uniform = Matrix::from_vec(2, 2, vec![0.5; 4]);
        let deg = vec![2.0, 2.0];
        let h1 = local_smoothing_confidence(&onehot, &deg);
        let h2 = local_smoothing_confidence(&uniform, &deg);
        assert!(h1 > h2, "onehot {h1} vs uniform {h2}");
    }

    #[test]
    fn degrees_weight_the_sum() {
        let y = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 0.0]]);
        let h_light = local_smoothing_confidence(&y, &[1.0, 1.0]);
        let h_heavy = local_smoothing_confidence(&y, &[5.0, 5.0]);
        assert!((h_heavy - 5.0 * h_light).abs() < 1e-9);
    }

    #[test]
    fn empty_matrix_gives_zero() {
        let y = Matrix::zeros(0, 3);
        assert_eq!(local_smoothing_confidence(&y, &[]), 0.0);
    }

    #[test]
    fn a_nan_soft_label_makes_h_nan_not_maximal() {
        // Before: NaN fell down the `else` arm of `if p > 0.0`, scored zero
        // entropy, and a diverged client got the largest finite H.
        let onehot = Matrix::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0]]);
        let mut poisoned = onehot.clone();
        poisoned.set(1, 2, f32::NAN);
        let deg = [2.0, 3.0];
        assert!(local_smoothing_confidence(&onehot, &deg).is_finite());
        assert!(local_smoothing_confidence(&poisoned, &deg).is_nan());
        // Zero and negative entries still score zero entropy.
        let clipped = Matrix::from_rows(&[&[1.0, -0.0, -1e-3], &[0.0, 1.0, f32::NEG_INFINITY]]);
        assert_eq!(
            local_smoothing_confidence(&clipped, &deg).to_bits(),
            local_smoothing_confidence(&onehot, &deg).to_bits()
        );
    }

    /// Fidelity pin for Eq. 4: a 3 × 3 `Ŷᵏ` with degrees `D̂ = (2, 3, 1)`,
    /// every summand `e⁻¹ − (−p ln p)` by hand (`e⁻¹ = 0.367879441171442322`,
    /// `ln 2 = 0.693147180559945309`, `ln ¾ = −0.287682072451780927`):
    ///
    /// ```text
    /// row 0, D̂ = 2: p = (½, ¼, ¼)
    ///   −½ ln ½ = ½ ln 2        = 0.346573590279972655
    ///   −¼ ln ¼ = ¼ · 2 ln 2    = 0.346573590279972655
    ///   each summand e⁻¹ − 0.346573590279972655 = 0.021305850891469667
    ///   row sum 0.063917552674409001, × 2       = 0.127835105348818001
    /// row 1, D̂ = 3: p = (1, 0, 0)
    ///   −1 ln 1 = 0; a zero entry scores zero entropy
    ///   each summand e⁻¹; row sum 1.103638323514326965, × 3
    ///                                           = 3.310914970542980894
    /// row 2, D̂ = 1: p = (⅛, ⅛, ¾)
    ///   −⅛ ln ⅛ = ⅛ · 3 ln 2    = 0.259930192709979491 → 0.107949248461462831
    ///   −¾ ln ¾ = ¾ · 0.2876…   = 0.215761554338835696 → 0.152117886832606626
    ///   row sum 2 · 0.107949248461462831 + 0.152117886832606626, × 1
    ///                                           = 0.368016383755532287
    /// H = 0.127835105348818001 + 3.310914970542980894 + 0.368016383755532287
    ///   = 3.806766459647331183
    /// ```
    #[test]
    fn worked_example_matches_the_hand_derivation() {
        let y = Matrix::from_rows(&[&[0.5, 0.25, 0.25], &[1.0, 0.0, 0.0], &[0.125, 0.125, 0.75]]);
        let h = local_smoothing_confidence(&y, &[2.0, 3.0, 1.0]);
        assert!((h - 3.806_766_459_647_331).abs() < 1e-12, "H = {h:.18}");
    }

    /// Every `stride`-th positive `f32` up to 1.0, subnormals included.
    fn probabilities(stride: usize) -> impl Iterator<Item = f32> {
        (1..=1f32.to_bits()).step_by(stride).chain([1f32.to_bits()]).map(f32::from_bits)
    }

    #[test]
    fn ln_is_within_one_ulp_of_libm_on_f32_probabilities() {
        let mut worst = 0u64;
        for p in probabilities(1021) {
            let (got, want) = (ln(p as f64), (p as f64).ln());
            let ulp = got.to_bits().abs_diff(want.to_bits());
            assert!(ulp <= 1, "ln({p:e}) = {got:e}, libm {want:e}");
            worst = worst.max(ulp);
        }
        assert_eq!(ln(1.0).to_bits(), 0f64.to_bits());
        assert_eq!(ln(f64::INFINITY), 1024.0 * std::f64::consts::LN_2);
        eprintln!("ln sweep: worst {worst} ulp");
    }

    #[test]
    fn ln_goldens_hold_on_any_host() {
        let goldens: [(f32, u64); 12] = [
            (1e-45, 0xc059_d1d9_fccf_4770),
            (1e-40, 0xc057_069e_413e_07a0),
            (f32::MIN_POSITIVE, 0xc055_d589_f2fe_5107),
            (1e-20, 0xc047_069e_2ae6_d092),
            (1e-7, 0xc030_1e3b_840c_7973),
            (0.001, 0xc01b_a18a_965f_ffa2),
            (0.1, 0xc002_6bb1_b9b5_5516),
            (0.367_879_45, 0xbfef_ffff_f2a5_abea),
            (0.5, 0xbfe6_2e42_fefa_39ef),
            (0.75, 0xbfd2_6962_1134_db92),
            (0.9, 0xbfba_f8e8_92d1_5de8),
            (0.999_999_94, 0xbe70_0000_0800_0005),
        ];
        for (p, want) in goldens {
            let got = ln(p as f64).to_bits();
            assert_eq!(got, want, "ln({p:e}) = {got:#018x}");
        }
        assert_eq!(CEILING.to_bits(), 0x3fd7_8b56_362c_ef38);
    }

    /// The scalar row loop the blocked walk replaced, on the same summand.
    fn row_loop(y_k: &Matrix, degrees_hat: &[f32]) -> f64 {
        let mut h = 0f64;
        for (i, &deg) in degrees_hat.iter().enumerate() {
            let mut row_sum = 0f64;
            for &p in y_k.row(i) {
                row_sum += summand(p);
            }
            h += deg as f64 * row_sum;
        }
        h
    }

    #[test]
    fn flat_blocks_carry_the_row_sum_exactly_like_the_row_loop() {
        // Rows shorter than a vector, straddling blocks, longer than a
        // whole block; totals that end on and off a block boundary.
        for cols in [1usize, 7, 16, 40, 513, 1100] {
            for rows in [1usize, 3, 64, 73, 129] {
                let y = Matrix::from_vec(
                    rows,
                    cols,
                    (0..rows * cols)
                        .map(|i| match i % 11 {
                            0 => 0.0,
                            1 => -0.25,
                            r => ((i * 7919 + r) % 1000) as f32 / 1000.0,
                        })
                        .collect(),
                );
                let deg: Vec<f32> = (0..rows).map(|i| (i % 5 + 1) as f32).collect();
                assert_eq!(
                    local_smoothing_confidence(&y, &deg).to_bits(),
                    row_loop(&y, &deg).to_bits(),
                    "{rows} x {cols}"
                );
            }
        }
    }
}
