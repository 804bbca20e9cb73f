//! Softmax cross-entropy losses with exact gradients.
//!
//! Both hard-label CE (supervised training on the labeled set) and
//! soft-target CE (FedGL's pseudo-label supervision) are computed over an
//! explicit row subset, returning the mean loss and the full-shape logits
//! gradient (zero outside the subset) — ready to feed straight into
//! [`crate::mlp::Mlp::backward`]. The `_into` forms write the gradient
//! into a zeroed matrix of the caller's, which a trainer checks out of its
//! workspace and gives back.

use crate::ops::{softmax_block, SOFTMAX_ROWS};
use crate::tensor::Matrix;

/// For every `i` in `rows`: writes `softmax(logits[i,·])` into `out[i,·]`
/// and hands that row to `finish(i, row)`; rows not selected are left
/// untouched — the softmax runs on the selected rows only, straight into
/// the caller's (gradient) matrix. Consecutive indices are batched into
/// runs of up to [`SOFTMAX_ROWS`] rows, so a dense selection exponentiates
/// flat blocks rather than single rows.
fn softmax_selected(
    logits: &Matrix,
    rows: &[u32],
    out: &mut Matrix,
    mut finish: impl FnMut(usize, &mut [f32]),
) {
    let cols = logits.cols();
    if cols == 0 {
        return;
    }
    let mut t = 0;
    while t < rows.len() {
        let first = rows[t] as usize;
        let mut len = 1;
        while len < SOFTMAX_ROWS && t + len < rows.len() && rows[t + len] as usize == first + len {
            len += 1;
        }
        let span = first * cols..(first + len) * cols;
        let block = &mut out.as_mut_slice()[span.clone()];
        block.copy_from_slice(&logits.as_slice()[span]);
        softmax_block(block, cols);
        for (k, row) in block.chunks_exact_mut(cols).enumerate() {
            finish(first + k, row);
        }
        t += len;
    }
}

/// Hard-label softmax cross-entropy over `rows`.
///
/// Returns `(mean_loss, d_logits)` where `d_logits[i,·] =
/// (softmax(logits[i,·]) − onehot(labels[i])) / |rows|` for selected rows
/// and zero elsewhere.
pub fn softmax_ce(logits: &Matrix, labels: &[u32], rows: &[u32]) -> (f32, Matrix) {
    let mut grad = Matrix::zeros(logits.rows(), logits.cols());
    (softmax_ce_into(logits, labels, rows, &mut grad), grad)
}

/// [`softmax_ce`] with `d_logits` written into `grad`, a zeroed matrix of
/// `logits`' shape (a trainer checks it out of its workspace); returns the
/// mean loss.
pub fn softmax_ce_into(logits: &Matrix, labels: &[u32], rows: &[u32], grad: &mut Matrix) -> f32 {
    assert_eq!(logits.rows(), labels.len(), "labels length mismatch");
    assert_eq!(logits.shape(), grad.shape(), "gradient shape mismatch");
    if rows.is_empty() {
        return 0.0;
    }
    let inv = 1.0 / rows.len() as f32;
    let mut loss = 0f64;
    softmax_selected(logits, rows, grad, |i, g| {
        let y = labels[i] as usize;
        debug_assert!(y < g.len(), "label out of range");
        loss += -(g[y].max(1e-12) as f64).ln();
        for gj in g.iter_mut() {
            *gj *= inv;
        }
        g[y] -= inv;
    });
    (loss / rows.len() as f64) as f32
}

/// Soft-target cross-entropy over `rows`, scaled by `weight`, with the
/// logits gradient written into `grad`, a zeroed matrix of `logits`' shape.
///
/// `targets(i)` is logits row `i`'s target, a probability vector. Returns
/// the weighted mean loss; `grad[i,·] = weight · (softmax − target) /
/// |rows|` on selected rows.
pub fn soft_ce_into<'t>(
    logits: &Matrix,
    targets: impl Fn(usize) -> &'t [f32],
    rows: &[u32],
    weight: f32,
    grad: &mut Matrix,
) -> f32 {
    assert_eq!(logits.shape(), grad.shape(), "gradient shape mismatch");
    if rows.is_empty() || weight == 0.0 {
        return 0.0;
    }
    let inv = weight / rows.len() as f32;
    let mut loss = 0f64;
    softmax_selected(logits, rows, grad, |i, g| {
        let target = targets(i);
        assert_eq!(target.len(), g.len(), "target width mismatch");
        let mut row_loss = 0f64;
        for (gj, &tj) in g.iter_mut().zip(target) {
            let pj = *gj;
            *gj = inv * (pj - tj);
            if tj > 0.0 {
                row_loss += -(tj as f64) * (pj.max(1e-12) as f64).ln();
            }
        }
        loss += row_loss;
    });
    (weight as f64 * loss / rows.len() as f64) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn soft_ce(logits: &Matrix, targets: &Matrix, rows: &[u32], weight: f32) -> (f32, Matrix) {
        let mut grad = Matrix::zeros(logits.rows(), logits.cols());
        (soft_ce_into(logits, |i| targets.row(i), rows, weight, &mut grad), grad)
    }

    #[test]
    fn perfect_prediction_has_low_loss_small_grad() {
        let logits = Matrix::from_rows(&[&[10.0, -10.0], &[-10.0, 10.0]]);
        let (loss, grad) = softmax_ce(&logits, &[0, 1], &[0, 1]);
        assert!(loss < 1e-6);
        assert!(grad.as_slice().iter().all(|g| g.abs() < 1e-6));
    }

    #[test]
    fn uniform_logits_loss_is_log_c() {
        let logits = Matrix::zeros(1, 4);
        let (loss, _) = softmax_ce(&logits, &[2], &[0]);
        assert!((loss - (4f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn grad_zero_outside_mask() {
        let logits = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 0.5]]);
        let (_, grad) = softmax_ce(&logits, &[0, 1], &[1]);
        assert_eq!(grad.row(0), &[0.0, 0.0]);
        assert!(grad.row(1).iter().any(|&v| v != 0.0));
    }

    #[test]
    fn ce_gradient_matches_finite_differences() {
        let logits = Matrix::from_rows(&[&[0.3, -0.7, 1.2], &[0.1, 0.4, -0.2]]);
        let labels = [2u32, 0];
        let rows = [0u32, 1];
        let (_, grad) = softmax_ce(&logits, &labels, &rows);
        let eps = 1e-3f32;
        for i in 0..2 {
            for j in 0..3 {
                let mut lp = logits.clone();
                lp.set(i, j, lp.get(i, j) + eps);
                let (up, _) = softmax_ce(&lp, &labels, &rows);
                let mut lm = logits.clone();
                lm.set(i, j, lm.get(i, j) - eps);
                let (dn, _) = softmax_ce(&lm, &labels, &rows);
                let fd = (up - dn) / (2.0 * eps);
                assert!((fd - grad.get(i, j)).abs() < 1e-3, "fd {fd} vs grad {}", grad.get(i, j));
            }
        }
    }

    #[test]
    fn soft_ce_gradient_matches_finite_differences() {
        let logits = Matrix::from_rows(&[&[0.5, -0.5], &[1.0, 0.0]]);
        let targets = Matrix::from_rows(&[&[0.7, 0.3], &[0.2, 0.8]]);
        let rows = [0u32, 1];
        let w = 0.5;
        let (_, grad) = soft_ce(&logits, &targets, &rows, w);
        let eps = 1e-3f32;
        for i in 0..2 {
            for j in 0..2 {
                let mut lp = logits.clone();
                lp.set(i, j, lp.get(i, j) + eps);
                let (up, _) = soft_ce(&lp, &targets, &rows, w);
                let mut lm = logits.clone();
                lm.set(i, j, lm.get(i, j) - eps);
                let (dn, _) = soft_ce(&lm, &targets, &rows, w);
                let fd = (up - dn) / (2.0 * eps);
                assert!((fd - grad.get(i, j)).abs() < 1e-3, "fd {fd} vs grad {}", grad.get(i, j));
            }
        }
    }

    #[test]
    fn empty_rows_return_zero() {
        let logits = Matrix::zeros(2, 3);
        let (loss, grad) = softmax_ce(&logits, &[0, 1], &[]);
        assert_eq!(loss, 0.0);
        assert!(grad.as_slice().iter().all(|&g| g == 0.0));
        let t = Matrix::zeros(2, 3);
        let (loss, _) = soft_ce(&logits, &t, &[], 1.0);
        assert_eq!(loss, 0.0);
    }
}
