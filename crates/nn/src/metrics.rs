//! Classification metrics: accuracy.

use crate::tensor::Matrix;

/// Accuracy of `probs` (rows = nodes) against `labels`, restricted to
/// `rows` — only those rows of `probs` are read. Returns 0 on an empty
/// subset.
pub fn accuracy(probs: &Matrix, labels: &[u32], rows: &[u32]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    let correct = rows
        .iter()
        .filter(|&&i| probs.argmax_row(i as usize) == labels[i as usize] as usize)
        .count();
    correct as f64 / rows.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_matches() {
        let probs = Matrix::from_rows(&[&[0.9, 0.1], &[0.2, 0.8], &[0.6, 0.4]]);
        let labels = [0u32, 1, 1];
        assert_eq!(accuracy(&probs, &labels, &[0, 1, 2]), 2.0 / 3.0);
        assert_eq!(accuracy(&probs, &labels, &[0, 1]), 1.0);
        assert_eq!(accuracy(&probs, &labels, &[]), 0.0);
    }

    #[test]
    fn rows_outside_the_subset_do_not_matter() {
        // Row 1 is NaN (argmax would say class 0, a "correct" hit) and
        // row 3 would be a miss: neither is in `rows`, neither may count.
        let nan = f32::NAN;
        let probs = Matrix::from_rows(&[&[0.9, 0.1], &[nan, nan], &[0.2, 0.8], &[0.7, 0.3]]);
        let labels = [0u32, 0, 1, 1];
        assert_eq!(accuracy(&probs, &labels, &[0, 2]), 1.0);
        // First-maximum tie rule.
        let tie = Matrix::from_rows(&[&[0.5, 0.5]]);
        assert_eq!(accuracy(&tie, &[0], &[0]), 1.0);
        assert_eq!(accuracy(&tie, &[1], &[0]), 0.0);
    }
}
