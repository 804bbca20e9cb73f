//! Classification metrics: accuracy and macro-F1.

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

/// Macro-averaged F1 over `num_classes` classes, restricted to `rows`
/// (only those rows of `probs` are read).
/// Classes absent from the subset contribute F1 = 0 only if they were
/// predicted; truly absent classes are skipped (scikit-learn convention
/// with `zero_division=0` over present classes).
pub fn macro_f1(probs: &Matrix, labels: &[u32], rows: &[u32], num_classes: usize) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    let mut tp = vec![0usize; num_classes];
    let mut fp = vec![0usize; num_classes];
    let mut fnv = vec![0usize; num_classes];
    for &i in rows {
        let (p, y) = (probs.argmax_row(i as usize), labels[i as usize] as usize);
        if p == y {
            tp[y] += 1;
        } else {
            fp[p] += 1;
            fnv[y] += 1;
        }
    }
    let mut sum = 0f64;
    let mut present = 0usize;
    for c in 0..num_classes {
        let support = tp[c] + fnv[c];
        let predicted = tp[c] + fp[c];
        if support == 0 && predicted == 0 {
            continue;
        }
        present += 1;
        if tp[c] == 0 {
            continue;
        }
        let prec = tp[c] as f64 / predicted as f64;
        let rec = tp[c] as f64 / support as f64;
        sum += 2.0 * prec * rec / (prec + rec);
    }
    if present == 0 {
        0.0
    } else {
        sum / present as f64
    }
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
        assert!((macro_f1(&probs, &labels, &[0, 2], 2) - 1.0).abs() < 1e-12);
        // First-maximum tie rule.
        let tie = Matrix::from_rows(&[&[0.5, 0.5]]);
        assert_eq!(accuracy(&tie, &[0], &[0]), 1.0);
        assert_eq!(accuracy(&tie, &[1], &[0]), 0.0);
    }

    #[test]
    fn perfect_macro_f1_is_one() {
        let probs = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let labels = [0u32, 1];
        assert!((macro_f1(&probs, &labels, &[0, 1], 2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn macro_f1_penalizes_minority_errors() {
        // 3 of class 0 correct, 1 of class 1 wrong: acc = 0.75 but macro-F1 lower.
        let probs = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 0.0], &[1.0, 0.0], &[1.0, 0.0]]);
        let labels = [0u32, 0, 0, 1];
        let acc = accuracy(&probs, &labels, &[0, 1, 2, 3]);
        let f1 = macro_f1(&probs, &labels, &[0, 1, 2, 3], 2);
        assert!(f1 < acc);
    }
}
