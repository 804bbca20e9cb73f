//! Stratified train/val/test node splits.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A train/val/test split over node ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Split {
    /// Labeled training nodes.
    pub train: Vec<u32>,
    /// Validation nodes.
    pub val: Vec<u32>,
    /// Test nodes.
    pub test: Vec<u32>,
}

/// Stratified split: within each class, nodes are shuffled and divided
/// `train_frac / val_frac / test_frac` (remainder unassigned, matching
/// specs whose fractions do not sum to 1). Every class with at least 3
/// nodes contributes at least one node to each non-zero part.
pub fn stratified_split(
    labels: &[u32],
    num_classes: usize,
    train_frac: f64,
    val_frac: f64,
    test_frac: f64,
    seed: u64,
) -> Split {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut by_class: Vec<Vec<u32>> = vec![Vec::new(); num_classes];
    for (v, &c) in labels.iter().enumerate() {
        by_class[c as usize].push(v as u32);
    }
    let mut split = Split { train: Vec::new(), val: Vec::new(), test: Vec::new() };
    for nodes in by_class.iter_mut() {
        if nodes.is_empty() {
            continue;
        }
        nodes.shuffle(&mut rng);
        let n = nodes.len();
        let mut n_train = (train_frac * n as f64).round() as usize;
        let mut n_val = (val_frac * n as f64).round() as usize;
        let mut n_test = (test_frac * n as f64).round() as usize;
        // Guarantee representation when fractions are non-zero and the
        // class is large enough.
        if train_frac > 0.0 && n_train == 0 && n >= 3 {
            n_train = 1;
        }
        if val_frac > 0.0 && n_val == 0 && n >= 3 {
            n_val = 1;
        }
        if test_frac > 0.0 && n_test == 0 && n >= 3 {
            n_test = 1;
        }
        while n_train + n_val + n_test > n {
            // Trim the largest part.
            if n_test >= n_val && n_test >= n_train && n_test > 0 {
                n_test -= 1;
            } else if n_val >= n_train && n_val > 0 {
                n_val -= 1;
            } else {
                n_train -= 1;
            }
        }
        split.train.extend_from_slice(&nodes[..n_train]);
        split.val.extend_from_slice(&nodes[n_train..n_train + n_val]);
        split.test.extend_from_slice(&nodes[n_train + n_val..n_train + n_val + n_test]);
    }
    split.train.sort_unstable();
    split.val.sort_unstable();
    split.test.sort_unstable();
    split
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_respected() {
        let labels: Vec<u32> = (0..1000).map(|i| (i % 4) as u32).collect();
        let s = stratified_split(&labels, 4, 0.2, 0.4, 0.4, 0);
        assert_eq!(s.train.len(), 200);
        assert_eq!(s.val.len(), 400);
        assert_eq!(s.test.len(), 400);
    }

    #[test]
    fn parts_are_disjoint_and_stratified() {
        let labels: Vec<u32> = (0..400).map(|i| (i % 5) as u32).collect();
        let s = stratified_split(&labels, 5, 0.3, 0.3, 0.4, 7);
        let mut all: Vec<u32> = s.train.iter().chain(&s.val).chain(&s.test).copied().collect();
        let before = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), before, "overlapping parts");
        // Each class appears in train.
        for c in 0..5u32 {
            assert!(s.train.iter().any(|&v| labels[v as usize] == c));
        }
    }

    #[test]
    fn partial_fractions_leave_remainder() {
        let labels: Vec<u32> = (0..100).map(|i| (i % 2) as u32).collect();
        let s = stratified_split(&labels, 2, 0.1, 0.05, 0.5, 1);
        assert!(s.train.len() + s.val.len() + s.test.len() < 100);
    }

    #[test]
    fn small_classes_still_represented() {
        // One class of 3 nodes among a big one.
        let mut labels = vec![0u32; 97];
        labels.extend_from_slice(&[1, 1, 1]);
        let s = stratified_split(&labels, 2, 0.2, 0.2, 0.2, 3);
        assert!(s.train.iter().any(|&v| labels[v as usize] == 1));
        assert!(s.test.iter().any(|&v| labels[v as usize] == 1));
    }

    #[test]
    fn deterministic() {
        let labels: Vec<u32> = (0..200).map(|i| (i % 3) as u32).collect();
        let a = stratified_split(&labels, 3, 0.2, 0.4, 0.4, 5);
        let b = stratified_split(&labels, 3, 0.2, 0.4, 0.4, 5);
        assert_eq!(a, b);
    }
}
