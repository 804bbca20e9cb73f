//! Dataset specifications mirroring the paper's Table 2.

/// Transductive vs inductive evaluation protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    /// Test nodes are present (unlabeled) in the training graph.
    Transductive,
    /// Test nodes and their edges are hidden during training.
    Inductive,
}

/// A synthetic stand-in specification for one paper dataset.
///
/// `nodes`/`features`/`classes` mirror Table 2 (large graphs scaled per
/// DESIGN.md §3.1); `avg_degree` mirrors the paper's `m/n` ratio capped at
/// 25 for the single-CPU budget.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Canonical lowercase name (e.g. `"cora"`).
    pub name: &'static str,
    /// Number of nodes.
    pub nodes: usize,
    /// Feature dimension.
    pub features: usize,
    /// Number of classes.
    pub classes: usize,
    /// Target mean undirected degree.
    pub avg_degree: f64,
    /// Fraction of nodes with training labels.
    pub train_frac: f64,
    /// Fraction for validation.
    pub val_frac: f64,
    /// Fraction for testing.
    pub test_frac: f64,
    /// Evaluation protocol.
    pub task: Task,
    /// Blocks (communities) per class in the generator.
    pub blocks_per_class: usize,
    /// Fraction of edges staying within a class (edge homophily target).
    pub homophily: f64,
    /// Short description matching the paper's Table 2.
    pub description: &'static str,
}

impl DatasetSpec {
    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), crate::DataError> {
        use crate::DataError::InvalidSpec;
        if self.classes == 0 {
            return Err(InvalidSpec("zero classes"));
        }
        if self.nodes < self.classes * self.blocks_per_class {
            return Err(InvalidSpec("fewer nodes than blocks"));
        }
        if !(0.0..=1.0).contains(&self.homophily) {
            return Err(InvalidSpec("homophily outside [0,1]"));
        }
        let s = self.train_frac + self.val_frac + self.test_frac;
        if s > 1.0 + 1e-9 {
            return Err(InvalidSpec("split fractions exceed 1"));
        }
        Ok(())
    }

    /// Total number of generator blocks.
    pub fn num_blocks(&self) -> usize {
        self.classes * self.blocks_per_class
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> DatasetSpec {
        DatasetSpec {
            name: "test",
            nodes: 100,
            features: 8,
            classes: 4,
            avg_degree: 6.0,
            train_frac: 0.2,
            val_frac: 0.4,
            test_frac: 0.4,
            task: Task::Transductive,
            blocks_per_class: 3,
            homophily: 0.8,
            description: "test",
        }
    }

    #[test]
    fn valid_spec_passes() {
        assert!(base().validate().is_ok());
        assert_eq!(base().num_blocks(), 12);
    }

    #[test]
    fn invalid_specs_rejected() {
        let mut s = base();
        s.classes = 0;
        assert!(s.validate().is_err());
        let mut s = base();
        s.homophily = 1.5;
        assert!(s.validate().is_err());
        let mut s = base();
        s.train_frac = 0.9;
        assert!(s.validate().is_err());
        let mut s = base();
        s.nodes = 5;
        assert!(s.validate().is_err());
    }
}
