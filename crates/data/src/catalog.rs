//! The 12-dataset catalog mirroring the paper's Table 2 (DESIGN.md §3.1
//! records the scaling of the large graphs).

use crate::features::{class_features, FeatureConfig};
use crate::sbm::{generate_sbm, SbmConfig};
use crate::spec::{DatasetSpec, Task};
use crate::splits::{stratified_split, Split};
use crate::DataError;
use fedgta_graph::Csr;
use fedgta_nn::{GraphDataset, Matrix};

/// All 12 dataset specifications.
pub const SPECS: &[DatasetSpec] = &[
    DatasetSpec {
        name: "cora",
        nodes: 2708,
        features: 256,
        classes: 7,
        avg_degree: 4.0,
        train_frac: 0.2,
        val_frac: 0.4,
        test_frac: 0.4,
        task: Task::Transductive,
        blocks_per_class: 4,
        homophily: 0.81,
        description: "citation network",
    },
    DatasetSpec {
        name: "citeseer",
        nodes: 3327,
        features: 256,
        classes: 6,
        avg_degree: 2.8,
        train_frac: 0.2,
        val_frac: 0.4,
        test_frac: 0.4,
        task: Task::Transductive,
        blocks_per_class: 4,
        homophily: 0.74,
        description: "citation network",
    },
    DatasetSpec {
        name: "pubmed",
        nodes: 19717,
        features: 128,
        classes: 3,
        avg_degree: 4.5,
        train_frac: 0.2,
        val_frac: 0.4,
        test_frac: 0.4,
        task: Task::Transductive,
        blocks_per_class: 8,
        homophily: 0.80,
        description: "citation network",
    },
    DatasetSpec {
        name: "amazon-photo",
        nodes: 7487,
        features: 128,
        classes: 8,
        avg_degree: 25.0,
        train_frac: 0.2,
        val_frac: 0.4,
        test_frac: 0.4,
        task: Task::Transductive,
        blocks_per_class: 4,
        homophily: 0.83,
        description: "co-purchase graph",
    },
    DatasetSpec {
        name: "amazon-computer",
        nodes: 13381,
        features: 128,
        classes: 10,
        avg_degree: 25.0,
        train_frac: 0.2,
        val_frac: 0.4,
        test_frac: 0.4,
        task: Task::Transductive,
        blocks_per_class: 4,
        homophily: 0.78,
        description: "co-purchase graph",
    },
    DatasetSpec {
        name: "coauthor-cs",
        nodes: 18333,
        features: 128,
        classes: 15,
        avg_degree: 8.9,
        train_frac: 0.2,
        val_frac: 0.4,
        test_frac: 0.4,
        task: Task::Transductive,
        blocks_per_class: 3,
        homophily: 0.81,
        description: "co-authorship graph",
    },
    DatasetSpec {
        name: "coauthor-physics",
        nodes: 34493,
        features: 128,
        classes: 5,
        avg_degree: 14.4,
        train_frac: 0.2,
        val_frac: 0.4,
        test_frac: 0.4,
        task: Task::Transductive,
        blocks_per_class: 8,
        homophily: 0.87,
        description: "co-authorship graph",
    },
    DatasetSpec {
        name: "ogbn-arxiv",
        nodes: 40000,
        features: 128,
        classes: 40,
        avg_degree: 18.0,
        train_frac: 0.6,
        val_frac: 0.2,
        test_frac: 0.2,
        task: Task::Transductive,
        blocks_per_class: 3,
        homophily: 0.65,
        description: "citation network (scaled from 169,343 nodes)",
    },
    DatasetSpec {
        name: "ogbn-products",
        nodes: 60000,
        features: 100,
        classes: 47,
        avg_degree: 15.0,
        train_frac: 0.10,
        val_frac: 0.05,
        test_frac: 0.85,
        task: Task::Transductive,
        blocks_per_class: 3,
        homophily: 0.81,
        description: "co-purchase graph (scaled from 2.45M nodes)",
    },
    DatasetSpec {
        name: "ogbn-papers100m",
        nodes: 120000,
        features: 128,
        classes: 172,
        avg_degree: 10.0,
        train_frac: 0.70,
        val_frac: 0.12,
        test_frac: 0.09,
        task: Task::Transductive,
        blocks_per_class: 3,
        homophily: 0.70,
        description: "citation network (scaled from 111M nodes)",
    },
    DatasetSpec {
        name: "flickr",
        nodes: 30000,
        features: 128,
        classes: 7,
        avg_degree: 10.0,
        train_frac: 0.50,
        val_frac: 0.25,
        test_frac: 0.25,
        task: Task::Inductive,
        blocks_per_class: 6,
        homophily: 0.60,
        description: "image network (scaled from 89,250 nodes)",
    },
    DatasetSpec {
        name: "reddit",
        nodes: 50000,
        features: 128,
        classes: 41,
        avg_degree: 15.0,
        train_frac: 0.66,
        val_frac: 0.10,
        test_frac: 0.24,
        task: Task::Inductive,
        blocks_per_class: 3,
        homophily: 0.78,
        description: "social network (scaled from 232,965 nodes)",
    },
];

/// Looks up a spec by name.
pub fn spec_by_name(name: &str) -> Result<&'static DatasetSpec, DataError> {
    SPECS.iter().find(|s| s.name == name).ok_or_else(|| DataError::UnknownDataset(name.to_string()))
}

/// A generated global benchmark graph.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// The global undirected graph.
    pub graph: Csr,
    /// Node features.
    pub features: Matrix,
    /// Node class labels.
    pub labels: Vec<u32>,
    /// Number of classes.
    pub num_classes: usize,
    /// Ground-truth generator blocks (communities).
    pub blocks: Vec<u32>,
    /// Stratified node split.
    pub split: Split,
    /// The spec this benchmark was generated from.
    pub spec: DatasetSpec,
}

impl Benchmark {
    /// Wraps user-supplied real data (graph + features + labels) into a
    /// benchmark, computing a stratified split — the entry point for
    /// running the federation on graphs loaded via
    /// [`fedgta_graph::io::parse_edge_list_text`] instead of the synthetic
    /// generator. `blocks` default to labels (used only for reporting).
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        graph: Csr,
        features: Matrix,
        labels: Vec<u32>,
        num_classes: usize,
        train_frac: f64,
        val_frac: f64,
        test_frac: f64,
        seed: u64,
    ) -> Self {
        assert_eq!(graph.num_nodes(), features.rows(), "feature rows");
        assert_eq!(graph.num_nodes(), labels.len(), "label length");
        let split = stratified_split(&labels, num_classes, train_frac, val_frac, test_frac, seed);
        let spec = DatasetSpec {
            name: "user-data",
            nodes: graph.num_nodes(),
            features: features.cols(),
            classes: num_classes,
            avg_degree: graph.num_edges() as f64 / graph.num_nodes().max(1) as f64,
            train_frac,
            val_frac,
            test_frac,
            task: Task::Transductive,
            blocks_per_class: 1,
            homophily: 0.0, // unknown for user data
            description: "user-supplied graph",
        };
        let blocks = labels.clone();
        Benchmark { graph, features, labels, num_classes, blocks, split, spec }
    }

    /// Builds the full-graph [`GraphDataset`] (the "Global" centralized
    /// baseline of Table 3).
    pub fn to_dataset(&self) -> GraphDataset {
        GraphDataset::new(
            &self.graph,
            self.features.clone(),
            self.labels.clone(),
            self.num_classes,
            self.split.train.clone(),
            self.split.val.clone(),
            self.split.test.clone(),
        )
    }
}

/// Generates the named benchmark with the given seed.
pub fn load_benchmark(name: &str, seed: u64) -> Result<Benchmark, DataError> {
    let spec = spec_by_name(name)?.clone();
    Ok(generate_from_spec(&spec, seed))
}

/// Generates a benchmark from an arbitrary (possibly custom) spec.
pub fn generate_from_spec(spec: &DatasetSpec, seed: u64) -> Benchmark {
    spec.validate().expect("spec must be valid");
    let sbm = generate_sbm(&SbmConfig::with_homophily(
        spec.nodes,
        spec.classes,
        spec.blocks_per_class,
        spec.avg_degree,
        spec.homophily,
        seed,
    ));
    // Calibrated difficulty: centroid distance ≈ t·noise with
    // d = class_sep·√(2f), so class_sep = t·noise/√(2f). t ≈ 2 leaves
    // feature-only classifiers well below 100% while graph aggregation
    // (averaging neighbor noise) recovers most of the gap — the regime in
    // which the paper's comparisons are meaningful.
    let noise = 0.8f32;
    // Degree-normalized margin: GNN aggregation shrinks feature noise by
    // ≈ √deg, so keeping t·√deg constant equalizes difficulty across
    // sparse citation graphs and dense co-purchase graphs. The floor keeps
    // raw features from becoming pure noise on dense graphs.
    let t = (1.4 * (4.0 / spec.avg_degree as f32).sqrt()).max(0.9);
    let class_sep = t * noise / (2.0 * spec.features as f32).sqrt();
    let features = class_features(
        &sbm.labels,
        &sbm.blocks,
        spec.classes,
        &FeatureConfig {
            dim: spec.features,
            class_sep,
            block_jitter: 0.05,
            noise,
            modes_per_class: 3,
            mode_spread: 0.8,
            seed: seed ^ 0xfeed_beef,
        },
    );
    // Irreducible label noise: real benchmarks carry mislabeled nodes, which
    // is why no method reaches 100% in the paper's tables. Flipping 5% of
    // observed labels *after* feature generation caps accuracy near 95%
    // without touching the underlying structure.
    let mut labels = sbm.labels.clone();
    {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x1ab3);
        for l in labels.iter_mut() {
            if spec.classes > 1 && rng.random::<f64>() < 0.05 {
                let mut flip = rng.random_range(0..spec.classes as u32);
                if flip == *l {
                    flip = (flip + 1) % spec.classes as u32;
                }
                *l = flip;
            }
        }
    }
    let split = stratified_split(
        &labels,
        spec.classes,
        spec.train_frac,
        spec.val_frac,
        spec.test_frac,
        seed ^ 0x517a,
    );
    Benchmark {
        graph: sbm.graph,
        features,
        labels,
        num_classes: spec.classes,
        blocks: sbm.blocks,
        split,
        spec: spec.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedgta_graph::metrics::edge_homophily;

    #[test]
    fn all_twelve_specs_are_valid() {
        assert_eq!(SPECS.len(), 12);
        for s in SPECS {
            s.validate().unwrap_or_else(|e| panic!("{}: {e}", s.name));
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(spec_by_name("cora").is_ok());
        assert!(matches!(spec_by_name("imagenet"), Err(DataError::UnknownDataset(_))));
    }

    #[test]
    fn cora_benchmark_matches_spec() {
        let b = load_benchmark("cora", 0).unwrap();
        assert_eq!(b.graph.num_nodes(), 2708);
        assert_eq!(b.features.shape(), (2708, 256));
        assert_eq!(b.num_classes, 7);
        let h = edge_homophily(&b.graph, &b.labels);
        assert!((h - 0.81).abs() < 0.1, "homophily {h}");
        // 20/40/40 split.
        assert!((b.split.train.len() as f64 - 0.2 * 2708.0).abs() < 30.0);
    }

    #[test]
    fn to_dataset_carries_split() {
        let b = load_benchmark("citeseer", 1).unwrap();
        let d = b.to_dataset();
        assert_eq!(d.train_nodes, b.split.train);
        assert_eq!(d.num_classes, 6);
    }

    #[test]
    fn from_parts_wraps_user_data() {
        use fedgta_graph::io::parse_edge_list_text;
        let g = parse_edge_list_text("0 1\n1 2\n2 3\n3 0\n0 2", 4).unwrap();
        let x = Matrix::from_vec(4, 2, vec![0.0, 1.0, 1.0, 0.0, 0.5, 0.5, 0.2, 0.8]);
        let b = Benchmark::from_parts(g, x, vec![0, 1, 0, 1], 2, 0.5, 0.25, 0.25, 0);
        assert_eq!(b.spec.name, "user-data");
        assert_eq!(b.num_classes, 2);
        let d = b.to_dataset();
        assert_eq!(d.num_nodes(), 4);
        assert!(!d.train_nodes.is_empty());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = load_benchmark("cora", 5).unwrap();
        let b = load_benchmark("cora", 5).unwrap();
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.features, b.features);
        let c = load_benchmark("cora", 6).unwrap();
        assert_ne!(a.graph, c.graph);
    }
}
