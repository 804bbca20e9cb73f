//! Property-based tests for the synthetic benchmark generator.

use fedgta_data::splits::stratified_split;
use fedgta_data::{generate_from_spec, generate_sbm, DatasetSpec, SbmConfig, Task};
use fedgta_graph::metrics::edge_homophily;
use proptest::prelude::*;

fn arb_spec() -> impl Strategy<Value = (DatasetSpec, u64)> {
    (
        200usize..800, // nodes
        2usize..6,     // classes
        1usize..4,     // blocks per class
        4.0f64..12.0,  // avg degree
        0.6f64..0.95,  // homophily
        0u64..1000,    // seed
    )
        .prop_map(|(nodes, classes, bpc, deg, hom, seed)| {
            (
                DatasetSpec {
                    name: "cora", // reuse a catalog name so specs resolve
                    nodes,
                    features: 12,
                    classes,
                    avg_degree: deg,
                    train_frac: 0.3,
                    val_frac: 0.2,
                    test_frac: 0.5,
                    task: Task::Transductive,
                    blocks_per_class: bpc,
                    homophily: hom,
                    description: "prop",
                },
                seed,
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn generated_benchmarks_are_structurally_consistent((spec, seed) in arb_spec()) {
        let b = generate_from_spec(&spec, seed);
        prop_assert_eq!(b.graph.num_nodes(), spec.nodes);
        prop_assert_eq!(b.features.shape(), (spec.nodes, spec.features));
        prop_assert_eq!(b.labels.len(), spec.nodes);
        prop_assert!(b.labels.iter().all(|&l| (l as usize) < spec.classes));
        prop_assert!(b.graph.is_symmetric());
        prop_assert!(b.graph.validate().is_ok());
        // Splits are disjoint subsets of the nodes.
        let mut seen = vec![0u8; spec.nodes];
        for &v in b.split.train.iter().chain(&b.split.val).chain(&b.split.test) {
            prop_assert!((v as usize) < spec.nodes);
            seen[v as usize] += 1;
            prop_assert!(seen[v as usize] <= 1, "node {} in two parts", v);
        }
    }

    #[test]
    fn homophily_tracks_the_requested_target((spec, seed) in arb_spec()) {
        let b = generate_from_spec(&spec, seed);
        let h = edge_homophily(&b.graph, &b.labels);
        // 5% label flips shave ≈ 2·0.05·(1−1/c) off the structural target;
        // allow generous sampling slack on small graphs.
        prop_assert!(
            (h - spec.homophily).abs() < 0.22,
            "target {} realized {}",
            spec.homophily,
            h
        );
    }

    #[test]
    fn sbm_blocks_partition_nodes(
        n in 100usize..500,
        classes in 2usize..5,
        bpc in 1usize..4,
        seed in 0u64..100,
    ) {
        let g = generate_sbm(&SbmConfig::with_homophily(n, classes, bpc, 6.0, 0.8, seed));
        prop_assert_eq!(g.blocks.len(), n);
        let num_blocks = classes * bpc;
        prop_assert!(g.blocks.iter().all(|&b| (b as usize) < num_blocks));
        // Class is block mod classes by construction.
        for (v, &b) in g.blocks.iter().enumerate() {
            prop_assert_eq!(g.labels[v], b % classes as u32);
        }
    }

    #[test]
    fn stratified_split_respects_fractions(
        per_class in 20usize..60,
        classes in 2usize..5,
        seed in 0u64..100,
    ) {
        let labels: Vec<u32> = (0..per_class * classes).map(|i| (i % classes) as u32).collect();
        let s = stratified_split(&labels, classes, 0.2, 0.3, 0.5, seed);
        let n = labels.len() as f64;
        prop_assert!((s.train.len() as f64 - 0.2 * n).abs() <= classes as f64);
        prop_assert!((s.val.len() as f64 - 0.3 * n).abs() <= classes as f64);
        prop_assert!((s.test.len() as f64 - 0.5 * n).abs() <= classes as f64);
        // Stratification: every class appears in every part.
        for c in 0..classes as u32 {
            prop_assert!(s.train.iter().any(|&v| labels[v as usize] == c));
            prop_assert!(s.test.iter().any(|&v| labels[v as usize] == c));
        }
    }

    #[test]
    fn generation_is_deterministic((spec, seed) in arb_spec()) {
        let a = generate_from_spec(&spec, seed);
        let b = generate_from_spec(&spec, seed);
        prop_assert_eq!(a.graph, b.graph);
        prop_assert_eq!(a.features, b.features);
        prop_assert_eq!(a.labels, b.labels);
        prop_assert_eq!(a.split, b.split);
    }
}
