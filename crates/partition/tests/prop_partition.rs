//! Property-based tests for the partitioners.

use fedgta_graph::{metrics::modularity, Csr, EdgeList};
use fedgta_partition::{
    communities_to_clients, louvain, metis_kway, LouvainConfig, MetisConfig, Partition,
};
use proptest::prelude::*;

/// A random connected graph: spanning path + chords.
fn arb_connected(max_n: usize) -> impl Strategy<Value = Csr> {
    (4usize..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..3 * n).prop_map(move |chords| {
            let mut el = EdgeList::new(n);
            for i in 1..n as u32 {
                el.push_undirected(i - 1, i).unwrap();
            }
            for (u, v) in chords {
                if u != v {
                    el.push_undirected(u, v).unwrap();
                }
            }
            el.to_csr()
        })
    })
}

/// A random multigraph: up to `3n` undirected edges with weights 1–5;
/// repeated pairs merge into one edge of summed weight. Up to 400 nodes,
/// so that most cases coarsen before the initial partition.
fn arb_multigraph() -> impl Strategy<Value = Csr> {
    (16usize..=400).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32, 1u32..=5), 0..3 * n).prop_map(
            move |edges| {
                let mut el = EdgeList::new(n);
                for (u, v, w) in edges {
                    if u != v {
                        el.push_weighted(u, v, w as f32).unwrap();
                        el.push_weighted(v, u, w as f32).unwrap();
                    }
                }
                el.to_csr()
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Metis on weighted multigraphs, connected or not. Refinement carries
    /// the cut by subtracting each move's gain; a debug build (the tier-1
    /// one) asserts after every pass that it equals a recount.
    #[test]
    fn metis_splits_weighted_multigraphs(g in arb_multigraph(), k in 2usize..=16, seed in 0u64..4) {
        let p = metis_kway(&g, k, &MetisConfig { seed, ..MetisConfig::default() }).unwrap();
        prop_assert_eq!(p.parts.len(), g.num_nodes());
        prop_assert_eq!(p.num_parts, k);
        let sizes = p.sizes();
        prop_assert!(sizes.iter().all(|&s| s > 0), "sizes {:?}", sizes);
    }

    #[test]
    fn louvain_assignment_is_total_and_nonneg_modularity(g in arb_connected(60)) {
        let p = louvain(&g, &LouvainConfig::default());
        prop_assert_eq!(p.parts.len(), g.num_nodes());
        prop_assert!(p.num_parts >= 1);
        // Louvain only merges when modularity improves, so the result is
        // at least as good as singletons (q = negative baseline).
        let singleton: Vec<u32> = (0..g.num_nodes() as u32).collect();
        prop_assert!(modularity(&g, &p.parts) >= modularity(&g, &singleton) - 1e-9);
    }

    #[test]
    fn metis_parts_cover_all_nodes_nonempty(g in arb_connected(80), k in 2usize..6) {
        prop_assume!(k <= g.num_nodes());
        let p = metis_kway(&g, k, &MetisConfig::default()).unwrap();
        prop_assert_eq!(p.parts.len(), g.num_nodes());
        prop_assert_eq!(p.num_parts, k);
        let sizes = p.sizes();
        prop_assert!(sizes.iter().all(|&s| s > 0), "sizes {:?}", sizes);
        prop_assert_eq!(sizes.iter().sum::<usize>(), g.num_nodes());
    }

    #[test]
    fn metis_respects_rough_balance(g in arb_connected(100), k in 2usize..5) {
        let p = metis_kway(&g, k, &MetisConfig::default()).unwrap();
        let ideal = g.num_nodes() as f64 / k as f64;
        for &s in &p.sizes() {
            // imbalance 1.05 plus one-vertex slack plus the min_w floor.
            prop_assert!((s as f64) <= ideal * 1.05 + 2.0, "size {} ideal {}", s, ideal);
            prop_assert!((s as f64) >= 0.5 * ideal - 1.0, "size {} ideal {}", s, ideal);
        }
    }

    #[test]
    fn assignment_keeps_communities_whole(
        comm_of in proptest::collection::vec(0u32..8, 16..64),
        n_clients in 1usize..4,
    ) {
        let communities = Partition::new(comm_of).compact();
        prop_assume!(n_clients <= communities.parts.len());
        let clients = communities_to_clients(&communities, n_clients).unwrap();
        prop_assert_eq!(clients.parts.len(), communities.parts.len());
        // Same community => same client.
        for ids in communities.members() {
            if ids.is_empty() { continue; }
            let c = clients.parts[ids[0] as usize];
            prop_assert!(ids.iter().all(|&v| clients.parts[v as usize] == c));
        }
        prop_assert!(clients.num_parts <= n_clients);
    }

    #[test]
    fn lpt_load_is_within_factor_two_of_ideal(
        sizes in proptest::collection::vec(1usize..50, 6..20),
        n_clients in 2usize..5,
    ) {
        // Build a community partition with the given sizes.
        let mut parts = Vec::new();
        for (c, &s) in sizes.iter().enumerate() {
            parts.extend(std::iter::repeat_n(c as u32, s));
        }
        let communities = Partition::new(parts);
        prop_assume!(n_clients <= sizes.len());
        let clients = communities_to_clients(&communities, n_clients).unwrap();
        let loads = clients.sizes();
        let total: usize = sizes.iter().sum();
        let ideal = total as f64 / n_clients as f64;
        let max_comm = *sizes.iter().max().unwrap() as f64;
        // LPT guarantee: max load <= ideal + largest item.
        prop_assert!(*loads.iter().max().unwrap() as f64 <= ideal + max_comm + 1e-9);
    }
}
