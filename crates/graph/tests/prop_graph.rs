//! Property-based tests for the graph engine's core invariants and for the
//! one graph file format (`FGTA` v2) under truncation and tampering.

use fedgta_graph::io::{write_csr_v2, IoError, V2Meta, V2_HEADER};
use fedgta_graph::{
    metrics::modularity,
    norm::{normalized_adjacency, NormKind},
    spmm::{propagate_steps_into, spmm, spmm_into_threads},
    subgraph::{halo_subgraph, induced_subgraphs},
    ChunkedCsr, Csr, EdgeList,
};
use proptest::prelude::*;

/// Decodes `bytes` through the one reader, from a per-thread temp file.
fn decode(bytes: &[u8]) -> Result<Csr, IoError> {
    let path = std::env::temp_dir().join(format!(
        "fedgta-prop-v2-{}-{:?}.fgta2",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::write(&path, bytes).expect("temp file writes");
    let got = ChunkedCsr::open(&path).and_then(|s| s.to_csr());
    std::fs::remove_file(&path).expect("cleanup");
    got
}

/// Strategy: a random undirected graph with up to `max_n` nodes.
fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = Csr> {
    (2usize..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..=max_m).prop_map(move |edges| {
            let mut el = EdgeList::new(n);
            for (u, v) in edges {
                if u != v {
                    el.push_undirected(u, v).unwrap();
                }
            }
            el.to_csr()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn edgelist_to_csr_is_sorted_and_unique(g in arb_graph(30, 120)) {
        for u in 0..g.num_nodes() as u32 {
            let neigh = g.neighbors(u);
            prop_assert!(neigh.windows(2).all(|w| w[0] < w[1]));
        }
        prop_assert!(g.validate().is_ok());
    }

    #[test]
    fn undirected_build_is_symmetric(g in arb_graph(25, 100)) {
        prop_assert!(g.is_symmetric());
        let t = g.transpose();
        prop_assert_eq!(t.indptr(), g.indptr());
    }

    #[test]
    fn self_loops_add_exactly_missing_loops(g in arb_graph(25, 100)) {
        let looped = g.with_self_loops();
        prop_assert_eq!(looped.num_edges(), g.num_edges() + g.num_nodes());
        for u in 0..g.num_nodes() as u32 {
            prop_assert!(looped.has_edge(u, u));
        }
    }

    #[test]
    fn row_stochastic_norm_rows_sum_to_one(g in arb_graph(25, 100)) {
        let a = normalized_adjacency(&g, NormKind::RowStochastic);
        for u in 0..a.num_nodes() as u32 {
            let s: f32 = a.neighbor_weights(u).unwrap().iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-4, "row {} sums to {}", u, s);
        }
    }

    #[test]
    fn sym_norm_spectral_radius_bounded(g in arb_graph(20, 80)) {
        // D^-1/2 Â D^-1/2 is symmetric with spectral radius ≤ 1, so the
        // L2 norm of any vector is non-increasing under propagation.
        let a = normalized_adjacency(&g, NormKind::Symmetric);
        let n = a.num_nodes();
        let x: Vec<f32> = (0..n).map(|i| ((i % 5) as f32) - 2.0).collect();
        let mut hops = Vec::new();
        propagate_steps_into(&a, &x, 1, 6, &mut hops).unwrap();
        let norm = |v: &[f32]| v.iter().map(|&x| (x as f64).powi(2)).sum::<f64>().sqrt();
        let mut prev = norm(&x);
        for step in &hops {
            let cur = norm(step);
            prop_assert!(cur <= prev + 1e-3, "norm grew {} -> {}", prev, cur);
            prev = cur;
        }
    }

    #[test]
    fn spmm_linear_in_operand(g in arb_graph(15, 60)) {
        // A(x + y) == Ax + Ay within f32 tolerance.
        let n = g.num_nodes();
        let x: Vec<f32> = (0..n).map(|i| (i % 7) as f32).collect();
        let y: Vec<f32> = (0..n).map(|i| ((i * 3) % 5) as f32).collect();
        let sum: Vec<f32> = x.iter().zip(&y).map(|(a, b)| a + b).collect();
        let ax = spmm(&g, &x, 1).unwrap();
        let ay = spmm(&g, &y, 1).unwrap();
        let axy = spmm(&g, &sum, 1).unwrap();
        for i in 0..n {
            prop_assert!((axy[i] - (ax[i] + ay[i])).abs() < 1e-3);
        }
    }

    #[test]
    fn nnz_balanced_spmm_bit_identical_on_random_graphs(
        g in arb_graph(25, 120),
        cols in 1usize..9,
        threads in 2usize..8,
    ) {
        // The nnz-balanced chunk boundaries change only which worker owns
        // which rows, never the per-row arithmetic — parallel output must
        // be bitwise equal to the serial run on arbitrary (including
        // degree-skewed and edgeless) graphs.
        let n = g.num_nodes();
        let x: Vec<f32> = (0..n * cols).map(|i| ((i * 37 % 113) as f32) * 0.17 - 9.0).collect();
        let mut serial = vec![0f32; n * cols];
        let mut par = vec![7f32; n * cols];
        spmm_into_threads(&g, &x, cols, &mut serial, 1);
        spmm_into_threads(&g, &x, cols, &mut par, threads);
        for (a, b) in serial.iter().zip(&par) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn induced_subgraph_preserves_edges(g in arb_graph(20, 80), pick in proptest::collection::vec(0u32..4, 20)) {
        // Three parts; part 3 is none, so some nodes are in no subgraph.
        // Parts in node order take the path that reads no slot table.
        let parts: Vec<u32> = (0..g.num_nodes()).map(|u| pick[u]).collect();
        let mut in_order = parts.clone();
        in_order.sort_unstable();
        for parts in [parts, in_order] {
            let sgs = induced_subgraphs(&g, &parts, 3).unwrap();
            prop_assert_eq!(sgs.len(), 3);
            for (p, sg) in (0u32..).zip(&sgs) {
                let members: Vec<u32> = (0..g.num_nodes() as u32).filter(|&u| parts[u as usize] == p).collect();
                prop_assert_eq!(&sg.global_ids, &members);
                prop_assert_eq!(sg.num_owned, members.len());
                // Every local edge is a global edge of the same weight, and
                // every global edge inside the part is a local one.
                for lu in 0..sg.graph.num_nodes() as u32 {
                    for (k, &lv) in sg.graph.neighbors(lu).iter().enumerate() {
                        let (gu, gv) = (sg.global_ids[lu as usize], sg.global_ids[lv as usize]);
                        let gk = g.neighbors(gu).binary_search(&gv);
                        prop_assert!(gk.is_ok());
                        prop_assert_eq!(sg.graph.edge_weight_at(lu, k), g.edge_weight_at(gu, gk.unwrap()));
                    }
                }
                for &gu in &members {
                    for &gv in g.neighbors(gu) {
                        if parts[gv as usize] == p {
                            let lu = sg.global_ids.binary_search(&gu).unwrap() as u32;
                            let lv = sg.global_ids.binary_search(&gv).unwrap() as u32;
                            prop_assert!(sg.graph.has_edge(lu, lv));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn halo_contains_induced(g in arb_graph(20, 80), pick in proptest::collection::vec(0u32..4, 20)) {
        let parts: Vec<u32> = (0..g.num_nodes()).map(|u| pick[u]).collect();
        for ind in induced_subgraphs(&g, &parts, 3).unwrap() {
            if ind.global_ids.is_empty() {
                continue;
            }
            let hal = halo_subgraph(&g, &ind.global_ids).unwrap();
            prop_assert_eq!(&hal.global_ids[..hal.num_owned], &ind.global_ids[..]);
            prop_assert!(hal.graph.num_edges() >= ind.graph.num_edges());
            prop_assert!(hal.graph.is_symmetric());
        }
    }

    #[test]
    fn modularity_in_valid_range(g in arb_graph(20, 80), labels in proptest::collection::vec(0u32..4, 20)) {
        prop_assume!(g.num_edges() > 0);
        let community: Vec<u32> = (0..g.num_nodes())
            .map(|i| labels.get(i).copied().unwrap_or(0))
            .collect();
        let q = modularity(&g, &community);
        prop_assert!((-1.0..=1.0).contains(&q), "q = {}", q);
    }

    #[test]
    fn v2_files_roundtrip_and_reject_truncation_and_tampering(
        n in 1usize..12,
        edges in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..40),
        chunk_rows in 1usize..6,
        cut in any::<u64>(),
        pos in any::<u64>(),
        xor in 1u8..=255,
        extra_nodes in 0u64..1 << 20,
        extra_edges in 0u64..1 << 32,
    ) {
        let mut el = EdgeList::new(n);
        for (u, v) in &edges {
            el.push(*u as u32 % n as u32, *v as u32 % n as u32).unwrap();
        }
        let g = el.to_csr();
        let path = std::env::temp_dir().join(format!(
            "fedgta-prop-v2-src-{}-{:?}.fgta2",
            std::process::id(),
            std::thread::current().id()
        ));
        write_csr_v2(&path, &g, chunk_rows).expect("v2 writes");
        let bytes = std::fs::read(&path).expect("file reads");
        std::fs::remove_file(&path).expect("cleanup");

        // The full file round-trips bit-exactly…
        prop_assert_eq!(&decode(&bytes).expect("clean v2 file reads"), &g);

        // …every strict prefix errors instead of panicking or fabricating
        // a graph…
        let short = &bytes[..(cut % bytes.len() as u64) as usize];
        prop_assert!(decode(short).is_err(), "v2 prefix of len {} read as a graph", short.len());

        // …a corrupted chunk directory is always caught (every directory
        // entry is cross-checked against the offsets at chunk boundaries)…
        let num_chunks = n.div_ceil(chunk_rows);
        let dir_len = 8 * (num_chunks + 1);
        let mut bad = bytes.clone();
        let p = 64 + (pos % dir_len as u64) as usize;
        bad[p] ^= xor;
        prop_assert!(decode(&bad).is_err(), "tampered dir byte {p} accepted");

        // …a flipped header byte either errors or still decodes the same
        // graph (padding bytes are the only inert positions)…
        let mut bad = bytes.clone();
        let p = (pos % 64) as usize;
        bad[p] ^= xor;
        if let Ok(tampered) = decode(&bad) {
            prop_assert_eq!(&tampered, &g, "tampered header byte {} changed the graph", p);
        }

        // …and a self-consistent header whose counts outgrow the file
        // errors before any count-sized allocation.
        prop_assume!(extra_nodes + extra_edges > 0);
        let nodes = n as u64 + extra_nodes;
        let edges = g.num_edges() as u64 + extra_edges;
        let chunks = nodes.div_ceil(chunk_rows as u64);
        let meta = V2Meta {
            nodes,
            edges,
            chunk_rows: chunk_rows as u64,
            has_weights: false,
            dir_pos: V2_HEADER,
            offsets_pos: V2_HEADER + 8 * (chunks + 1),
            indices_pos: V2_HEADER + 8 * (chunks + 1) + 8 * (nodes + 1),
            weights_pos: 0,
        };
        prop_assert!(meta.validate().is_ok(), "header must pass validation on its own");
        let mut bad = bytes.clone();
        for (at, v) in [(8, nodes), (16, edges), (40, meta.offsets_pos), (48, meta.indices_pos)] {
            bad[at..at + 8].copy_from_slice(&v.to_le_bytes());
        }
        prop_assert!(decode(&bad).is_err(), "header claiming {nodes} nodes / {edges} edges accepted");
    }
}
