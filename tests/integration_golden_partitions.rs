//! Golden bits for the federated splits: every line of
//! `tests/golden/partitions.txt` is one partitioner run on a catalog graph,
//! pinned by the FNV-1a-64 hash of its `parts` and by its edge cut. A
//! change to the partitioners that moves a client's membership moves a line.
//!
//! To re-bless after an intended change:
//! `FEDGTA_GOLDEN_BLESS=1 cargo test --test integration_golden_partitions`
//! and commit the diff (the header lines starting with `#` are kept).

use fedgta_bench::runner::{partition_benchmark, SplitKind};
use fedgta_data::load_benchmark;

mod golden;

/// (split, dataset, clients, seed) of each cell, in file order.
const CELLS: &[(SplitKind, &str, usize, u64)] = &[
    (SplitKind::Metis, "ogbn-arxiv", 128, 1),
    (SplitKind::Metis, "cora", 10, 0),
    (SplitKind::Metis, "cora", 10, 1),
    (SplitKind::Metis, "citeseer", 10, 0),
    (SplitKind::Metis, "citeseer", 10, 1),
    (SplitKind::Metis, "pubmed", 10, 0),
    (SplitKind::Metis, "pubmed", 10, 1),
    (SplitKind::Metis, "amazon-photo", 10, 0),
    (SplitKind::Metis, "amazon-photo", 10, 1),
    (SplitKind::Louvain, "cora", 10, 1),
];

fn line(&(split, dataset, clients, seed): &(SplitKind, &str, usize, u64)) -> String {
    let bench = load_benchmark(dataset, seed).expect("catalog dataset");
    let p = partition_benchmark(&bench, split, clients, seed);
    format!(
        "{} {dataset} k={clients} seed={seed} parts={:016x} cut={}",
        split.name(),
        golden::fnv1a(p.parts.iter().flat_map(|p| p.to_le_bytes())),
        p.edge_cut(&bench.graph)
    )
}

#[test]
fn partitions_match_the_golden_file() {
    let got: Vec<String> = CELLS.iter().map(line).collect();
    golden::check("partitions.txt", &got);
}
