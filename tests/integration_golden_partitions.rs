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
use std::path::PathBuf;

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

fn fnv1a(parts: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in parts.iter().flat_map(|p| p.to_le_bytes()) {
        h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn line(&(split, dataset, clients, seed): &(SplitKind, &str, usize, u64)) -> String {
    let bench = load_benchmark(dataset, seed).expect("catalog dataset");
    let p = partition_benchmark(&bench, split, clients, seed);
    format!(
        "{} {dataset} k={clients} seed={seed} parts={:016x} cut={}",
        split.name(),
        fnv1a(&p.parts),
        p.edge_cut(&bench.graph)
    )
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/partitions.txt")
}

#[test]
fn partitions_match_the_golden_file() {
    let path = golden_path();
    let golden = std::fs::read_to_string(&path).unwrap_or_default();
    let header: Vec<&str> = golden.lines().filter(|l| l.starts_with('#')).collect();
    let want: Vec<&str> = golden.lines().filter(|l| !l.starts_with('#') && !l.is_empty()).collect();
    let got: Vec<String> = CELLS.iter().map(line).collect();
    if std::env::var_os("FEDGTA_GOLDEN_BLESS").is_some() {
        let mut text = header.join("\n");
        if !text.is_empty() {
            text.push('\n');
        }
        text.push_str(&got.join("\n"));
        text.push('\n');
        std::fs::write(&path, text).unwrap();
        return;
    }
    assert_eq!(want.len(), got.len(), "cell count: golden file vs test");
    for (w, g) in want.iter().zip(&got) {
        assert_eq!(w, g, "golden partition moved");
    }
}
