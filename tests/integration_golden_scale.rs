//! Golden bits for the out-of-core set-up `repro scale` and the
//! `sbm1m_sgc_disk` workload time: the v2 file `generate_raw` streams, the
//! normalized file `normalize_stream` writes from it, and every client
//! `build_scale_clients` extracts from it (`adj_norm`, `degrees_hat`, the
//! propagated features, labels and splits), each pinned by the FNV-1a-64
//! hash of its little-endian bytes in `tests/golden/scale.txt`. A change to
//! the streamed generator, the v2 writer or reader, the normalization or
//! the client build that moves one byte moves a line.
//!
//! A second test checks the scale clients against the in-memory path, bit
//! for bit: each client's graph built from the raw graph's in-range edges
//! through `EdgeList`, then `normalized_adjacency`.
//!
//! To re-bless after an intended change:
//! `FEDGTA_GOLDEN_BLESS=1 cargo test --test integration_golden_scale`
//! and commit the diff (the header lines starting with `#` are kept).

use fedgta_bench::scale::{build_scale_clients, generate_raw};
use fedgta_data::sbm::STREAM_BUCKET_ROWS;
use fedgta_graph::io::CsrV2Writer;
use fedgta_graph::store::{normalize_stream, ChunkedCsr};
use fedgta_graph::{normalized_adjacency, EdgeList, NormKind};

mod golden;

/// Nodes of the pinned graph: past two stream buckets and two 2¹⁶-row
/// tiles, so the spill, the bucket finalize and the tile walk each cross
/// two boundaries.
const NODES: usize = 132_000;
/// Rows per chunk of the normalized file (`generate_raw`'s granularity).
const CHUNK_ROWS: usize = 1 << 16;
const SEED: u64 = 3;
const CLIENTS: usize = 4;

fn hex<T: Copy, const N: usize>(xs: &[T], le: impl Fn(T) -> [u8; N]) -> String {
    format!("{:016x}", golden::fnv1a(xs.iter().flat_map(|&x| le(x))))
}

#[test]
fn scale_setup_matches_the_golden_file() {
    const { assert!(NODES > 2 * STREAM_BUCKET_ROWS && NODES > 2 * CHUNK_ROWS) };
    let dir = std::env::temp_dir().join(format!("fedgta-golden-scale-{}", std::process::id()));
    let raw = generate_raw(NODES, 3.0, SEED, &dir).expect("streamed SBM generation");
    let raw_bytes = std::fs::read(&raw.path).unwrap();
    // A duplicate-edge row gives the raw file its weights section.
    assert_eq!(raw_bytes[5], 1, "the pinned graph has no duplicate edge");
    let mut got = vec![format!(
        "raw nodes={NODES} edges={} len={} file={:016x}",
        raw.edges,
        raw_bytes.len(),
        golden::fnv1a(raw_bytes.iter().copied())
    )];
    drop(raw_bytes);

    let norm_path = dir.join("golden-norm.fgta2");
    let store = ChunkedCsr::open(&raw.path).unwrap();
    let writer = CsrV2Writer::create(&norm_path, NODES, CHUNK_ROWS).unwrap();
    let (summary, _) = normalize_stream(&store, NormKind::Symmetric, writer).unwrap();
    drop(store);
    let norm_bytes = std::fs::read(&norm_path).unwrap();
    got.push(format!(
        "norm symmetric edges={} len={} file={:016x}",
        summary.edges,
        norm_bytes.len(),
        golden::fnv1a(norm_bytes.iter().copied())
    ));
    drop(norm_bytes);

    for c in build_scale_clients(&raw, CLIENTS, SEED) {
        let d = &c.data;
        let a = &d.adj_norm;
        let f32s = |xs: &[f32]| hex(xs, |x: f32| x.to_bits().to_le_bytes());
        let u32s = |xs: &[u32]| hex(xs, u32::to_le_bytes);
        got.push(format!(
            "client {} nodes={} edges={} indptr={} indices={} weights={} degrees_hat={} \
             features={} labels={} train={} val={} test={}",
            c.id,
            d.num_nodes(),
            a.num_edges(),
            hex(a.indptr(), |x: usize| (x as u64).to_le_bytes()),
            u32s(a.indices()),
            f32s(a.weights().expect("a normalized adjacency is weighted")),
            f32s(&d.degrees_hat),
            f32s(d.features.as_slice()),
            u32s(&d.labels),
            u32s(&d.train_nodes),
            u32s(&d.val_nodes),
            u32s(&d.test_nodes),
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);
    golden::check("scale.txt", &got);
}

#[test]
fn scale_clients_are_the_in_memory_clients() {
    let dir = std::env::temp_dir().join(format!("fedgta-scale-vs-mem-{}", std::process::id()));
    let raw = generate_raw(NODES, 3.0, SEED, &dir).expect("streamed SBM generation");
    let global = ChunkedCsr::open(&raw.path).unwrap().to_csr().unwrap();
    assert!(global.weights().is_some(), "the pinned graph has no duplicate edge");
    let clients = build_scale_clients(&raw, CLIENTS, SEED);
    let _ = std::fs::remove_dir_all(&dir);
    let same_bits =
        |a: &[f32], b: &[f32]| a.iter().map(|x| x.to_bits()).eq(b.iter().map(|x| x.to_bits()));
    let mut start = 0;
    for c in &clients {
        let range = start as u32..(NODES * (c.id + 1) / CLIENTS) as u32;
        start = range.end as usize;
        assert!(c.global_ids.iter().copied().eq(range.clone()), "client {} nodes", c.id);
        let mut el = EdgeList::new(range.len());
        for u in range.clone() {
            for (k, &v) in global.neighbors(u).iter().enumerate() {
                if range.contains(&v) {
                    let w = global.edge_weight_at(u, k);
                    el.push_weighted(u - range.start, v - range.start, w).unwrap();
                }
            }
        }
        let local = el.to_csr();
        let want = normalized_adjacency(&local, NormKind::Symmetric);
        let hat = local.with_self_loops();
        let degrees_hat: Vec<f32> =
            (0..hat.num_nodes() as u32).map(|u| hat.weighted_degree(u)).collect();
        let got = &c.data.adj_norm;
        assert!(got.indptr() == want.indptr(), "client {} indptr", c.id);
        assert!(got.indices() == want.indices(), "client {} indices", c.id);
        assert!(
            same_bits(got.weights().unwrap(), want.weights().unwrap()),
            "client {} weights",
            c.id
        );
        assert!(same_bits(&c.data.degrees_hat, &degrees_hat), "client {} degrees_hat", c.id);
    }
    assert_eq!(start, NODES);
}
