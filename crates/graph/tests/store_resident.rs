//! The store's resident-bytes accounting is process-global, so its
//! rise-and-fall check lives alone in this test binary: inside the
//! crate's unit-test binary other store tests run on sibling threads
//! and move the same counter mid-assertion.

use fedgta_graph::io::write_csr_v2;
use fedgta_graph::store::resident_bytes;
use fedgta_graph::{ChunkedCsr, EdgeList, TileBuf};

#[test]
fn resident_gauge_rises_and_falls() {
    let mut el = EdgeList::new(200);
    for u in 0..200u32 {
        for step in [1, 7, 31] {
            el.push_undirected(u, (u + step) % 200).unwrap();
        }
    }
    let path = std::env::temp_dir().join(format!("fedgta-resident-{}.fgta2", std::process::id()));
    write_csr_v2(&path, &el.to_csr(), 32).unwrap();
    let before = resident_bytes();
    {
        let store = ChunkedCsr::open(&path).unwrap();
        let mut reader = store.reader().unwrap();
        let mut tile = TileBuf::new();
        reader.read_tile(0, &mut tile).unwrap();
        assert!(resident_bytes() > before, "tile bytes accounted");
    }
    assert_eq!(resident_bytes(), before, "all store memory released");
    std::fs::remove_file(&path).unwrap();
}
