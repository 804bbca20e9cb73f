//! Subgraph extraction — how federated clients are carved out of the
//! global graph.
//!
//! Two flavors:
//! - [`induced_subgraphs`]: every part of a node → part assignment at once,
//!   each keeping only edges with *both* endpoints in the part (the
//!   Louvain/Metis split of the paper — clients lose cross-client edges).
//!   It reads any [`RowSource`] once, so in-memory clients and out-of-core
//!   clients (a [`crate::ChunkedCsr`] read tile by tile) come from one body
//!   and carry the same weights;
//! - [`halo_subgraph`]: one node set plus its 1-hop ghost neighbors, so
//!   subgraphs of different clients overlap (required by FedGL's
//!   overlapping-node supervision and FedSage+'s hidden-neighbor protocol).

use crate::io::IoError;
use crate::store::{CsrBuilder, RowSink, RowSource};
use crate::{Csr, EdgeList, GraphError, Result};

/// A client's local view of the global graph.
#[derive(Debug, Clone)]
pub struct Subgraph {
    /// Local adjacency over `global_ids.len()` nodes.
    pub graph: Csr,
    /// Local node id → global node id. Owned nodes come first, then halo
    /// (ghost) nodes.
    pub global_ids: Vec<u32>,
    /// Number of owned (non-ghost) nodes; `global_ids[..num_owned]` are
    /// owned, the rest are halo.
    pub num_owned: usize,
}

/// Extracts the subgraph every part induces, in one pass over `src`'s
/// rows. `parts[v]` is node `v`'s part; a part `>= num_parts` puts `v` in
/// none. Part `p`'s subgraph is over its nodes in ascending order and keeps
/// every edge between two of them with its weight, so a duplicated edge
/// weighs in a part what it weighs in `src`. `src`'s rows must list their
/// neighbors in ascending order, as `EdgeList::to_csr` and the v2 file
/// keep them; an empty part yields an empty subgraph.
pub fn induced_subgraphs<R: RowSource>(
    src: &R,
    parts: &[u32],
    num_parts: usize,
) -> std::result::Result<Vec<Subgraph>, IoError> {
    let mut ids = vec![Vec::new(); num_parts];
    for (v, &p) in (0u32..).zip(parts) {
        if let Some(ids) = ids.get_mut(p as usize) {
            ids.push(v);
        }
    }
    // A node's place with the parts laid end to end: `slot[v] - start[p]`
    // is `v`'s local id, and falls below part `p`'s size exactly when `v`
    // is in `p` (`u32::MAX`, in no part, falls below none). With `parts` in
    // node order (contiguous ranges) the place is the node's own id, and no
    // table is read per edge.
    let sorted = parts.is_sorted();
    let mut slot = vec![u32::MAX; if sorted { 0 } else { parts.len() }];
    let (mut start, mut next) = (Vec::with_capacity(num_parts), 0);
    for ids in &mut ids {
        ids.shrink_to_fit();
        start.push(next);
        if !sorted {
            (next..).zip(ids.iter()).for_each(|(at, &v)| slot[v as usize] = at);
        }
        next += ids.len() as u32;
    }
    let mut builders: Vec<CsrBuilder> = ids.iter().map(|ids| CsrBuilder::new(ids.len())).collect();
    let (mut cols, mut wts) = (Vec::new(), Vec::new());
    src.try_for_each_row(|u, nbrs, ws| {
        let p = *parts.get(u as usize).ok_or(IoError::Corrupt("more rows than part entries"))?;
        let Some(builder) = builders.get_mut(p as usize) else { return Ok(()) };
        let (lo, len) = (start[p as usize], ids[p as usize].len() as u32);
        // Every neighbor is written; only those inside the part advance
        // the end.
        cols.resize(nbrs.len(), 0);
        wts.resize(nbrs.len(), 0.0);
        let mut kept = 0;
        for (k, &v) in nbrs.iter().enumerate() {
            let at = if sorted { v } else { *slot.get(v as usize).unwrap_or(&u32::MAX) };
            let l = at.wrapping_sub(lo);
            cols[kept] = l;
            if let Some(ws) = ws {
                wts[kept] = ws[k];
            }
            kept += usize::from(l < len);
        }
        builder.push_row(&cols[..kept], ws.map(|_| &wts[..kept]))
    })?;
    // A part whose nodes outnumber `src`'s rows fails in `finish`.
    builders
        .into_iter()
        .zip(ids)
        .map(|(b, ids)| Ok(Subgraph { graph: b.finish()?, num_owned: ids.len(), global_ids: ids }))
        .collect()
}

/// Extracts the subgraph induced by `nodes` plus their 1-hop neighbors as
/// halo (ghost) nodes. Edges among halo nodes are *not* included — only
/// owned↔owned and owned↔halo edges, matching the standard distributed-GNN
/// ghost-node convention.
pub fn halo_subgraph(global: &Csr, nodes: &[u32]) -> Result<Subgraph> {
    if nodes.is_empty() {
        return Err(GraphError::EmptySubset);
    }
    let mut owned = nodes.to_vec();
    owned.sort_unstable();
    owned.dedup();
    for &u in &owned {
        if (u as usize) >= global.num_nodes() {
            return Err(GraphError::NodeOutOfRange { node: u, num_nodes: global.num_nodes() });
        }
    }
    let mut halo: Vec<u32> = Vec::new();
    for &gu in &owned {
        for &gv in global.neighbors(gu) {
            if owned.binary_search(&gv).is_err() {
                halo.push(gv);
            }
        }
    }
    halo.sort_unstable();
    halo.dedup();

    let num_owned = owned.len();
    let total = num_owned + halo.len();
    let mut global_ids = owned.clone();
    global_ids.extend_from_slice(&halo);

    let local = |g: u32| -> Option<u32> {
        if let Ok(i) = owned.binary_search(&g) {
            Some(i as u32)
        } else {
            halo.binary_search(&g).ok().map(|i| (num_owned + i) as u32)
        }
    };

    let mut el = EdgeList::new(total);
    for (lu, &gu) in owned.iter().enumerate() {
        for (k, &gv) in global.neighbors(gu).iter().enumerate() {
            if let Some(lv) = local(gv) {
                let w = global.edge_weight_at(gu, k);
                el.push_weighted(lu as u32, lv, w)?;
                // Mirror owned→halo edges so halo rows see their owned
                // neighbor (needed for symmetric propagation).
                if lv as usize >= num_owned {
                    el.push_weighted(lv, lu as u32, w)?;
                }
            }
        }
    }
    Ok(Subgraph { graph: el.to_csr(), global_ids, num_owned })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square4() -> Csr {
        // 0-1, 1-2, 2-3, 3-0 cycle.
        let mut el = EdgeList::new(4);
        el.push_undirected(0, 1).unwrap();
        el.push_undirected(1, 2).unwrap();
        el.push_undirected(2, 3).unwrap();
        el.push_undirected(3, 0).unwrap();
        el.to_csr()
    }

    #[test]
    fn induced_keeps_internal_edges_only() {
        let g = square4();
        let sgs = induced_subgraphs(&g, &[0, 0, 1, 1], 2).unwrap();
        for (sg, ids) in sgs.iter().zip([[0, 1], [2, 3]]) {
            assert_eq!(sg.graph.num_nodes(), 2);
            assert_eq!(sg.graph.num_edges(), 2); // one edge, both directions
            assert_eq!(sg.global_ids, ids);
            assert_eq!(sg.num_owned, 2);
        }
    }

    #[test]
    fn induced_skips_nodes_in_no_part_and_maps_ids_in_order() {
        let g = square4();
        // Node 1 is in no part; nodes 3 and 0 share part 1, node 2 is
        // alone in part 0.
        let sgs = induced_subgraphs(&g, &[1, 7, 0, 1], 2).unwrap();
        assert_eq!(sgs[0].global_ids, vec![2]);
        assert_eq!(sgs[0].graph.num_edges(), 0);
        assert_eq!(sgs[1].global_ids, vec![0, 3]);
        assert!(sgs[1].graph.has_edge(0, 1)); // local 0=global0, local 1=global3
        assert_eq!(sgs[1].graph.num_edges(), 2);
    }

    #[test]
    fn induced_keeps_edge_weights() {
        // A duplicated edge 0-1 (weight 2 after merging) and a 0.5 edge 1-2.
        let mut el = EdgeList::new(4);
        el.push_undirected(0, 1).unwrap();
        el.push_undirected(0, 1).unwrap();
        el.push_weighted(1, 2, 0.5).unwrap();
        el.push_weighted(2, 1, 0.5).unwrap();
        el.push_undirected(2, 3).unwrap();
        let g = el.to_csr();
        let sgs = induced_subgraphs(&g, &[0, 0, 1, 1], 2).unwrap();
        assert_eq!(sgs[0].graph.weights(), Some(&[2.0f32, 2.0][..]));
        // All-1.0 kept edges store no weights, as `EdgeList::to_csr` does.
        assert_eq!(sgs[1].graph.weights(), None);
        let sgs = induced_subgraphs(&g, &[0, 0, 0, 1], 2).unwrap();
        assert_eq!(sgs[0].graph.weights(), Some(&[2.0f32, 2.0, 0.5, 0.5][..]));
    }

    #[test]
    fn empty_subset_rejected() {
        let g = square4();
        let sgs = induced_subgraphs(&g, &[2, 2, 2, 2], 2).unwrap();
        assert!(sgs.iter().all(|sg| sg.global_ids.is_empty() && sg.graph.num_nodes() == 0));
        assert!(matches!(halo_subgraph(&g, &[]), Err(GraphError::EmptySubset)));
    }

    #[test]
    fn out_of_range_subset_rejected() {
        let g = square4();
        assert!(induced_subgraphs(&g, &[0, 0, 0], 1).is_err());
        assert!(induced_subgraphs(&g, &[0, 0, 0, 0, 0], 1).is_err());
    }

    #[test]
    fn halo_adds_one_hop_ghosts() {
        let g = square4();
        let sg = halo_subgraph(&g, &[0]).unwrap();
        // Owned {0}; ghosts {1, 3}.
        assert_eq!(sg.num_owned, 1);
        assert_eq!(sg.global_ids, vec![0, 1, 3]);
        // Edges 0↔1 and 0↔3 in both directions; none between ghosts 1,3.
        assert_eq!(sg.graph.num_edges(), 4);
        assert!(sg.graph.is_symmetric());
    }
}
