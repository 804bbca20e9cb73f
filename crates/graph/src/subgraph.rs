//! Subgraph extraction — how federated clients are carved out of the
//! global graph.
//!
//! Two flavors:
//! - [`induced_subgraph`]: keeps only edges with *both* endpoints in the
//!   owned set (the Louvain/Metis split of the paper — clients lose
//!   cross-client edges);
//! - [`halo_subgraph`]: additionally materializes 1-hop ghost neighbors so
//!   subgraphs of different clients overlap (required by FedGL's
//!   overlapping-node supervision and FedSage+'s hidden-neighbor protocol).

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

impl Subgraph {
    /// Local id of a global node, if present.
    pub fn local_of(&self, global: u32) -> Option<u32> {
        // Owned prefix and halo suffix are each sorted; binary search both.
        let owned = &self.global_ids[..self.num_owned];
        if let Ok(i) = owned.binary_search(&global) {
            return Some(i as u32);
        }
        let halo = &self.global_ids[self.num_owned..];
        halo.binary_search(&global).ok().map(|i| (self.num_owned + i) as u32)
    }
}

fn sorted_unique(nodes: &[u32]) -> Vec<u32> {
    let mut v = nodes.to_vec();
    v.sort_unstable();
    v.dedup();
    v
}

/// Extracts the subgraph induced by `nodes` (edges with both endpoints in
/// the set). `nodes` need not be sorted; duplicates are ignored.
pub fn induced_subgraph(global: &Csr, nodes: &[u32]) -> Result<Subgraph> {
    if nodes.is_empty() {
        return Err(GraphError::EmptySubset);
    }
    let owned = sorted_unique(nodes);
    for &u in &owned {
        if (u as usize) >= global.num_nodes() {
            return Err(GraphError::NodeOutOfRange { node: u, num_nodes: global.num_nodes() });
        }
    }
    let mut el = EdgeList::new(owned.len());
    for (lu, &gu) in owned.iter().enumerate() {
        for (k, &gv) in global.neighbors(gu).iter().enumerate() {
            if let Ok(lv) = owned.binary_search(&gv) {
                let w = global.edge_weight_at(gu, k);
                el.push_weighted(lu as u32, lv as u32, w)?;
            }
        }
    }
    let num_owned = owned.len();
    Ok(Subgraph { graph: el.to_csr(), global_ids: owned, num_owned })
}

/// Extracts the subgraph induced by `nodes` plus their 1-hop neighbors as
/// halo (ghost) nodes. Edges among halo nodes are *not* included — only
/// owned↔owned and owned↔halo edges, matching the standard distributed-GNN
/// ghost-node convention.
pub fn halo_subgraph(global: &Csr, nodes: &[u32]) -> Result<Subgraph> {
    if nodes.is_empty() {
        return Err(GraphError::EmptySubset);
    }
    let owned = sorted_unique(nodes);
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
        let sg = induced_subgraph(&g, &[0, 1]).unwrap();
        assert_eq!(sg.graph.num_nodes(), 2);
        assert_eq!(sg.graph.num_edges(), 2); // 0-1 both directions
        assert_eq!(sg.global_ids, vec![0, 1]);
        assert_eq!(sg.num_owned, 2);
    }

    #[test]
    fn induced_handles_unsorted_duplicate_input() {
        let g = square4();
        let sg = induced_subgraph(&g, &[3, 0, 3]).unwrap();
        assert_eq!(sg.global_ids, vec![0, 3]);
        assert!(sg.graph.has_edge(0, 1)); // local 0=global0, local 1=global3
    }

    #[test]
    fn empty_subset_rejected() {
        let g = square4();
        assert!(matches!(induced_subgraph(&g, &[]), Err(GraphError::EmptySubset)));
        assert!(matches!(halo_subgraph(&g, &[]), Err(GraphError::EmptySubset)));
    }

    #[test]
    fn out_of_range_subset_rejected() {
        let g = square4();
        assert!(induced_subgraph(&g, &[9]).is_err());
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

    #[test]
    fn local_of_finds_owned_and_halo() {
        let g = square4();
        let sg = halo_subgraph(&g, &[0, 2]).unwrap();
        assert_eq!(sg.local_of(0), Some(0));
        assert_eq!(sg.local_of(2), Some(1));
        assert!(sg.local_of(1).is_some()); // ghost
        let missing: Vec<u32> = (0..4).filter(|g| sg.local_of(*g).is_none()).collect();
        assert!(missing.is_empty()); // cycle: every node is owned or ghost
    }
}
