//! Coordinate-format edge list: the mutable builder stage before CSR.

use crate::{Csr, GraphError, Result};

/// A growable list of (possibly weighted) directed edges.
///
/// `EdgeList` is the ingestion format: generators and file loaders push edges
/// here, then [`EdgeList::to_csr`] produces the immutable compute format.
/// Duplicate edges are merged (weights summed) during conversion.
#[derive(Debug, Clone, Default)]
pub struct EdgeList {
    num_nodes: usize,
    src: Vec<u32>,
    dst: Vec<u32>,
    weights: Option<Vec<f32>>,
}

impl EdgeList {
    /// Creates an empty edge list over `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        Self { num_nodes, src: Vec::new(), dst: Vec::new(), weights: None }
    }

    /// Creates an empty edge list with capacity for `edges` edges.
    pub fn with_capacity(num_nodes: usize, edges: usize) -> Self {
        Self {
            num_nodes,
            src: Vec::with_capacity(edges),
            dst: Vec::with_capacity(edges),
            weights: None,
        }
    }

    /// Number of nodes this edge list is declared over.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of directed edges currently stored (before dedup).
    pub fn len(&self) -> usize {
        self.src.len()
    }

    /// True when no edges have been added.
    pub fn is_empty(&self) -> bool {
        self.src.is_empty()
    }

    /// Adds a directed edge `u -> v` with unit weight.
    pub fn push(&mut self, u: u32, v: u32) -> Result<()> {
        self.check(u)?;
        self.check(v)?;
        if let Some(w) = &mut self.weights {
            w.push(1.0);
        }
        self.src.push(u);
        self.dst.push(v);
        Ok(())
    }

    /// Adds a directed edge `u -> v` with an explicit weight.
    ///
    /// Mixing weighted and unweighted pushes is allowed; unweighted edges
    /// count as weight `1.0`.
    pub fn push_weighted(&mut self, u: u32, v: u32, w: f32) -> Result<()> {
        self.check(u)?;
        self.check(v)?;
        let ws = self.weights.get_or_insert_with(|| vec![1.0; self.src.len()]);
        ws.push(w);
        self.src.push(u);
        self.dst.push(v);
        Ok(())
    }

    /// Adds both `u -> v` and `v -> u` with unit weight.
    pub fn push_undirected(&mut self, u: u32, v: u32) -> Result<()> {
        self.push(u, v)?;
        if u != v {
            self.push(v, u)?;
        }
        Ok(())
    }

    fn check(&self, node: u32) -> Result<()> {
        if (node as usize) >= self.num_nodes {
            return Err(GraphError::NodeOutOfRange { node, num_nodes: self.num_nodes });
        }
        Ok(())
    }

    /// Converts into CSR, sorting edges and merging duplicates (weights are
    /// summed; unit weights therefore count multiplicity).
    pub fn to_csr(&self) -> Csr {
        let n = self.num_nodes;
        let nnz = self.src.len();
        // Counting sort by source row: O(n + m), cache-friendly, no comparison sort.
        let mut counts = vec![0usize; n + 1];
        for &s in &self.src {
            counts[s as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let mut cols = vec![0u32; nnz];
        let mut vals = vec![0f32; nnz];
        let mut cursor = counts.clone();
        for e in 0..nnz {
            let row = self.src[e] as usize;
            let slot = cursor[row];
            cursor[row] += 1;
            cols[slot] = self.dst[e];
            vals[slot] = self.weights.as_ref().map_or(1.0, |w| w[e]);
        }
        // Sort within each row and merge duplicates.
        let mut indptr = vec![0usize; n + 1];
        let mut out_cols: Vec<u32> = Vec::with_capacity(nnz);
        let mut out_vals: Vec<f32> = Vec::with_capacity(nnz);
        let mut scratch: Vec<(u32, f32)> = Vec::new();
        for row in 0..n {
            let (lo, hi) = (counts[row], counts[row + 1]);
            scratch.clear();
            scratch.extend(cols[lo..hi].iter().copied().zip(vals[lo..hi].iter().copied()));
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < scratch.len() {
                let (c, mut w) = scratch[i];
                let mut j = i + 1;
                while j < scratch.len() && scratch[j].0 == c {
                    w += scratch[j].1;
                    j += 1;
                }
                out_cols.push(c);
                out_vals.push(w);
                i = j;
            }
            indptr[row + 1] = out_cols.len();
        }
        let uniform = out_vals.iter().all(|&w| w == 1.0);
        Csr::from_raw_parts(indptr, out_cols, if uniform { None } else { Some(out_vals) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_edge_list_builds_empty_csr() {
        let el = EdgeList::new(4);
        let g = el.to_csr();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn push_out_of_range_is_rejected() {
        let mut el = EdgeList::new(3);
        assert!(matches!(el.push(0, 3), Err(GraphError::NodeOutOfRange { node: 3, .. })));
    }

    #[test]
    fn duplicates_merge_and_sum_weights() {
        let mut el = EdgeList::new(3);
        el.push_weighted(0, 1, 2.0).unwrap();
        el.push_weighted(0, 1, 3.0).unwrap();
        el.push(0, 2).unwrap();
        let g = el.to_csr();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.edge_weight_at(0, 0), 5.0);
        assert_eq!(g.edge_weight_at(0, 1), 1.0);
    }

    #[test]
    fn undirected_push_adds_both_directions() {
        let mut el = EdgeList::new(3);
        el.push_undirected(0, 2).unwrap();
        el.push_undirected(1, 1).unwrap(); // self loop added once
        let g = el.to_csr();
        assert_eq!(g.neighbors(0), &[2]);
        assert_eq!(g.neighbors(2), &[0]);
        assert_eq!(g.neighbors(1), &[1]);
    }

    #[test]
    fn rows_are_sorted_after_conversion() {
        let mut el = EdgeList::new(5);
        for &v in &[4u32, 1, 3, 2] {
            el.push(0, v).unwrap();
        }
        let g = el.to_csr();
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4]);
    }

    #[test]
    fn mixed_weighted_unweighted_pushes() {
        let mut el = EdgeList::new(2);
        el.push(0, 1).unwrap();
        el.push_weighted(1, 0, 2.5).unwrap();
        let g = el.to_csr();
        assert_eq!(g.edge_weight_at(0, 0), 1.0);
        assert_eq!(g.edge_weight_at(1, 0), 2.5);
    }
}
