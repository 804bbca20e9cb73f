//! # fedgta-partition — federated subgraph simulation
//!
//! The paper simulates federated clients by splitting a global graph with
//! two community-aware partitioners:
//!
//! - **Louvain** ([`louvain()`]): multi-pass modularity optimization. The
//!   discovered communities are then packed onto `N` clients
//!   ([`assign::communities_to_clients`]), so each client receives whole
//!   communities — the source of the label Non-iid phenomenon in Fig. 1(a).
//! - **Metis-style** ([`metis`]): a from-scratch multilevel k-way
//!   partitioner (heavy-edge matching coarsening → greedy region-growing
//!   initial partition → boundary refinement), balancing client sizes while
//!   cutting few edges.
//!
//! Both produce a [`Partition`]: a per-node client assignment over the
//! global graph.

#![deny(unsafe_code)]

pub mod assign;
pub mod louvain;
pub mod metis;

pub use assign::communities_to_clients;
pub use louvain::{louvain, LouvainConfig};
pub use metis::{metis_kway, MetisConfig};

use fedgta_graph::Csr;

/// A node → part assignment over a global graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// `parts[v]` is the part (community or client) of node `v`.
    pub parts: Vec<u32>,
    /// Number of parts (`max(parts) + 1`, cached).
    pub num_parts: usize,
}

impl Partition {
    /// Wraps a raw assignment vector, computing the part count.
    pub fn new(parts: Vec<u32>) -> Self {
        let num_parts = parts.iter().map(|&p| p as usize + 1).max().unwrap_or(0);
        Self { parts, num_parts }
    }

    /// Node ids belonging to each part, in ascending node order.
    pub fn members(&self) -> Vec<Vec<u32>> {
        let mut out = vec![Vec::new(); self.num_parts];
        for (v, &p) in self.parts.iter().enumerate() {
            out[p as usize].push(v as u32);
        }
        out
    }

    /// Part sizes.
    pub fn sizes(&self) -> Vec<usize> {
        let mut s = vec![0usize; self.num_parts];
        for &p in &self.parts {
            s[p as usize] += 1;
        }
        s
    }

    /// Number of undirected edges crossing parts (each symmetric edge pair
    /// counted once).
    pub fn edge_cut(&self, g: &Csr) -> usize {
        let mut cut = 0usize;
        for u in 0..g.num_nodes() as u32 {
            for &v in g.neighbors(u) {
                if v > u && self.parts[u as usize] != self.parts[v as usize] {
                    cut += 1;
                }
            }
        }
        cut
    }

    /// Relabels parts to consecutive ids `0..k` preserving first-appearance
    /// order, dropping empty parts.
    pub fn compact(&self) -> Partition {
        let mut remap = vec![u32::MAX; self.num_parts.max(1)];
        let mut next = 0u32;
        let mut parts = Vec::with_capacity(self.parts.len());
        for &p in &self.parts {
            let r = &mut remap[p as usize];
            if *r == u32::MAX {
                *r = next;
                next += 1;
            }
            parts.push(*r);
        }
        Partition {
            parts,
            num_parts: next as usize,
        }
    }
}

/// Quality metrics of a partition with respect to a graph and optional
/// node labels — what the CLI's `partition` command and the EXPERIMENTS
/// record report.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionQuality {
    /// Fraction of undirected edges crossing parts.
    pub cut_ratio: f64,
    /// Largest part size divided by the ideal size `n/k`.
    pub imbalance: f64,
    /// Mean over parts of the largest label's share (1.0 = every client
    /// single-class; `1/|Y|` = perfectly uniform). The Fig. 1(a) skew
    /// statistic.
    pub mean_label_skew: f64,
}

impl Partition {
    /// Computes [`PartitionQuality`]; `labels` may be empty to skip the
    /// skew statistic (reported as 0).
    pub fn quality(&self, g: &Csr, labels: &[u32]) -> PartitionQuality {
        let undirected = (g.num_edges() / 2).max(1);
        let cut_ratio = self.edge_cut(g) as f64 / undirected as f64;
        let sizes = self.sizes();
        let ideal = self.parts.len() as f64 / self.num_parts.max(1) as f64;
        let imbalance = sizes.iter().copied().max().unwrap_or(0) as f64 / ideal.max(1e-12);
        let mean_label_skew = if labels.is_empty() {
            0.0
        } else {
            assert_eq!(labels.len(), self.parts.len(), "label length mismatch");
            let classes = labels.iter().map(|&l| l as usize + 1).max().unwrap_or(1);
            let mut skews = Vec::with_capacity(self.num_parts);
            let mut counts = vec![0usize; classes];
            for members in self.members() {
                if members.is_empty() {
                    continue;
                }
                counts.iter_mut().for_each(|c| *c = 0);
                for &v in &members {
                    counts[labels[v as usize] as usize] += 1;
                }
                let top = counts.iter().copied().max().unwrap_or(0);
                skews.push(top as f64 / members.len() as f64);
            }
            skews.iter().sum::<f64>() / skews.len().max(1) as f64
        };
        PartitionQuality {
            cut_ratio,
            imbalance,
            mean_label_skew,
        }
    }
}

/// Errors from partitioning.
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionError {
    /// Requested more parts than nodes.
    TooManyParts { parts: usize, nodes: usize },
    /// Requested zero parts.
    ZeroParts,
    /// An edge weight [`metis_kway`] cannot read as a multiplicity: not an
    /// integer in `1..=2²⁴`.
    EdgeWeight { node: u32, neighbor: u32, weight: f32 },
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::TooManyParts { parts, nodes } => {
                write!(f, "cannot split {nodes} nodes into {parts} parts")
            }
            PartitionError::ZeroParts => write!(f, "number of parts must be positive"),
            PartitionError::EdgeWeight { node, neighbor, weight } => write!(
                f,
                "edge {node} -> {neighbor} has weight {weight}; \
                 Metis takes integer multiplicities in 1..=16777216"
            ),
        }
    }
}

impl std::error::Error for PartitionError {}

#[cfg(test)]
mod tests {
    use super::*;
    use fedgta_graph::EdgeList;

    #[test]
    fn partition_accessors() {
        let p = Partition::new(vec![1, 0, 1, 2]);
        assert_eq!(p.num_parts, 3);
        assert_eq!(p.sizes(), vec![1, 2, 1]);
        assert_eq!(p.members()[1], vec![0, 2]);
    }

    #[test]
    fn edge_cut_counts_undirected_crossings() {
        let mut el = EdgeList::new(4);
        el.push_undirected(0, 1).unwrap();
        el.push_undirected(1, 2).unwrap();
        el.push_undirected(2, 3).unwrap();
        let g = el.to_csr();
        let p = Partition::new(vec![0, 0, 1, 1]);
        assert_eq!(p.edge_cut(&g), 1);
    }

    #[test]
    fn quality_reports_cut_balance_and_skew() {
        // Path 0-1-2-3 split down the middle: 1 of 3 edges cut.
        let mut el = EdgeList::new(4);
        el.push_undirected(0, 1).unwrap();
        el.push_undirected(1, 2).unwrap();
        el.push_undirected(2, 3).unwrap();
        let g = el.to_csr();
        let p = Partition::new(vec![0, 0, 1, 1]);
        let q = p.quality(&g, &[0, 0, 1, 1]);
        assert!((q.cut_ratio - 1.0 / 3.0).abs() < 1e-12);
        assert!((q.imbalance - 1.0).abs() < 1e-12);
        assert!((q.mean_label_skew - 1.0).abs() < 1e-12); // single-class parts
        // Mixed labels lower the skew.
        let q2 = p.quality(&g, &[0, 1, 0, 1]);
        assert!((q2.mean_label_skew - 0.5).abs() < 1e-12);
        // Empty labels skip the statistic.
        assert_eq!(p.quality(&g, &[]).mean_label_skew, 0.0);
    }

    #[test]
    fn compact_drops_gaps() {
        let p = Partition::new(vec![5, 5, 2, 9]);
        let c = p.compact();
        assert_eq!(c.parts, vec![0, 0, 1, 2]);
        assert_eq!(c.num_parts, 3);
    }
}
