//! Structural graph metrics: edge homophily, modularity, degree statistics.
//!
//! These validate two pillars of the reproduction: the synthetic generator
//! must produce homophilous graphs (the paper's premise that "linked nodes
//! are similar in both feature distributions and labels"), and the Louvain
//! partitioner must find high-modularity communities.

use crate::Csr;

/// Fraction of edges whose endpoints share a label (edge homophily ratio).
///
/// Counts stored directed edges; on symmetric graphs this equals the
/// undirected ratio. Self-loops are skipped. Returns 0 for edgeless graphs.
pub fn edge_homophily(g: &Csr, labels: &[u32]) -> f64 {
    assert_eq!(labels.len(), g.num_nodes());
    let mut same = 0usize;
    let mut total = 0usize;
    for u in 0..g.num_nodes() as u32 {
        for &v in g.neighbors(u) {
            if v == u {
                continue;
            }
            total += 1;
            if labels[u as usize] == labels[v as usize] {
                same += 1;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        same as f64 / total as f64
    }
}

/// Newman modularity `Q` of a node partition on an undirected weighted
/// graph (stored as symmetric CSR).
///
/// `Q = Σ_c (e_c / m − (d_c / 2m)²)` where `e_c` is intra-community edge
/// weight (each undirected edge counted once), `d_c` total weighted degree
/// of community `c`, and `m` the total undirected edge weight.
pub fn modularity(g: &Csr, community: &[u32]) -> f64 {
    assert_eq!(community.len(), g.num_nodes());
    let two_m = g.total_weight(); // symmetric storage counts each edge twice
    if two_m == 0.0 {
        return 0.0;
    }
    let ncomm = community.iter().map(|&c| c as usize + 1).max().unwrap_or(0);
    let mut intra = vec![0f64; ncomm]; // directed-edge weight inside c
    let mut deg = vec![0f64; ncomm];
    for u in 0..g.num_nodes() as u32 {
        let cu = community[u as usize] as usize;
        deg[cu] += g.weighted_degree(u) as f64;
        for (k, &v) in g.neighbors(u).iter().enumerate() {
            if community[v as usize] as usize == cu {
                intra[cu] += g.edge_weight_at(u, k) as f64;
            }
        }
    }
    let mut q = 0.0;
    for c in 0..ncomm {
        q += intra[c] / two_m - (deg[c] / two_m).powi(2);
    }
    q
}

/// Summary degree statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeStats {
    pub min: usize,
    pub max: usize,
    pub mean: f64,
}

/// Computes min/max/mean out-degree.
pub fn degree_stats(g: &Csr) -> DegreeStats {
    let n = g.num_nodes();
    if n == 0 {
        return DegreeStats { min: 0, max: 0, mean: 0.0 };
    }
    let mut min = usize::MAX;
    let mut max = 0usize;
    let mut sum = 0usize;
    for u in 0..n as u32 {
        let d = g.degree(u);
        min = min.min(d);
        max = max.max(d);
        sum += d;
    }
    DegreeStats { min, max, mean: sum as f64 / n as f64 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EdgeList;

    fn two_cliques() -> (Csr, Vec<u32>) {
        // Two triangles {0,1,2}, {3,4,5} joined by one edge 2-3.
        let mut el = EdgeList::new(6);
        for &(a, b) in &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)] {
            el.push_undirected(a, b).unwrap();
        }
        (el.to_csr(), vec![0, 0, 0, 1, 1, 1])
    }

    #[test]
    fn homophily_counts_same_label_edges() {
        let (g, labels) = two_cliques();
        // 7 undirected edges, 6 intra-label.
        let h = edge_homophily(&g, &labels);
        assert!((h - 6.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn homophily_of_edgeless_graph_is_zero() {
        let g = Csr::empty(3);
        assert_eq!(edge_homophily(&g, &[0, 1, 2]), 0.0);
    }

    #[test]
    fn modularity_positive_for_community_structure() {
        let (g, labels) = two_cliques();
        let q_good = modularity(&g, &labels);
        let q_bad = modularity(&g, &[0, 1, 0, 1, 0, 1]);
        assert!(q_good > 0.3, "q_good = {q_good}");
        assert!(q_good > q_bad);
    }

    #[test]
    fn modularity_of_single_community_is_near_zero() {
        let (g, _) = two_cliques();
        let q = modularity(&g, &[0; 6]);
        assert!(q.abs() < 1e-9);
    }

    #[test]
    fn degree_stats_basic() {
        let (g, _) = two_cliques();
        let s = degree_stats(&g);
        assert_eq!(s.min, 2);
        assert_eq!(s.max, 3);
        assert!((s.mean - 14.0 / 6.0).abs() < 1e-12);
    }
}
