//! The GCN normalization family `Ã = D̂^{r-1} Â D̂^{-r}` (paper Eq. 1).
//!
//! With `Â = A + I` and `D̂` its degree matrix:
//! - `r = 0.5` gives the symmetric normalization `D̂^{-1/2} Â D̂^{-1/2}`
//!   used by GCN/SGC and by FedGTA's non-parametric label propagation;
//! - `r = 1` gives the column-stochastic `Â D̂^{-1}`;
//! - `r = 0` gives the row-stochastic random-walk matrix `D̂^{-1} Â`
//!   (the mean aggregator of GraphSAGE).

use crate::store::{normalize_stream, CsrBuilder};
use crate::Csr;

/// Which member of the normalization family to build.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NormKind {
    /// `D̂^{-1/2} Â D̂^{-1/2}` — the GCN default (`r = 0.5`).
    Symmetric,
    /// `D̂^{-1} Â` — row-stochastic / mean aggregation (`r = 0`).
    RowStochastic,
    /// `Â D̂^{-1}` — column-stochastic (`r = 1`).
    ColumnStochastic,
    /// Arbitrary propagation-kernel coefficient `r ∈ [0, 1]`.
    Kernel(f32),
}

impl NormKind {
    pub(crate) fn r(self) -> f32 {
        match self {
            NormKind::Symmetric => 0.5,
            NormKind::RowStochastic => 0.0,
            NormKind::ColumnStochastic => 1.0,
            NormKind::Kernel(r) => r,
        }
    }
}

/// Builds the normalized adjacency `D̂^{r-1} Â D̂^{-r}` as a weighted CSR.
///
/// Self-loops are added first (`Â = A + I`) so isolated nodes get weight-1
/// self-edges rather than divisions by zero. The input's own edge weights
/// participate in the weighted degree. [`normalize_stream`] over the
/// in-memory rows, which also hands back `D̂`.
pub fn normalized_adjacency(graph: &Csr, kind: NormKind) -> Csr {
    let sink = CsrBuilder::new(graph.num_nodes()).keep_weights();
    normalize_stream(graph, kind, sink).expect("an in-memory graph's rows").0
}

/// The normalization with `Â` materialized first — its degrees taken from
/// it, then every edge scaled: the oracle both [`normalize_stream`] paths
/// are checked against.
#[cfg(test)]
pub(crate) fn normalized_adjacency_oracle(graph: &Csr, kind: NormKind) -> Csr {
    let hat = graph.with_self_loops();
    let n = hat.num_nodes();
    let deg: Vec<f32> = (0..n as u32).map(|u| hat.weighted_degree(u)).collect();
    let r = kind.r();
    let left: Vec<f32> = deg.iter().map(|&d| d.powf(r - 1.0)).collect();
    let right: Vec<f32> = deg.iter().map(|&d| d.powf(-r)).collect();
    let mut weights = Vec::with_capacity(hat.num_edges());
    for u in 0..n as u32 {
        let lu = left[u as usize];
        for (k, &v) in hat.neighbors(u).iter().enumerate() {
            let w = hat.edge_weight_at(u, k);
            weights.push(lu * w * right[v as usize]);
        }
    }
    Csr::from_raw_parts(hat.indptr().to_vec(), hat.indices().to_vec(), Some(weights))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EdgeList;

    fn path3() -> Csr {
        let mut el = EdgeList::new(3);
        el.push_undirected(0, 1).unwrap();
        el.push_undirected(1, 2).unwrap();
        el.to_csr()
    }

    fn approx(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-6
    }

    #[test]
    fn row_stochastic_rows_sum_to_one() {
        let g = normalized_adjacency(&path3(), NormKind::RowStochastic);
        for u in 0..3u32 {
            let s: f32 = g.neighbor_weights(u).unwrap().iter().sum();
            assert!(approx(s, 1.0), "row {u} sums to {s}");
        }
    }

    #[test]
    fn column_stochastic_columns_sum_to_one() {
        let g = normalized_adjacency(&path3(), NormKind::ColumnStochastic);
        let mut colsum = [0f32; 3];
        for u in 0..3u32 {
            for (k, &v) in g.neighbors(u).iter().enumerate() {
                colsum[v as usize] += g.edge_weight_at(u, k);
            }
        }
        for (c, s) in colsum.iter().enumerate() {
            assert!(approx(*s, 1.0), "column {c} sums to {s}");
        }
    }

    #[test]
    fn symmetric_norm_matches_hand_computation() {
        // Path 0-1-2 with self loops: deg = [2, 3, 2].
        let g = normalized_adjacency(&path3(), NormKind::Symmetric);
        // Edge (0,1): 1/sqrt(2*3).
        let w01 = g.edge_weight_at(0, 1);
        assert!(approx(w01, 1.0 / (6.0f32).sqrt()));
        // Self loop (1,1): 1/3.
        let idx = g.neighbors(1).iter().position(|&v| v == 1).unwrap();
        assert!(approx(g.edge_weight_at(1, idx), 1.0 / 3.0));
    }

    #[test]
    fn symmetric_norm_is_symmetric_in_weights() {
        let g = normalized_adjacency(&path3(), NormKind::Symmetric);
        for u in 0..3u32 {
            for (k, &v) in g.neighbors(u).iter().enumerate() {
                let kv = g.neighbors(v).iter().position(|&x| x == u).unwrap();
                assert!(approx(g.edge_weight_at(u, k), g.edge_weight_at(v, kv)));
            }
        }
    }

    #[test]
    fn kernel_half_equals_symmetric() {
        let a = normalized_adjacency(&path3(), NormKind::Symmetric);
        let b = normalized_adjacency(&path3(), NormKind::Kernel(0.5));
        assert_eq!(a, b);
    }

    #[test]
    fn isolated_node_gets_unit_self_loop() {
        let el = EdgeList::new(1);
        let g = normalized_adjacency(&el.to_csr(), NormKind::Symmetric);
        assert_eq!(g.neighbors(0), &[0]);
        assert!(approx(g.edge_weight_at(0, 0), 1.0));
    }
}
