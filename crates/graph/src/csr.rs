//! Compressed sparse row adjacency — the immutable compute format.

use crate::{GraphError, Result};

/// A sparse matrix / graph adjacency in compressed sparse row form.
///
/// Row `i`'s neighbors occupy `indices[indptr[i]..indptr[i+1]]`, sorted
/// ascending with no duplicates (guaranteed when built through
/// [`crate::EdgeList::to_csr`]). `weights`, when present, is parallel to
/// `indices`; absence means every edge has weight `1.0`.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    indptr: Vec<usize>,
    indices: Vec<u32>,
    weights: Option<Vec<f32>>,
    /// The SpMM row schedule, one byte per row: the rows of each
    /// [`SCHEDULE_TILE`]-row tile `t` as offsets from `t·SCHEDULE_TILE`,
    /// in stable ascending order of degree (degrees from
    /// `SCHEDULE_TILE − 1` on count as one). [`crate::spmm`] visits a
    /// tile's rows in this order so that rows of equal neighbor count run
    /// back to back and the neighbor loop's exit branch is predicted (see
    /// its module header). Empty when that order is row order in every
    /// tile — no edges, or degrees that never fall within a tile — so such
    /// a graph holds no schedule. A function of `indptr` alone, built once
    /// by [`Csr::from_raw_parts`], so `clone` and `==` carry it without
    /// changing what they mean.
    schedule: Vec<u8>,
}

/// Rows per tile of [`Csr`]'s SpMM row schedule: the size that measured
/// best on `sbm1m` client graphs (see [`crate::spmm`]), small enough that
/// a tile's output rows stay in L1 while they are written out of order
/// and that a row's offset fits a byte.
pub(crate) const SCHEDULE_TILE: usize = 64;

/// A tile's offsets in row order: the schedule of a tile that needs none.
static ROW_ORDER: [u8; SCHEDULE_TILE] = {
    let mut order = [0u8; SCHEDULE_TILE];
    let mut o = 0;
    while o < SCHEDULE_TILE {
        order[o] = o as u8;
        o += 1;
    }
    order
};

/// [`Csr`]'s row schedule over `indptr` (see the field's doc): a counting
/// sort per tile, whose keys stop at `SCHEDULE_TILE − 1` so that a tile's
/// counts fit on the stack. A row that long pays one mispredicted exit
/// over dozens of iterations, so ordering it further would buy nothing.
fn degree_schedule(indptr: &[usize]) -> Vec<u8> {
    let n = indptr.len().saturating_sub(1);
    let key = |r: usize| (indptr[r + 1] - indptr[r]).min(SCHEDULE_TILE - 1);
    if (1..n).all(|r| r % SCHEDULE_TILE == 0 || key(r - 1) <= key(r)) {
        return Vec::new();
    }
    let mut schedule = vec![0u8; n];
    for t0 in (0..n).step_by(SCHEDULE_TILE) {
        let rows = t0..(t0 + SCHEDULE_TILE).min(n);
        // `slot[k]`: where the next row of key `k` goes, from `t0`.
        let mut slot = [0u8; SCHEDULE_TILE + 1];
        for r in rows.clone() {
            slot[key(r) + 1] += 1;
        }
        for k in 1..=SCHEDULE_TILE {
            slot[k] += slot[k - 1];
        }
        for r in rows {
            let k = key(r);
            schedule[t0 + slot[k] as usize] = (r - t0) as u8;
            slot[k] += 1;
        }
    }
    schedule
}

/// Where row `u`'s self-loop sits in its neighbor list `cols`: before the
/// first neighbor `>= u`, and whether that neighbor is `u` itself. The one
/// self-loop rule of `Â = A + I` ([`push_hat_row`]; the normalization's
/// degrees).
pub(crate) fn self_loop_slot(u: u32, cols: &[u32]) -> (usize, bool) {
    let at = cols.iter().position(|&v| v >= u).unwrap_or(cols.len());
    (at, cols.get(at) == Some(&u))
}

/// Appends row `u` of `Â = A + I` to `cols_out` (its weights, when the
/// caller keeps them, to `ws_out`): the stored row, with a weight-1.0 loop
/// inserted at [`self_loop_slot`] when it has none. `None` weights are
/// 1.0.
pub(crate) fn push_hat_row(
    u: u32,
    cols: &[u32],
    ws: Option<&[f32]>,
    cols_out: &mut Vec<u32>,
    ws_out: Option<&mut Vec<f32>>,
) {
    let (at, looped) = self_loop_slot(u, cols);
    cols_out.extend_from_slice(&cols[..at]);
    if !looped {
        cols_out.push(u);
    }
    cols_out.extend_from_slice(&cols[at..]);
    if let Some(out) = ws_out {
        match ws {
            Some(ws) => {
                out.extend_from_slice(&ws[..at]);
                if !looped {
                    out.push(1.0);
                }
                out.extend_from_slice(&ws[at..]);
            }
            None => out.resize(out.len() + cols.len() + usize::from(!looped), 1.0),
        }
    }
}

impl Csr {
    /// Assembles a CSR from raw parts — the one constructor every `Csr`
    /// goes through, which builds its SpMM row schedule.
    ///
    /// Invariants (checked by debug assertions): `indptr` is monotone,
    /// starts at 0, ends at `indices.len()`; weights, if given, match the
    /// edge count.
    pub fn from_raw_parts(
        indptr: Vec<usize>,
        indices: Vec<u32>,
        weights: Option<Vec<f32>>,
    ) -> Self {
        debug_assert!(!indptr.is_empty());
        debug_assert_eq!(indptr[0], 0);
        debug_assert_eq!(*indptr.last().unwrap(), indices.len());
        debug_assert!(indptr.windows(2).all(|w| w[0] <= w[1]));
        if let Some(w) = &weights {
            debug_assert_eq!(w.len(), indices.len());
        }
        let schedule = degree_schedule(&indptr);
        Self { indptr, indices, weights, schedule }
    }

    /// An empty graph over `n` nodes.
    pub fn empty(n: usize) -> Self {
        Self::from_raw_parts(vec![0; n + 1], Vec::new(), None)
    }

    /// Number of nodes (rows).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.indptr.len() - 1
    }

    /// Number of stored directed edges (nnz).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.indices.len()
    }

    /// Neighbor ids of node `u` (sorted ascending).
    #[inline]
    pub fn neighbors(&self, u: u32) -> &[u32] {
        let u = u as usize;
        &self.indices[self.indptr[u]..self.indptr[u + 1]]
    }

    /// Edge weights of node `u`'s incident edges, parallel to
    /// [`Csr::neighbors`]; `None` when the graph is unweighted.
    #[inline]
    pub fn neighbor_weights(&self, u: u32) -> Option<&[f32]> {
        let u = u as usize;
        self.weights.as_ref().map(|w| &w[self.indptr[u]..self.indptr[u + 1]])
    }

    /// The weight of the `k`-th edge out of node `u` (1.0 when unweighted).
    #[inline]
    pub fn edge_weight_at(&self, u: u32, k: usize) -> f32 {
        match &self.weights {
            Some(w) => w[self.indptr[u as usize] + k],
            None => 1.0,
        }
    }

    /// Out-degree of node `u` (edge count, ignoring weights).
    #[inline]
    pub fn degree(&self, u: u32) -> usize {
        let u = u as usize;
        self.indptr[u + 1] - self.indptr[u]
    }

    /// Weighted out-degree of node `u` (sum of incident edge weights).
    pub fn weighted_degree(&self, u: u32) -> f32 {
        match self.neighbor_weights(u) {
            Some(w) => w.iter().sum(),
            None => self.degree(u) as f32,
        }
    }

    /// Raw row offsets.
    #[inline]
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Raw column indices.
    #[inline]
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Raw weights (absent for unweighted graphs).
    #[inline]
    pub fn weights(&self) -> Option<&[f32]> {
        self.weights.as_deref()
    }

    /// The rows of the [`SCHEDULE_TILE`]-row tile that starts at row `t0`,
    /// as offsets from `t0` in the order the SpMM visits them (see the
    /// `schedule` field).
    #[inline]
    pub(crate) fn tile_schedule(&self, t0: usize) -> &[u8] {
        let len = (self.num_nodes() - t0).min(SCHEDULE_TILE);
        if self.schedule.is_empty() {
            &ROW_ORDER[..len]
        } else {
            &self.schedule[t0..t0 + len]
        }
    }

    /// Whether node `u` has an edge to `v` (binary search: O(log deg)).
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Total edge weight (sum over all stored directed edges).
    pub fn total_weight(&self) -> f64 {
        match &self.weights {
            Some(w) => w.iter().map(|&x| x as f64).sum(),
            None => self.num_edges() as f64,
        }
    }

    /// Returns a copy with a unit self-loop added to every node that lacks
    /// one — Â = A + I, the first step of GCN normalization.
    pub fn with_self_loops(&self) -> Csr {
        let n = self.num_nodes();
        let mut indptr = Vec::with_capacity(n + 1);
        let mut indices = Vec::with_capacity(self.num_edges() + n);
        let mut weights = self.weights.as_ref().map(|_| Vec::with_capacity(self.num_edges() + n));
        indptr.push(0);
        for u in 0..n as u32 {
            let ws = self.neighbor_weights(u);
            push_hat_row(u, self.neighbors(u), ws, &mut indices, weights.as_mut());
            indptr.push(indices.len());
        }
        Csr::from_raw_parts(indptr, indices, weights)
    }

    /// Transpose (reverse all edges). For symmetric graphs this is a
    /// (possibly reordered-weight) identity operation.
    pub fn transpose(&self) -> Csr {
        let n = self.num_nodes();
        let mut counts = vec![0usize; n + 1];
        for &v in &self.indices {
            counts[v as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let mut cursor = counts.clone();
        let mut indices = vec![0u32; self.num_edges()];
        let mut weights = self.weights.as_ref().map(|_| vec![0f32; self.num_edges()]);
        for u in 0..n as u32 {
            for (k, &v) in self.neighbors(u).iter().enumerate() {
                let slot = cursor[v as usize];
                cursor[v as usize] += 1;
                indices[slot] = u;
                if let Some(w) = &mut weights {
                    w[slot] = self.edge_weight_at(u, k);
                }
            }
        }
        Csr::from_raw_parts(counts, indices, weights)
    }

    /// True when the adjacency structure (ignoring weights) is symmetric.
    pub fn is_symmetric(&self) -> bool {
        (0..self.num_nodes() as u32).all(|u| self.neighbors(u).iter().all(|&v| self.has_edge(v, u)))
    }

    /// Validates that all column indices are in range; used after
    /// deserialization or manual construction.
    pub fn validate(&self) -> Result<()> {
        let n = self.num_nodes();
        for &v in &self.indices {
            if (v as usize) >= n {
                return Err(GraphError::NodeOutOfRange { node: v, num_nodes: n });
            }
        }
        if let Some(w) = &self.weights {
            if w.len() != self.indices.len() {
                return Err(GraphError::WeightLengthMismatch {
                    edges: self.indices.len(),
                    weights: w.len(),
                });
            }
        }
        Ok(())
    }
}

/// A test graph whose row degrees the SpMM row schedule has to reorder:
/// row `u` has `(u / 3) % (max_degree + 1)` out-edges — runs of three
/// equal degrees, and rows with none — to `(u + 1 + 7d) % n`, distinct
/// while `7 · max_degree < n`, except row `hub`, which links to every row.
/// Weighted edges carry negative and positive weights.
#[cfg(test)]
pub(crate) fn skewed_rows(n: u32, max_degree: u32, hub: u32, weighted: bool) -> Csr {
    assert!(7 * max_degree < n && hub < n);
    let mut el = crate::EdgeList::new(n as usize);
    let mut push = |u: u32, v: u32| {
        if weighted {
            el.push_weighted(u, v, ((u * 31 + v * 17) % 23) as f32 * 0.125 - 1.4).unwrap();
        } else {
            el.push(u, v).unwrap();
        }
    };
    for u in 0..n {
        if u == hub {
            (0..n).for_each(|v| push(u, v));
        } else {
            (0..(u / 3) % (max_degree + 1)).for_each(|d| push(u, (u + 1 + 7 * d) % n));
        }
    }
    el.to_csr()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EdgeList;

    fn path3() -> Csr {
        // 0 - 1 - 2 undirected path
        let mut el = EdgeList::new(3);
        el.push_undirected(0, 1).unwrap();
        el.push_undirected(1, 2).unwrap();
        el.to_csr()
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = path3();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.weighted_degree(1), 2.0);
    }

    #[test]
    fn self_loops_inserted_in_sorted_position() {
        let g = path3().with_self_loops();
        assert_eq!(g.neighbors(0), &[0, 1]);
        assert_eq!(g.neighbors(1), &[0, 1, 2]);
        assert_eq!(g.neighbors(2), &[1, 2]);
        // Idempotent on structure: nodes that already have loops keep one.
        let g2 = g.with_self_loops();
        assert_eq!(g2.num_edges(), g.num_edges());
    }

    #[test]
    fn transpose_of_symmetric_graph_is_identical() {
        let g = path3();
        assert!(g.is_symmetric());
        assert_eq!(g.transpose(), g);
    }

    #[test]
    fn transpose_reverses_directed_edges() {
        let mut el = EdgeList::new(3);
        el.push(0, 1).unwrap();
        el.push(0, 2).unwrap();
        let g = el.to_csr();
        assert!(!g.is_symmetric());
        let t = g.transpose();
        assert_eq!(t.neighbors(1), &[0]);
        assert_eq!(t.neighbors(2), &[0]);
        assert!(t.neighbors(0).is_empty());
    }

    #[test]
    fn has_edge_binary_search() {
        let g = path3();
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    fn empty_graph() {
        let g = Csr::empty(5);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 0);
        assert!(g.is_symmetric());
        assert!(g.validate().is_ok());
    }

    #[test]
    fn validate_catches_out_of_range() {
        let g = Csr::from_raw_parts(vec![0, 1], vec![7], None);
        assert!(g.validate().is_err());
    }

    #[test]
    fn schedule_is_a_stable_degree_sort_of_each_tile_and_travels_with_clone() {
        // 150 rows: two full tiles and a ragged one; the hub's degree is
        // past the last key.
        let g = skewed_rows(150, 9, 70, false);
        assert!(g.degree(70) >= SCHEDULE_TILE);
        let tiles = |g: &Csr| -> Vec<Vec<u8>> {
            (0..g.num_nodes())
                .step_by(SCHEDULE_TILE)
                .map(|t0| g.tile_schedule(t0).to_vec())
                .collect()
        };
        for (tile, got) in tiles(&g).iter().enumerate() {
            let t0 = tile * SCHEDULE_TILE;
            let mut want: Vec<u8> = (0..got.len() as u8).collect();
            want.sort_by_key(|&o| g.degree(t0 as u32 + o as u32).min(SCHEDULE_TILE - 1)); // stable
            assert_eq!(got, &want, "tile at {t0}");
        }
        assert_eq!(*tiles(&g)[1].last().unwrap() as usize, 70 - SCHEDULE_TILE, "the hub goes last");
        let copy = g.clone();
        assert_eq!(tiles(&copy), tiles(&g));
        assert_eq!(copy, g);
        // Row order needs no schedule; the accessor still walks every row.
        let mut cycle = EdgeList::new(70);
        (0..70).for_each(|u| cycle.push_undirected(u, (u + 1) % 70).unwrap());
        for g in [Csr::empty(100), Csr::empty(0), cycle.to_csr()] {
            assert!(g.schedule.is_empty());
            let walked: Vec<u8> = tiles(&g).concat();
            assert_eq!(
                walked,
                (0..g.num_nodes()).map(|r| (r % SCHEDULE_TILE) as u8).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn total_weight_counts_edges_when_unweighted() {
        assert_eq!(path3().total_weight(), 4.0);
    }
}
