//! Metis-style multilevel k-way graph partitioning, from scratch.
//!
//! The three classic phases (Karypis & Kumar 1998):
//!
//! 1. **Coarsening** ([`matching`]) — heavy-edge matching collapses matched
//!    node pairs into super-nodes until the graph is small;
//! 2. **Initial partitioning** ([`initial`]) — a BFS-ordered contiguous
//!    chunking of the coarsest graph into `k` weight-balanced parts;
//! 3. **Uncoarsening + refinement** ([`refine`]) — the partition is
//!    projected back level by level, with greedy boundary moves (the FM
//!    gain rule) reducing edge cut under a balance constraint.

pub mod initial;
pub mod matching;
pub mod refine;

use crate::{Partition, PartitionError};
use fedgta_graph::Csr;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration for the multilevel k-way partitioner.
#[derive(Debug, Clone)]
pub struct MetisConfig {
    /// RNG seed (matching order, initial seeds).
    pub seed: u64,
    /// Stop coarsening when the graph has at most `coarsen_factor * k`
    /// nodes.
    pub coarsen_factor: usize,
    /// Allowed part weight over the perfect balance (`1.05` = 5% slack).
    pub imbalance: f64,
    /// Refinement passes per uncoarsening level.
    pub refine_passes: usize,
}

impl Default for MetisConfig {
    fn default() -> Self {
        Self { seed: 0, coarsen_factor: 30, imbalance: 1.05, refine_passes: 8 }
    }
}

/// The largest edge weight [`metis_kway`] accepts: `2²⁴`, the last point up
/// to which an `f32` holds every integer, so every weight it accepts is the
/// multiplicity it reads as.
const MAX_EDGE_WEIGHT: f32 = (1u32 << 24) as f32;

/// A graph level in the multilevel hierarchy: integer CSR adjacency (edge
/// weights are multiplicities, METIS's `adjwgt`) plus node weights (number
/// of original nodes collapsed into each super-node).
#[derive(Debug, Clone)]
pub(crate) struct WorkGraph {
    pub xadj: Vec<usize>,
    pub adjncy: Vec<u32>,
    pub adjwgt: Vec<i64>,
    pub vwgt: Vec<i64>,
}

impl WorkGraph {
    /// Level 0: `g` with unit node weights, or the first edge whose weight
    /// is not an integer in `1..=2²⁴`.
    pub(crate) fn from_input(g: &Csr) -> Result<Self, PartitionError> {
        let adjwgt = match g.weights() {
            None => vec![1; g.num_edges()],
            Some(w) => {
                let multiplicity =
                    |x: f32| (1.0..=MAX_EDGE_WEIGHT).contains(&x) && x.fract() == 0.0;
                if let Some(e) = w.iter().position(|&x| !multiplicity(x)) {
                    let node = g.indptr().partition_point(|&start| start <= e) - 1;
                    return Err(PartitionError::EdgeWeight {
                        node: node as u32,
                        neighbor: g.indices()[e],
                        weight: w[e],
                    });
                }
                w.iter().map(|&x| x as i64).collect()
            }
        };
        Ok(WorkGraph {
            xadj: g.indptr().to_vec(),
            adjncy: g.indices().to_vec(),
            adjwgt,
            vwgt: vec![1; g.num_nodes()],
        })
    }

    pub(crate) fn num_nodes(&self) -> usize {
        self.vwgt.len()
    }

    /// Node `u`'s neighbors and the parallel edge weights.
    #[inline]
    pub(crate) fn row(&self, u: u32) -> (&[u32], &[i64]) {
        let r = self.xadj[u as usize]..self.xadj[u as usize + 1];
        (&self.adjncy[r.clone()], &self.adjwgt[r])
    }

    /// Total weight of the edges crossing `parts`, each undirected edge
    /// counted once.
    pub(crate) fn cut(&self, parts: &[u32]) -> i64 {
        let mut cut = 0;
        for u in 0..self.num_nodes() as u32 {
            let (adj, wgt) = self.row(u);
            for (&v, &w) in adj.iter().zip(wgt) {
                if v > u && parts[u as usize] != parts[v as usize] {
                    cut += w;
                }
            }
        }
        cut
    }
}

/// Partitions an undirected (symmetric CSR) graph into `k` balanced parts.
///
/// Edge weights are integer multiplicities, as in METIS: every weight must
/// be an integer in `1..=2²⁴` (an unweighted graph has all ones), and
/// [`PartitionError::EdgeWeight`] names the first node with an edge that is
/// not.
pub fn metis_kway(g: &Csr, k: usize, config: &MetisConfig) -> Result<Partition, PartitionError> {
    if k == 0 {
        return Err(PartitionError::ZeroParts);
    }
    let n = g.num_nodes();
    if k > n {
        return Err(PartitionError::TooManyParts { parts: k, nodes: n });
    }
    let input = WorkGraph::from_input(g)?;
    if k == 1 {
        return Ok(Partition::new(vec![0; n]));
    }
    let mut rng = StdRng::seed_from_u64(config.seed);

    // Phase 1: coarsen.
    let mut levels: Vec<WorkGraph> = vec![input];
    let mut maps: Vec<Vec<u32>> = Vec::new(); // fine node -> coarse node per level
    let target = (config.coarsen_factor * k).max(64);
    loop {
        let cur = levels.last().unwrap();
        if cur.num_nodes() <= target {
            break;
        }
        let (coarse, map) = matching::coarsen(cur, &mut rng);
        // Diminishing returns: stop if we shrank by < 10%.
        if coarse.num_nodes() as f64 > 0.9 * cur.num_nodes() as f64 {
            break;
        }
        maps.push(map);
        levels.push(coarse);
    }

    // Phase 2: initial partition of the coarsest graph.
    let coarsest = levels.last().unwrap();
    let mut parts = initial::grow_initial(coarsest, k, &mut rng);
    let cut = coarsest.cut(&parts);
    let mut cut = refine::refine(coarsest, &mut parts, cut, k, config, &mut rng);

    // Phase 3: uncoarsen and refine. A projected partition cuts exactly the
    // coarse one's weight: a coarse edge sums the fine edges it stands for.
    for lvl in (0..maps.len()).rev() {
        let fine = &levels[lvl];
        parts = maps[lvl].iter().map(|&cv| parts[cv as usize]).collect();
        cut = refine::refine(fine, &mut parts, cut, k, config, &mut rng);
    }
    Ok(Partition::new(parts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedgta_graph::EdgeList;
    use rand::Rng;

    /// Random connected graph: a path plus random chords.
    fn random_graph(n: usize, extra: usize, seed: u64) -> Csr {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut el = EdgeList::new(n);
        for i in 1..n {
            el.push_undirected(i as u32 - 1, i as u32).unwrap();
        }
        for _ in 0..extra {
            let u = rng.random_range(0..n as u32);
            let v = rng.random_range(0..n as u32);
            if u != v {
                el.push_undirected(u, v).unwrap();
            }
        }
        el.to_csr()
    }

    #[test]
    fn produces_k_nonempty_balanced_parts() {
        let g = random_graph(500, 1000, 7);
        for &k in &[2usize, 4, 10] {
            let p = metis_kway(&g, k, &MetisConfig::default()).unwrap();
            assert_eq!(p.num_parts, k);
            let sizes = p.sizes();
            let ideal = 500.0 / k as f64;
            for (i, &s) in sizes.iter().enumerate() {
                assert!(s > 0, "part {i} empty for k={k}");
                assert!((s as f64) <= ideal * 1.30, "part {i} size {s} too large for k={k}");
            }
        }
    }

    #[test]
    fn cut_beats_random_assignment() {
        let g = random_graph(400, 400, 3);
        let k = 8;
        let p = metis_kway(&g, k, &MetisConfig::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let random = Partition::new((0..400).map(|_| rng.random_range(0..k as u32)).collect());
        assert!(
            p.edge_cut(&g) < random.edge_cut(&g),
            "metis cut {} not better than random {}",
            p.edge_cut(&g),
            random.edge_cut(&g)
        );
    }

    #[test]
    fn rejects_degenerate_requests() {
        let g = random_graph(10, 0, 0);
        assert!(matches!(
            metis_kway(&g, 0, &MetisConfig::default()),
            Err(PartitionError::ZeroParts)
        ));
        assert!(matches!(
            metis_kway(&g, 11, &MetisConfig::default()),
            Err(PartitionError::TooManyParts { .. })
        ));
        let one = metis_kway(&g, 1, &MetisConfig::default()).unwrap();
        assert_eq!(one.num_parts, 1);
    }

    /// A 12-node ring whose edge 4–5 weighs `w` both ways.
    fn ring_with_weight(w: f32) -> Csr {
        let mut el = EdgeList::new(12);
        for i in 0..12u32 {
            let j = (i + 1) % 12;
            let wij = if (i, j) == (4, 5) { w } else { 1.0 };
            el.push_weighted(i, j, wij).unwrap();
            el.push_weighted(j, i, wij).unwrap();
        }
        el.to_csr()
    }

    #[test]
    fn refuses_weights_that_are_not_multiplicities() {
        let max = (1u32 << 24) as f32;
        for w in [0.0, -1.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1.5, 2.0 * max] {
            let err = metis_kway(&ring_with_weight(w), 3, &MetisConfig::default()).unwrap_err();
            match err {
                PartitionError::EdgeWeight { node, neighbor, weight } => {
                    assert_eq!((node, neighbor), (4, 5), "weight {w}");
                    assert_eq!(weight.to_bits(), w.to_bits());
                }
                other => panic!("weight {w}: {other:?}"),
            }
            assert!(err.to_string().starts_with("edge 4 -> 5 has weight"), "{err}");
            // k = 1 takes no partitioning, but the same contract.
            assert!(metis_kway(&ring_with_weight(w), 1, &MetisConfig::default()).is_err());
        }
        for w in [1.0, 7.0, max] {
            let p = metis_kway(&ring_with_weight(w), 3, &MetisConfig::default()).unwrap();
            assert_eq!(p.num_parts, 3, "weight {w}");
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = random_graph(300, 500, 5);
        let a = metis_kway(&g, 6, &MetisConfig::default()).unwrap();
        let b = metis_kway(&g, 6, &MetisConfig::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn two_cliques_split_cleanly() {
        // Two 20-cliques with a single bridge: the 2-way cut should be 1.
        let mut el = EdgeList::new(40);
        for b in 0..2 {
            for i in 0..20usize {
                for j in (i + 1)..20 {
                    el.push_undirected((b * 20 + i) as u32, (b * 20 + j) as u32).unwrap();
                }
            }
        }
        el.push_undirected(0, 20).unwrap();
        let g = el.to_csr();
        let p = metis_kway(&g, 2, &MetisConfig::default()).unwrap();
        assert_eq!(p.edge_cut(&g), 1);
    }
}
