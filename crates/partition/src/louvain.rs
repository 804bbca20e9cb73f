//! Louvain community detection (Blondel et al. 2008), implemented from
//! scratch.
//!
//! The algorithm alternates two phases until modularity stops improving:
//!
//! 1. **Local moving** — repeatedly move each node to the neighboring
//!    community with the largest positive modularity gain;
//! 2. **Aggregation** — collapse each community into a super-node and
//!    recurse on the community graph.
//!
//! Node visitation order is shuffled with a seeded RNG so the split is
//! reproducible yet not biased by node id order.

use crate::Partition;
use fedgta_graph::{Csr, EdgeList};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Configuration for the Louvain algorithm.
#[derive(Debug, Clone)]
pub struct LouvainConfig {
    /// RNG seed for node visitation order.
    pub seed: u64,
    /// Minimum modularity improvement per level to continue.
    pub min_gain: f64,
    /// Maximum number of full local-moving sweeps per level.
    pub max_sweeps: usize,
    /// Maximum number of aggregation levels.
    pub max_levels: usize,
    /// Graph resolution (γ in the generalized modularity). 1.0 is classic
    /// modularity; higher values yield more, smaller communities.
    pub resolution: f64,
}

impl Default for LouvainConfig {
    fn default() -> Self {
        Self { seed: 0, min_gain: 1e-6, max_sweeps: 32, max_levels: 16, resolution: 1.0 }
    }
}

/// Runs Louvain on an undirected (symmetric CSR) graph; returns the final
/// community assignment over the original nodes, compacted to `0..k`.
pub fn louvain(g: &Csr, config: &LouvainConfig) -> Partition {
    let n = g.num_nodes();
    if n == 0 {
        return Partition::new(Vec::new());
    }
    // node -> community over *original* nodes, maintained across levels.
    let mut node_to_comm: Vec<u32> = (0..n as u32).collect();
    let mut level_graph = g.clone();
    let mut rng = StdRng::seed_from_u64(config.seed);

    for _level in 0..config.max_levels {
        let (assignment, gained) = local_moving(&level_graph, config, &mut rng);
        if !gained {
            break;
        }
        let compact = Partition::new(assignment).compact();
        // Project down to original nodes.
        for c in node_to_comm.iter_mut() {
            *c = compact.parts[*c as usize];
        }
        if compact.num_parts == level_graph.num_nodes() {
            break; // no aggregation happened
        }
        level_graph = aggregate(&level_graph, &compact);
        if level_graph.num_nodes() <= 1 {
            break;
        }
    }
    Partition::new(node_to_comm).compact()
}

/// One level of local moving. Returns (community per node, whether any move
/// improved modularity).
fn local_moving(g: &Csr, config: &LouvainConfig, rng: &mut StdRng) -> (Vec<u32>, bool) {
    let n = g.num_nodes();
    let two_m = g.total_weight();
    if two_m == 0.0 {
        return ((0..n as u32).collect(), false);
    }
    let k: Vec<f64> = (0..n as u32).map(|u| g.weighted_degree(u) as f64).collect();
    let mut comm: Vec<u32> = (0..n as u32).collect();
    let mut sigma_tot: Vec<f64> = k.clone(); // total degree per community

    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(rng);

    // Scratch: weight from the current node to each community.
    let mut w_to: Vec<f64> = vec![0.0; n];
    let mut touched: Vec<u32> = Vec::new();

    let mut any_gain = false;
    for _sweep in 0..config.max_sweeps {
        let mut moved = 0usize;
        for &u in &order {
            let cu = comm[u as usize];
            // Gather edge weight from u to each neighboring community
            // (self-loops excluded from gain computation).
            touched.clear();
            for (idx, &v) in g.neighbors(u).iter().enumerate() {
                if v == u {
                    continue;
                }
                let cv = comm[v as usize];
                if w_to[cv as usize] == 0.0 {
                    touched.push(cv);
                }
                w_to[cv as usize] += g.edge_weight_at(u, idx) as f64;
            }
            // Remove u from its community for the comparison.
            sigma_tot[cu as usize] -= k[u as usize];
            let mut best_comm = cu;
            // Gain of staying put (relative baseline).
            let gain_of = |c: u32, w_uc: f64| {
                w_uc - config.resolution * sigma_tot[c as usize] * k[u as usize] / two_m
            };
            let mut best_gain = gain_of(cu, w_to[cu as usize]);
            for &c in &touched {
                if c == cu {
                    continue;
                }
                let gain = gain_of(c, w_to[c as usize]);
                if gain > best_gain + 1e-12 {
                    best_gain = gain;
                    best_comm = c;
                }
            }
            sigma_tot[best_comm as usize] += k[u as usize];
            if best_comm != cu {
                comm[u as usize] = best_comm;
                moved += 1;
                any_gain = true;
            }
            for &c in &touched {
                w_to[c as usize] = 0.0;
            }
        }
        if moved == 0 {
            break;
        }
    }
    (comm, any_gain)
}

/// Collapses communities into super-nodes; parallel edges merge (weights
/// sum) and intra-community weight becomes self-loops.
fn aggregate(g: &Csr, parts: &Partition) -> Csr {
    let mut el = EdgeList::new(parts.num_parts);
    for u in 0..g.num_nodes() as u32 {
        let cu = parts.parts[u as usize];
        for (idx, &v) in g.neighbors(u).iter().enumerate() {
            let cv = parts.parts[v as usize];
            let w = g.edge_weight_at(u, idx);
            el.push_weighted(cu, cv, w).expect("parts in range");
        }
    }
    el.to_csr()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedgta_graph::metrics::modularity;
    use fedgta_graph::EdgeList;

    /// Two dense clusters with one bridge edge.
    fn two_clusters(sz: usize) -> Csr {
        let n = 2 * sz;
        let mut el = EdgeList::new(n);
        for block in 0..2 {
            let base = block * sz;
            for i in 0..sz {
                for j in (i + 1)..sz {
                    el.push_undirected((base + i) as u32, (base + j) as u32).unwrap();
                }
            }
        }
        el.push_undirected(0, sz as u32).unwrap();
        el.to_csr()
    }

    #[test]
    fn recovers_two_cliques() {
        let g = two_clusters(8);
        let p = louvain(&g, &LouvainConfig::default());
        assert_eq!(p.num_parts, 2);
        // All nodes in block 0 share a community.
        let c0 = p.parts[0];
        assert!(p.parts[..8].iter().all(|&c| c == c0));
        assert!(p.parts[8..].iter().all(|&c| c != c0));
    }

    #[test]
    fn modularity_improves_over_singletons() {
        let g = two_clusters(6);
        let p = louvain(&g, &LouvainConfig::default());
        let singleton: Vec<u32> = (0..g.num_nodes() as u32).collect();
        assert!(modularity(&g, &p.parts) > modularity(&g, &singleton));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = two_clusters(10);
        let a = louvain(&g, &LouvainConfig::default());
        let b = louvain(&g, &LouvainConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let p = louvain(&Csr::empty(0), &LouvainConfig::default());
        assert_eq!(p.num_parts, 0);
        let p = louvain(&Csr::empty(5), &LouvainConfig::default());
        assert_eq!(p.parts.len(), 5);
        assert_eq!(p.num_parts, 5); // singletons: nothing to merge
    }

    #[test]
    fn higher_resolution_gives_no_fewer_communities() {
        let g = two_clusters(8);
        let lo = louvain(&g, &LouvainConfig { resolution: 0.5, ..LouvainConfig::default() });
        let hi = louvain(&g, &LouvainConfig { resolution: 4.0, ..LouvainConfig::default() });
        assert!(hi.num_parts >= lo.num_parts);
    }

    #[test]
    fn ring_of_cliques_finds_each_clique() {
        // 4 triangles in a ring — classic Louvain sanity structure.
        let mut el = EdgeList::new(12);
        for c in 0..4u32 {
            let b = c * 3;
            el.push_undirected(b, b + 1).unwrap();
            el.push_undirected(b + 1, b + 2).unwrap();
            el.push_undirected(b, b + 2).unwrap();
            el.push_undirected(b + 2, (b + 3) % 12).unwrap();
        }
        let g = el.to_csr();
        let p = louvain(&g, &LouvainConfig::default());
        assert_eq!(p.num_parts, 4);
        for c in 0..4 {
            let com = p.parts[c * 3];
            assert_eq!(p.parts[c * 3 + 1], com);
            assert_eq!(p.parts[c * 3 + 2], com);
        }
    }
}
