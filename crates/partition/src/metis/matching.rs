//! Coarsening by heavy-edge matching.
//!
//! Nodes are visited in random order; each unmatched node matches the
//! unmatched neighbor connected by the heaviest edge (ties → lowest id).
//! Matched pairs collapse into one super-node; unmatched nodes carry over.

use super::WorkGraph;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

/// One level of coarsening. Returns the coarse graph and the
/// fine-node → coarse-node map.
pub(crate) fn coarsen(fine: &WorkGraph, rng: &mut StdRng) -> (WorkGraph, Vec<u32>) {
    let n = fine.num_nodes();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(rng);

    const UNMATCHED: u32 = u32::MAX;
    let mut mate = vec![UNMATCHED; n];
    for &u in &order {
        if mate[u as usize] != UNMATCHED {
            continue;
        }
        let mut best: Option<(i64, u32)> = None;
        let (adj, wgt) = fine.row(u);
        for (&v, &w) in adj.iter().zip(wgt) {
            if v == u || mate[v as usize] != UNMATCHED {
                continue;
            }
            let better = match best {
                None => true,
                Some((bw, bv)) => w > bw || (w == bw && v < bv),
            };
            if better {
                best = Some((w, v));
            }
        }
        match best {
            Some((_, v)) => {
                mate[u as usize] = v;
                mate[v as usize] = u;
            }
            None => mate[u as usize] = u, // matched with itself
        }
    }

    // Assign coarse ids: the smaller endpoint of each pair owns the id.
    let mut map = vec![u32::MAX; n];
    let mut owner = Vec::new();
    for u in 0..n as u32 {
        if map[u as usize] != u32::MAX {
            continue;
        }
        let c = owner.len() as u32;
        map[u as usize] = c;
        map[mate[u as usize] as usize] = c;
        owner.push(u);
    }

    // Build each coarse row from its members' rows: parallel edges merge
    // in a dense accumulator, self-loops drop (intra-super-node weight does
    // not affect the cut). Weights are positive, so a zero marks a neighbor
    // not yet seen.
    let coarse_n = owner.len();
    let mut xadj = Vec::with_capacity(coarse_n + 1);
    xadj.push(0);
    let mut adjncy: Vec<u32> = Vec::new();
    let mut adjwgt = Vec::new();
    let mut vwgt = Vec::with_capacity(coarse_n);
    let mut acc = vec![0i64; coarse_n];
    for (c, &u) in owner.iter().enumerate() {
        let m = mate[u as usize];
        let members: &[u32] = if m == u { &[u] } else { &[u, m] };
        vwgt.push(members.iter().map(|&x| fine.vwgt[x as usize]).sum());
        let start = adjncy.len();
        for &x in members {
            let (adj, wgt) = fine.row(x);
            for (&v, &w) in adj.iter().zip(wgt) {
                let cv = map[v as usize];
                if cv as usize != c {
                    if acc[cv as usize] == 0 {
                        adjncy.push(cv);
                    }
                    acc[cv as usize] += w;
                }
            }
        }
        adjncy[start..].sort_unstable();
        adjwgt.extend(adjncy[start..].iter().map(|&cv| std::mem::take(&mut acc[cv as usize])));
        xadj.push(adjncy.len());
    }
    (WorkGraph { xadj, adjncy, adjwgt, vwgt }, map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedgta_graph::{Csr, EdgeList};
    use rand::SeedableRng;

    fn wg(g: Csr) -> WorkGraph {
        WorkGraph::from_input(&g).unwrap()
    }

    #[test]
    fn matching_halves_a_path() {
        let mut el = EdgeList::new(8);
        for i in 1..8u32 {
            el.push_undirected(i - 1, i).unwrap();
        }
        let fine = wg(el.to_csr());
        let mut rng = StdRng::seed_from_u64(0);
        let (coarse, map) = coarsen(&fine, &mut rng);
        assert!(coarse.num_nodes() <= 6); // at least some pairs merged
        assert_eq!(map.len(), 8);
        // Node and edge weights conserve total mass: 7 path edges, less
        // the ones inside a pair.
        assert_eq!(coarse.vwgt.iter().sum::<i64>(), 8);
        let inside = (1..8).filter(|&i| map[i - 1] == map[i]).count() as i64;
        assert_eq!(coarse.adjwgt.iter().sum::<i64>(), 2 * (7 - inside));
    }

    #[test]
    fn heavy_edges_matched_first() {
        // Heavy pairs 0-1 and 2-3, light bridge 1-2: any visit order must
        // match the heavy pairs.
        let mut el = EdgeList::new(4);
        el.push_weighted(0, 1, 10.0).unwrap();
        el.push_weighted(1, 0, 10.0).unwrap();
        el.push_weighted(2, 3, 10.0).unwrap();
        el.push_weighted(3, 2, 10.0).unwrap();
        el.push_undirected(1, 2).unwrap();
        let fine = wg(el.to_csr());
        for seed in 0..8 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (_, map) = coarsen(&fine, &mut rng);
            assert_eq!(map[0], map[1], "seed {seed}");
            assert_eq!(map[2], map[3], "seed {seed}");
            assert_ne!(map[0], map[2], "seed {seed}");
        }
    }

    #[test]
    fn coarse_graph_has_no_self_loops() {
        let mut el = EdgeList::new(4);
        el.push_undirected(0, 1).unwrap();
        el.push_undirected(2, 3).unwrap();
        el.push_undirected(1, 2).unwrap();
        let fine = wg(el.to_csr());
        let mut rng = StdRng::seed_from_u64(1);
        let (coarse, _) = coarsen(&fine, &mut rng);
        for u in 0..coarse.num_nodes() as u32 {
            let row = coarse.row(u).0;
            assert!(!row.contains(&u));
            assert!(row.windows(2).all(|w| w[0] < w[1]), "row {u} sorted, no duplicates: {row:?}");
        }
    }
}
