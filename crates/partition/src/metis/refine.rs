//! Greedy boundary refinement (the Fiduccia–Mattheyses gain rule applied
//! k-way): move boundary nodes to the adjacent part with the largest
//! cut-gain, subject to a weight-balance constraint.
//!
//! Pure positive-gain greedy stalls on zero-gain plateaus (e.g. an
//! alternating assignment of a clique is perfectly balanced and every move
//! has gain 0). We therefore allow seeded random zero-gain moves to break
//! plateaus, and keep the best assignment seen across passes so the result
//! never regresses.

use super::{MetisConfig, WorkGraph};
use rand::rngs::StdRng;
use rand::Rng;

/// Refines `parts`, whose cut is `cut`, in place for up to
/// `config.refine_passes` sweeps; returns the cut of the result.
///
/// Every weight is an integer, so gains and the cut are exact: the cut is
/// carried by subtracting each move's gain, and debug builds check it
/// against a recount after every pass.
pub(crate) fn refine(
    wg: &WorkGraph,
    parts: &mut [u32],
    mut cut: i64,
    k: usize,
    config: &MetisConfig,
    rng: &mut StdRng,
) -> i64 {
    let n = wg.num_nodes();
    debug_assert_eq!(parts.len(), n);
    debug_assert_eq!(cut, wg.cut(parts), "cut handed to refine");
    let total = wg.vwgt.iter().sum::<i64>() as f64;
    let ideal = total / k as f64;
    let max_vwgt = wg.vwgt.iter().copied().max().unwrap_or(0) as f64;
    // At least one-vertex slack above ideal, or moves can deadlock on
    // perfectly balanced partitions (METIS applies the same rule). Part
    // weights are integers, so `w ≤ x` is `w ≤ ⌊x⌋` and `w ≥ x` is `w ≥ ⌈x⌉`.
    let max_w = (config.imbalance * ideal).max(ideal + max_vwgt).floor() as i64;
    // Never let a part drop below half the ideal weight (keeps parts
    // nonempty and roughly balanced from below).
    let min_w = (0.5 * total / k as f64).ceil() as i64;

    let mut part_w = vec![0i64; k];
    for (u, &p) in parts.iter().enumerate() {
        part_w[p as usize] += wg.vwgt[u];
    }

    // Scratch: edge weight from the visited node to each part, valid where
    // `stamp` holds the visit's number; `touched` lists the other parts in
    // first-touch order.
    let mut w_to = vec![0i64; k];
    let mut stamp = vec![usize::MAX; k];
    let mut visit = 0usize;
    let mut touched: Vec<u32> = Vec::with_capacity(8);

    let mut best_parts = parts.to_vec();
    let mut best_cut = cut;

    for pass in 0..config.refine_passes {
        // Zero-gain plateau moves only on odd passes, so even passes can
        // harvest the resulting positive gains.
        let allow_plateau = pass % 2 == 1;
        let mut moved = 0usize;
        for u in 0..n as u32 {
            let pu = parts[u as usize];
            touched.clear();
            stamp[pu as usize] = visit;
            w_to[pu as usize] = 0;
            let (adj, wgt) = wg.row(u);
            for (&v, &w) in adj.iter().zip(wgt) {
                if v == u {
                    continue;
                }
                let pv = parts[v as usize];
                if stamp[pv as usize] != visit {
                    stamp[pv as usize] = visit;
                    w_to[pv as usize] = 0;
                    touched.push(pv);
                }
                w_to[pv as usize] += w;
            }
            visit += 1;
            // Boundary nodes only: a neighbor in another part.
            if touched.is_empty() {
                continue;
            }
            let internal = w_to[pu as usize];
            let wu = wg.vwgt[u as usize];
            let leaves_enough = part_w[pu as usize] - wu >= min_w;
            let mut best: Option<(i64, u32)> = None;
            for &p in &touched {
                let gain = w_to[p as usize] - internal;
                let fits = part_w[p as usize] + wu <= max_w && leaves_enough;
                let acceptable = gain > 0 || (allow_plateau && gain == 0 && rng.random_bool(0.5));
                if acceptable && fits {
                    let better = match best {
                        None => true,
                        Some((bg, bp)) => gain > bg || (gain == bg && p < bp),
                    };
                    if better {
                        best = Some((gain, p));
                    }
                }
            }
            if let Some((gain, p)) = best {
                parts[u as usize] = p;
                part_w[pu as usize] -= wu;
                part_w[p as usize] += wu;
                cut -= gain;
                moved += 1;
            }
        }
        debug_assert_eq!(cut, wg.cut(parts), "carried cut after pass {pass}");
        if cut < best_cut {
            best_cut = cut;
            best_parts.copy_from_slice(parts);
        }
        if moved == 0 {
            break;
        }
    }
    // Never return something worse than the best assignment seen.
    parts.copy_from_slice(&best_parts);
    best_cut
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Partition;
    use fedgta_graph::{Csr, EdgeList};
    use rand::SeedableRng;

    /// `g` as a level without the input check, so that refinement can be
    /// handed a weight `metis_kway` refuses.
    fn unchecked(g: &Csr) -> WorkGraph {
        WorkGraph {
            xadj: g.indptr().to_vec(),
            adjncy: g.indices().to_vec(),
            adjwgt: g
                .weights()
                .map_or(vec![1; g.num_edges()], |w| w.iter().map(|&x| x as i64).collect()),
            vwgt: vec![1; g.num_nodes()],
        }
    }

    #[test]
    fn refinement_reduces_cut_on_shuffled_cliques() {
        // Two 10-cliques + bridge, with a deliberately bad start.
        let mut el = EdgeList::new(20);
        for b in 0..2 {
            for i in 0..10usize {
                for j in (i + 1)..10 {
                    el.push_undirected((b * 10 + i) as u32, (b * 10 + j) as u32).unwrap();
                }
            }
        }
        el.push_undirected(0, 10).unwrap();
        let g = el.to_csr();
        let wg = WorkGraph::from_input(&g).unwrap();
        // Bad start: alternate parts (a perfectly balanced plateau).
        let mut parts: Vec<u32> = (0..20).map(|i| (i % 2) as u32).collect();
        let before = Partition::new(parts.clone()).edge_cut(&g);
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = MetisConfig { refine_passes: 40, ..MetisConfig::default() };
        let carried = refine(&wg, &mut parts, before as i64, 2, &cfg, &mut rng);
        let after = Partition::new(parts.clone()).edge_cut(&g);
        assert_eq!(carried, after as i64);
        assert!(after < before, "cut {before} -> {after}");
        assert!(after <= 10, "cut {before} -> {after}");
    }

    #[test]
    fn balance_constraint_respected() {
        // Star graph: everything wants to join the hub's part, but balance
        // must prevent collapse.
        let mut el = EdgeList::new(21);
        for i in 1..21u32 {
            el.push_undirected(0, i).unwrap();
        }
        let g = el.to_csr();
        let wg = WorkGraph::from_input(&g).unwrap();
        let mut parts: Vec<u32> = (0..21).map(|i| if i < 11 { 0 } else { 1 }).collect();
        let mut rng = StdRng::seed_from_u64(0);
        let cut = wg.cut(&parts);
        refine(&wg, &mut parts, cut, 2, &MetisConfig::default(), &mut rng);
        let sizes = Partition::new(parts).sizes();
        assert!(sizes[0] >= 6 && sizes[1] >= 6, "sizes {sizes:?}");
    }

    #[test]
    fn never_regresses_from_a_good_start() {
        let mut el = EdgeList::new(8);
        for b in 0..2 {
            for i in 0..4usize {
                for j in (i + 1)..4 {
                    el.push_undirected((b * 4 + i) as u32, (b * 4 + j) as u32).unwrap();
                }
            }
        }
        el.push_undirected(0, 4).unwrap();
        let g = el.to_csr();
        let wg = WorkGraph::from_input(&g).unwrap();
        let mut parts = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let mut rng = StdRng::seed_from_u64(9);
        assert_eq!(refine(&wg, &mut parts, 1, 2, &MetisConfig::default(), &mut rng), 1);
        assert_eq!(Partition::new(parts).edge_cut(&g), 1);
    }

    /// A part is a candidate once per visit however its first edge weighs.
    /// Before stamps marked first touch, `w_to == 0` did: a zero-weight
    /// edge left its part unmarked, so the part entered `touched` again at
    /// the next edge into it and a plateau pass drew the RNG twice for it.
    /// Node 18 hangs off two 9-cliques by one edge each (4 and 13), so its
    /// gain is 0 on plateau passes; the zero-weight edge 18–0 comes first in
    /// its row and reaches the part that edge 18–4 reaches. It must change
    /// nothing: not the result, not one draw.
    #[test]
    fn a_zero_weight_first_touch_draws_nothing() {
        let mut plain = EdgeList::new(19);
        for b in 0..2u32 {
            for i in 0..9 {
                for j in (i + 1)..9 {
                    plain.push_undirected(b * 9 + i, b * 9 + j).unwrap();
                }
            }
        }
        plain.push_undirected(0, 9).unwrap();
        plain.push_undirected(18, 4).unwrap();
        plain.push_undirected(18, 13).unwrap();
        let mut zero = plain.clone();
        zero.push_weighted(18, 0, 0.0).unwrap();
        zero.push_weighted(0, 18, 0.0).unwrap();
        let (plain, zero) = (unchecked(&plain.to_csr()), unchecked(&zero.to_csr()));
        assert_eq!(zero.row(18), (&[0, 4, 13][..], &[0, 1, 1][..]));
        let cfg = MetisConfig { refine_passes: 40, ..MetisConfig::default() };
        for seed in 0..8 {
            let run = |wg: &WorkGraph| {
                let mut parts: Vec<u32> = (0..19).map(|i| (i % 2) as u32).collect();
                let mut rng = StdRng::seed_from_u64(seed);
                let cut = wg.cut(&parts);
                let cut = refine(wg, &mut parts, cut, 2, &cfg, &mut rng);
                (parts, cut, rng.random::<u64>())
            };
            assert_eq!(run(&plain), run(&zero), "seed {seed}");
        }
    }
}
