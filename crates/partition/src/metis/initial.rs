//! Initial partitioning of the coarsest graph: BFS-ordered contiguous
//! chunking into weight-balanced parts.
//!
//! A BFS order from a random start keeps parts locally connected; cutting
//! the order at cumulative-weight boundaries gives near-perfect balance.
//! Isolated components are appended in node order, so the union covers all
//! nodes.

use super::WorkGraph;
use rand::rngs::StdRng;
use rand::Rng;

/// Produces an initial `k`-way assignment on the coarsest level.
pub(crate) fn grow_initial(wg: &WorkGraph, k: usize, rng: &mut StdRng) -> Vec<u32> {
    let n = wg.num_nodes();
    debug_assert!(k >= 1 && k <= n);
    // Full BFS order covering every component.
    let mut seen = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut queue = std::collections::VecDeque::new();
    let first = rng.random_range(0..n as u32);
    let mut starts = (0..n as u32).cycle().skip(first as usize);
    while order.len() < n {
        // Next unvisited start.
        let s = loop {
            let cand = starts.next().unwrap();
            if !seen[cand as usize] {
                break cand;
            }
        };
        seen[s as usize] = true;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            for &v in wg.row(u).0 {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    queue.push_back(v);
                }
            }
        }
    }

    let total = wg.vwgt.iter().sum::<i64>() as f64;
    let mut parts = vec![0u32; n];
    let mut part = 0u32;
    let mut acc = 0i64;
    let mut assigned_in_part = 0usize;
    let mut remaining_nodes = n;
    for &u in &order {
        // Leave at least one node for each remaining part.
        let remaining_parts = k as u32 - part;
        let target = total * (part as f64 + 1.0) / k as f64;
        let must_close = remaining_nodes == remaining_parts as usize && assigned_in_part > 0;
        if part + 1 < k as u32 && assigned_in_part > 0 && (acc as f64 >= target || must_close) {
            part += 1;
            assigned_in_part = 0;
        }
        parts[u as usize] = part;
        acc += wg.vwgt[u as usize];
        assigned_in_part += 1;
        remaining_nodes -= 1;
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedgta_graph::{Csr, EdgeList};
    use rand::SeedableRng;

    fn path(n: usize) -> WorkGraph {
        let mut el = EdgeList::new(n);
        for i in 1..n as u32 {
            el.push_undirected(i - 1, i).unwrap();
        }
        WorkGraph::from_input(&el.to_csr()).unwrap()
    }

    #[test]
    fn all_parts_nonempty_and_balanced() {
        let wg = path(100);
        let mut rng = StdRng::seed_from_u64(0);
        let parts = grow_initial(&wg, 7, &mut rng);
        let mut sizes = [0usize; 7];
        for &p in &parts {
            sizes[p as usize] += 1;
        }
        for (i, &s) in sizes.iter().enumerate() {
            assert!(s > 0, "part {i} empty");
            assert!(s <= 20, "part {i} size {s}");
        }
    }

    #[test]
    fn k_equals_n_gives_singletons() {
        let wg = path(5);
        let mut rng = StdRng::seed_from_u64(0);
        let parts = grow_initial(&wg, 5, &mut rng);
        let mut sorted = parts.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 5);
    }

    #[test]
    fn covers_disconnected_components() {
        let wg = WorkGraph::from_input(&Csr::empty(6)).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let parts = grow_initial(&wg, 3, &mut rng);
        let mut sizes = [0usize; 3];
        for &p in &parts {
            sizes[p as usize] += 1;
        }
        assert!(sizes.iter().all(|&s| s == 2));
    }

    #[test]
    fn weighted_nodes_balance_by_weight() {
        let mut wg = path(10);
        wg.vwgt = vec![1, 1, 1, 1, 1, 5, 5, 5, 5, 5];
        let mut rng = StdRng::seed_from_u64(3);
        let parts = grow_initial(&wg, 2, &mut rng);
        let mut w = vec![0i64; 2];
        for (u, &p) in parts.iter().enumerate() {
            w[p as usize] += wg.vwgt[u];
        }
        // 30 total; each side should be within [9, 21].
        assert!(w[0] >= 9 && w[0] <= 21, "weights {w:?}");
    }
}
