//! GCFL+ (Xie et al. 2021): gradient-sequence clustered federated
//! learning.
//!
//! Clients start in one cluster sharing a FedAvg model. A cluster splits
//! when its members' parameter updates disagree (mean update norm small
//! while the maximum is large — the GCFL criterion); the bipartition uses
//! dynamic-time-warping distance over each client's recent *gradient
//! signature sequence* (GCFL+'s series-based clustering). Aggregation then
//! happens within clusters only.
//!
//! Substitution note (DESIGN.md): the DTW series elements are fixed random
//! projections of the full update vector (32 dims) instead of the raw
//! `O(f²)` gradients — same sequence geometry at a fraction of the memory.

use super::averaged::{step, train_weighted, Objective, Server};
use super::{l2_norm, sub, RoundCtx, RoundStats, Strategy};
use crate::client::Client;
use crate::exec::LocalResult;
use fedgta_nn::TrainHooks;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SIGNATURE_DIM: usize = 32;

/// GCFL+ state and hyperparameters.
pub struct GcflPlus {
    /// Window size `T` of gradient sequences (paper grid: 2–10).
    pub window: usize,
    /// Split trigger: `max‖Δw‖ > gap · mean‖Δw‖` within a cluster.
    pub gap: f32,
    /// Rounds to observe before allowing any split.
    pub warmup: usize,
    clusters: Vec<Vec<usize>>,
    cluster_params: Vec<Vec<f32>>,
    updates: Updates,
    sequences: Vec<Vec<Vec<f32>>>,
    projection: Vec<f32>,
    rounds_seen: usize,
}

impl GcflPlus {
    /// Creates GCFL+ with window `T` and split gap factor.
    pub fn new(window: usize, gap: f32) -> Self {
        Self {
            window: window.max(2),
            gap,
            warmup: 3,
            clusters: Vec::new(),
            cluster_params: Vec::new(),
            updates: Updates { deltas: Vec::new() },
            sequences: Vec::new(),
            projection: Vec::new(),
            rounds_seen: 0,
        }
    }

    /// Current cluster membership (for inspection/tests).
    pub fn clusters(&self) -> &[Vec<usize>] {
        &self.clusters
    }

    fn ensure_state(&mut self, clients: &[Client]) {
        if self.clusters.is_empty() {
            let p = clients[0].model.params();
            self.clusters = vec![(0..clients.len()).collect()];
            self.cluster_params = vec![p.clone()];
            self.sequences = vec![Vec::new(); clients.len()];
            let mut rng = StdRng::seed_from_u64(0x6cf1);
            self.projection = (0..SIGNATURE_DIM * p.len().min(4096))
                .map(|_| rng.random_range(-1.0f32..1.0))
                .collect();
        }
    }

    /// Fixed random projection of an update vector to `SIGNATURE_DIM`.
    fn signature(&self, delta: &[f32]) -> Vec<f32> {
        let cols = self.projection.len() / SIGNATURE_DIM;
        let mut sig = vec![0f32; SIGNATURE_DIM];
        for (d, s) in sig.iter_mut().enumerate() {
            let row = &self.projection[d * cols..(d + 1) * cols];
            let mut acc = 0f32;
            for (j, &r) in row.iter().enumerate() {
                // Stride through long parameter vectors.
                let idx = j * delta.len() / cols.max(1);
                acc += r * delta[idx.min(delta.len() - 1)];
            }
            *s = acc;
        }
        sig
    }
}

/// A cluster's objective: FedAvg's, plus each arrival's update `Δ`
/// measured from the model it received, kept for the split check.
struct Updates {
    deltas: Vec<Option<Vec<f32>>>,
}

impl Objective for Updates {
    const NAME: &'static str = "GCFL+";
    type Upload = (Vec<f32>, Vec<f32>, f64);

    fn train(&self, i: usize, c: &mut Client, ctx: &RoundCtx<'_>) -> (f32, Self::Upload) {
        let received = c.model.params();
        let (loss, (w, n)) = train_weighted(i, c, ctx, TrainHooks::none());
        let delta = sub(&w, &received);
        (loss, (w, delta, n))
    }

    fn server(&mut self, _global: &[f32], arrived: Vec<LocalResult<Self::Upload>>) -> Server {
        let uploads = arrived.into_iter().map(|r| {
            let (w, delta, n) = r.payload;
            self.deltas[r.client] = Some(delta);
            (w, n)
        });
        Server::Average(uploads.collect())
    }
}

/// DTW distance between two sequences of equal-dim vectors with Euclidean
/// local cost.
pub fn dtw_distance(a: &[Vec<f32>], b: &[Vec<f32>]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let cost = |x: &[f32], y: &[f32]| -> f64 { l2_norm(&sub(x, y)) };
    let (n, m) = (a.len(), b.len());
    let mut d = vec![f64::INFINITY; (n + 1) * (m + 1)];
    d[0] = 0.0;
    for i in 1..=n {
        for j in 1..=m {
            let c = cost(&a[i - 1], &b[j - 1]);
            let best = d[(i - 1) * (m + 1) + j]
                .min(d[i * (m + 1) + j - 1])
                .min(d[(i - 1) * (m + 1) + j - 1]);
            d[i * (m + 1) + j] = c + best;
        }
    }
    d[n * (m + 1) + m]
}

impl Strategy for GcflPlus {
    fn name(&self) -> String {
        "GCFL+".into()
    }

    fn round(
        &mut self,
        clients: &mut [Client],
        participants: &[usize],
        ctx: &RoundCtx<'_>,
    ) -> RoundStats {
        self.ensure_state(clients);
        self.rounds_seen += 1;
        self.updates.deltas = vec![None; clients.len()];
        let (mut stats, mut arrived) = (RoundStats::default(), 0);
        for k in 0..self.clusters.len() {
            let members: Vec<usize> = self.clusters[k]
                .iter()
                .copied()
                .filter(|m| participants.contains(m))
                .collect();
            if members.is_empty() {
                continue;
            }
            // `members` may be unsorted after a split; results come back in
            // member order, so the flat loss fold matches the sequential
            // round bit for bit. A cluster whose every upload was lost to
            // faults keeps its previous model this round.
            arrived += step(
                &mut self.updates,
                clients,
                &members,
                &self.clusters[k],
                &mut self.cluster_params[k],
                ctx,
                &mut stats,
            );
        }
        let deltas = std::mem::take(&mut self.updates.deltas);
        // Update gradient-signature sequences.
        for (i, d) in deltas.iter().enumerate() {
            if let Some(d) = d {
                let sig = self.signature(d);
                let seq = &mut self.sequences[i];
                seq.push(sig);
                while seq.len() > self.window {
                    seq.remove(0); // window ≤ 10: O(window) shift is fine
                }
            }
        }
        // Split check per cluster (GCFL criterion + DTW bipartition).
        if self.rounds_seen > self.warmup {
            let mut new_clusters = Vec::new();
            let mut new_params = Vec::new();
            for (k, cluster) in self.clusters.iter().enumerate() {
                let norms: Vec<f64> = cluster
                    .iter()
                    .filter_map(|&i| deltas[i].as_ref().map(|d| l2_norm(d)))
                    .collect();
                let can_split = cluster.len() > 1
                    && norms.len() > 1
                    && self.sequences[cluster[0]].len() >= 2;
                let (mean, max) = if norms.is_empty() {
                    (0.0, 0.0)
                } else {
                    (
                        norms.iter().sum::<f64>() / norms.len() as f64,
                        norms.iter().copied().fold(0.0, f64::max),
                    )
                };
                if can_split && max > self.gap as f64 * mean {
                    // Bipartition by DTW distance: seeds = farthest pair.
                    let ids = cluster.clone();
                    let mut far = (ids[0], ids[1], -1.0f64);
                    for a in 0..ids.len() {
                        for b in (a + 1)..ids.len() {
                            let d = dtw_distance(
                                &self.sequences[ids[a]],
                                &self.sequences[ids[b]],
                            );
                            if d > far.2 {
                                far = (ids[a], ids[b], d);
                            }
                        }
                    }
                    let (sa, sb, _) = far;
                    let mut ca = vec![sa];
                    let mut cb = vec![sb];
                    for &i in &ids {
                        if i == sa || i == sb {
                            continue;
                        }
                        let da = dtw_distance(&self.sequences[i], &self.sequences[sa]);
                        let db = dtw_distance(&self.sequences[i], &self.sequences[sb]);
                        if da <= db {
                            ca.push(i);
                        } else {
                            cb.push(i);
                        }
                    }
                    new_params.push(self.cluster_params[k].clone());
                    new_params.push(self.cluster_params[k].clone());
                    new_clusters.push(ca);
                    new_clusters.push(cb);
                } else {
                    new_clusters.push(cluster.clone());
                    new_params.push(self.cluster_params[k].clone());
                }
            }
            self.clusters = new_clusters;
            self.cluster_params = new_params;
        }
        stats.mean_loss /= arrived.max(1) as f32;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{federation_accuracy, small_federation};
    use super::*;
    use fedgta_nn::models::ModelKind;

    #[test]
    fn dtw_identical_sequences_are_zero() {
        let a = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        assert_eq!(dtw_distance(&a, &a), 0.0);
    }

    #[test]
    fn dtw_handles_shifted_sequences_gracefully() {
        let a = vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]];
        let shifted = vec![vec![0.0], vec![0.0], vec![1.0], vec![2.0]];
        let other = vec![vec![9.0], vec![9.0], vec![9.0], vec![9.0]];
        assert!(dtw_distance(&a, &shifted) < dtw_distance(&a, &other));
    }

    #[test]
    fn dtw_empty_sequence_is_zero() {
        let a: Vec<Vec<f32>> = Vec::new();
        let b = vec![vec![1.0]];
        assert_eq!(dtw_distance(&a, &b), 0.0);
    }

    #[test]
    fn gcfl_learns() {
        let mut clients = small_federation(ModelKind::Sgc, 7);
        let mut s = GcflPlus::new(5, 2.0);
        let parts: Vec<usize> = (0..clients.len()).collect();
        for _ in 0..15 {
            s.round(&mut clients, &parts, &RoundCtx::plain(2));
        }
        let acc = federation_accuracy(&mut clients);
        assert!(acc > 0.65, "acc {acc}");
    }

    #[test]
    fn starts_with_one_cluster_covering_everyone() {
        let mut clients = small_federation(ModelKind::Sgc, 17);
        let mut s = GcflPlus::new(4, 2.0);
        s.round(&mut clients, &[0, 1, 2, 3], &RoundCtx::plain(1));
        assert_eq!(s.clusters().len(), 1);
        assert_eq!(s.clusters()[0].len(), clients.len());
    }

    #[test]
    fn aggressive_gap_forces_a_split() {
        let mut clients = small_federation(ModelKind::Sgc, 18);
        // gap < 1 means max > gap·mean always holds once sequences exist.
        let mut s = GcflPlus::new(3, 0.5);
        s.warmup = 1;
        let parts: Vec<usize> = (0..clients.len()).collect();
        for _ in 0..6 {
            s.round(&mut clients, &parts, &RoundCtx::plain(1));
        }
        assert!(s.clusters().len() > 1, "no split happened");
        // Every client appears in exactly one cluster.
        let mut seen: Vec<usize> = s.clusters().concat();
        seen.sort_unstable();
        assert_eq!(seen, (0..clients.len()).collect::<Vec<_>>());
    }
}
