//! GCFL+ (Xie et al. 2021): gradient-sequence clustered federated
//! learning.
//!
//! Clients start in one cluster sharing a FedAvg model. After `warmup`
//! rounds, a cluster splits when max `‖Δw‖ > gap ·` mean `‖Δw‖` over its
//! members — one ratio, not GCFL's mean `< ε₁` *and* max `> ε₂` (ROADMAP
//! item 2, deviation #4). The bipartition uses dynamic-time-warping
//! distance over each client's recent *gradient signature sequence*
//! (GCFL+'s series-based clustering), then aggregation stays in clusters.
//!
//! Substitution note (DESIGN.md): the DTW series elements are fixed random
//! projections of the full update vector (32 dims) instead of the raw
//! `O(f²)` gradients — same sequence geometry at a fraction of the memory.

use super::averaged::{train_weighted, Arrivals, Averaged, Collaboration, Next, Objective, Row};
use super::{l2_norm, sub, RoundCtx};
use crate::client::Client;
use fedgta_nn::TrainHooks;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SIGNATURE_DIM: usize = 32;

/// GCFL+: one slot of the model store per cluster.
pub type GcflPlus = Averaged<Clustered>;

impl GcflPlus {
    /// Creates GCFL+ with window `T` and split gap factor.
    pub fn new(window: usize, gap: f32) -> Self {
        Clustered { window: window.max(2), gap, warmup: 3, ..Clustered::default() }.into()
    }

    /// Current cluster membership; cluster `k` trains from slot `k`.
    pub fn clusters(&self) -> &[Vec<usize>] {
        &self.objective.clusters
    }
}

/// GCFL+'s objective: FedAvg's training plus each arrival's update `Δ`
/// from the model it received; the server averages each cluster into its
/// slot and splits a cluster whose updates disagree.
#[derive(Default)]
pub struct Clustered {
    /// Window size `T` of gradient sequences (paper grid: 2–10).
    pub window: usize,
    /// Split trigger: `max‖Δw‖ > gap · mean‖Δw‖` within a cluster.
    pub gap: f32,
    /// Rounds to observe before allowing any split.
    pub warmup: usize,
    /// Members of each cluster, in the order its row sums them.
    clusters: Vec<Vec<usize>>,
    sequences: Vec<Vec<Vec<f32>>>,
    projection: Vec<f32>,
    rounds_seen: usize,
}

impl Clustered {
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

    /// The GCFL criterion on `cluster`'s arrived updates, then its DTW
    /// bipartition: `Some([stays, leaves])` when it splits.
    fn split(&self, cluster: &[usize], deltas: &[Option<Vec<f32>>]) -> Option<[Vec<usize>; 2]> {
        let norms: Vec<f64> =
            cluster.iter().filter_map(|&i| deltas[i].as_ref().map(|d| l2_norm(d))).collect();
        if cluster.len() < 2 || norms.len() < 2 || self.sequences[cluster[0]].len() < 2 {
            return None;
        }
        let mean = norms.iter().sum::<f64>() / norms.len() as f64;
        let max = norms.iter().copied().fold(0.0, f64::max);
        let disagree = max > self.gap as f64 * mean;
        if !disagree {
            return None;
        }
        // Bipartition by DTW distance: seeds = farthest pair.
        let seq = |i: usize| &self.sequences[i];
        let mut far = (cluster[0], cluster[1], -1.0f64);
        for (a, &x) in cluster.iter().enumerate() {
            for &y in &cluster[a + 1..] {
                let d = dtw_distance(seq(x), seq(y));
                if d > far.2 {
                    far = (x, y, d);
                }
            }
        }
        let (sa, sb, _) = far;
        let (mut ca, mut cb) = (vec![sa], vec![sb]);
        for &i in cluster.iter().filter(|&&i| i != sa && i != sb) {
            if dtw_distance(seq(i), seq(sa)) <= dtw_distance(seq(i), seq(sb)) {
                ca.push(i);
            } else {
                cb.push(i);
            }
        }
        Some([ca, cb])
    }
}

impl Objective for Clustered {
    const NAME: &'static str = "GCFL+";
    /// Parameters, update `Δ`, `n_train`.
    type Upload = (Vec<f32>, Vec<f32>, f64);

    fn prepare(&mut self, clients: usize, plen: usize) {
        if self.clusters.is_empty() {
            self.clusters = vec![(0..clients).collect()];
            self.sequences = vec![Vec::new(); clients];
            let mut rng = StdRng::seed_from_u64(0x6cf1);
            self.projection = (0..SIGNATURE_DIM * plen.min(4096))
                .map(|_| rng.random_range(-1.0f32..1.0))
                .collect();
        }
        self.rounds_seen += 1;
    }

    fn train(&self, i: usize, c: &mut Client, ctx: &RoundCtx<'_>) -> (f32, Self::Upload) {
        let received = c.model.params();
        let (loss, (w, n)) = train_weighted(i, c, ctx, TrainHooks::none());
        let delta = sub(&w, &received);
        (loss, (w, delta, n))
    }

    /// One FedAvg row per cluster with an arrival, in member order (a
    /// cluster with none keeps its model); a split's leavers get a new
    /// slot and the same row.
    fn server(&mut self, round: Arrivals<'_, Self::Upload>) -> Collaboration {
        let clients = self.sequences.len();
        // Each client's `(arrival index, n_train)`, and its update.
        let (mut arrival, mut deltas) = (vec![None; clients], vec![None; clients]);
        for (p, r) in round.results.iter_mut().enumerate() {
            arrival[r.client] = Some((p, r.payload.2));
            deltas[r.client] = Some(std::mem::take(&mut r.payload.1));
        }
        let mut rows: Vec<Option<Row>> = (self.clusters.iter())
            .map(|cluster| {
                let pairs: Vec<(usize, f64)> = cluster.iter().filter_map(|&i| arrival[i]).collect();
                (!pairs.is_empty()).then(|| Row::average(pairs))
            })
            .collect();
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
        if self.rounds_seen > self.warmup {
            for k in 0..self.clusters.len() {
                if let Some([stays, leaves]) = self.split(&self.clusters[k], &deltas) {
                    let slot = self.clusters.len();
                    for &i in &leaves {
                        round.store.assign(i, slot);
                    }
                    rows.push(rows[k].clone());
                    self.clusters[k] = stays;
                    self.clusters.push(leaves);
                }
            }
        }
        let written = rows.into_iter().enumerate();
        written.filter_map(|(k, row)| Some((k, Next::Row(row?)))).collect()
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

#[cfg(test)]
mod tests {
    use super::super::Strategy;
    use super::*;
    use crate::{eval::global_test_accuracy, strategies::test_support::small_federation};
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
        let acc = global_test_accuracy(&mut clients);
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
        s.objective.warmup = 1;
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
