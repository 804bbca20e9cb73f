//! FedGL (Chen et al. 2021): federated graph learning with global
//! self-supervision.
//!
//! Clients hold *overlapping* subgraphs (build them with
//! `ClientBuildConfig { halo: true, .. }`). Each round the server fuses
//! every client's soft predictions per global node, keeps the confident
//! ones as global pseudo-labels, and broadcasts them back; clients add a
//! soft-target cross-entropy on their unlabeled (including ghost) nodes.
//! Parameter aggregation is delegated to any inner strategy — the paper's
//! Table 5 plugs in FedAvg, MOON, FedDC, and FedGTA.

use crate::client::Client;
use crate::exec::par_clients;
use crate::strategies::{RoundCtx, RoundStats, Strategy};
use fedgta_nn::models::PseudoLabels;
use fedgta_nn::Matrix;

/// FedGL wrapper strategy.
pub struct FedGl {
    inner: Box<dyn Strategy>,
    /// Minimum fused max-probability for a node to become a pseudo-label.
    pub confidence: f32,
    /// Pseudo-label loss weight λ.
    pub weight: f32,
    /// Rounds before pseudo-labels switch on (models are random at first).
    pub warmup: usize,
    rounds_seen: usize,
}

impl FedGl {
    /// Wraps `inner` with FedGL's global self-supervision.
    pub fn new(inner: Box<dyn Strategy>) -> Self {
        Self { inner, confidence: 0.8, weight: 0.5, warmup: 2, rounds_seen: 0 }
    }

    /// Fuses per-node predictions across clients into global soft labels.
    ///
    /// Per-client prediction runs client-parallel on `ctx.threads` workers
    /// through their lent arenas; the fusion sums stay on the driver in
    /// client order, so the result is thread-count-independent.
    fn fuse_predictions(&self, clients: &mut [Client], ctx: &RoundCtx<'_>) -> (Matrix, Vec<bool>) {
        let num_classes = clients[0].data.num_classes;
        let num_global = clients
            .iter()
            .flat_map(|c| c.global_ids.iter())
            .copied()
            .max()
            .map_or(0, |m| m as usize + 1);
        let mut sum = Matrix::zeros(num_global, num_classes);
        let mut count = vec![0u32; num_global];
        let all: Vec<usize> = (0..clients.len()).collect();
        let predictions =
            par_clients(clients, &all, ctx.threads, ctx.kits, |_, c| c.model.predict(&c.data));
        for (c, probs) in clients.iter().zip(&predictions) {
            for (local, &g) in c.global_ids.iter().enumerate() {
                if local >= c.data.num_nodes() {
                    break;
                }
                let row = probs.row(local);
                let out = sum.row_mut(g as usize);
                for (o, &p) in out.iter_mut().zip(row) {
                    *o += p;
                }
                count[g as usize] += 1;
            }
        }
        let mut confident = vec![false; num_global];
        for g in 0..num_global {
            if count[g] == 0 {
                continue;
            }
            let inv = 1.0 / count[g] as f32;
            let row = sum.row_mut(g);
            let mut max = 0f32;
            for v in row.iter_mut() {
                *v *= inv;
                max = max.max(*v);
            }
            confident[g] = max >= self.confidence;
        }
        (sum, confident)
    }
}

impl Strategy for FedGl {
    fn name(&self) -> String {
        format!("FedGL+{}", self.inner.name())
    }

    fn store_bytes(&self) -> usize {
        self.inner.store_bytes()
    }

    fn round(
        &mut self,
        clients: &mut [Client],
        participants: &[usize],
        ctx: &RoundCtx<'_>,
    ) -> RoundStats {
        self.rounds_seen += 1;
        if self.rounds_seen <= self.warmup {
            return self.inner.round(clients, participants, ctx);
        }
        let (global_soft, confident) = self.fuse_predictions(clients, ctx);
        // Per-client pseudo-label payloads over *local* node ids.
        let mut pseudo: Vec<Option<PseudoLabels>> = Vec::with_capacity(clients.len());
        for c in clients.iter() {
            let n = c.data.num_nodes();
            let mut targets = Matrix::zeros(n, c.data.num_classes);
            let mut mask = vec![false; n];
            let mut in_train = vec![false; n];
            for &t in &c.data.train_nodes {
                in_train[t as usize] = true;
            }
            let mut any = false;
            for local in 0..n {
                let g = c.global_ids[local] as usize;
                if confident[g] && !in_train[local] {
                    targets.row_mut(local).copy_from_slice(global_soft.row(g));
                    mask[local] = true;
                    any = true;
                }
            }
            pseudo.push(any.then_some(PseudoLabels { targets, mask, weight: self.weight }));
        }
        let ctx = RoundCtx { pseudo: Some(&pseudo), ..*ctx };
        self.inner.round(clients, participants, &ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{build_clients, ClientBuildConfig};
    use crate::eval::global_test_accuracy;
    use crate::strategies::FedAvg;
    use fedgta_data::{generate_from_spec, DatasetSpec, Task};
    use fedgta_nn::models::{ModelConfig, ModelKind};
    use fedgta_partition::{communities_to_clients, louvain, LouvainConfig};

    fn halo_federation(seed: u64) -> Vec<Client> {
        let spec = DatasetSpec {
            name: "unit",
            nodes: 500,
            features: 16,
            classes: 4,
            avg_degree: 8.0,
            train_frac: 0.3,
            val_frac: 0.2,
            test_frac: 0.5,
            task: Task::Transductive,
            blocks_per_class: 3,
            homophily: 0.85,
            description: "unit",
        };
        let bench = generate_from_spec(&spec, seed);
        let comm = louvain(&bench.graph, &LouvainConfig::default());
        let parts = communities_to_clients(&comm, 4).unwrap();
        build_clients(
            &bench,
            &parts,
            &ClientBuildConfig {
                model: ModelConfig {
                    kind: ModelKind::Gcn,
                    hidden: 16,
                    layers: 2,
                    seed,
                    ..ModelConfig::default()
                },
                lr: 0.03,
                weight_decay: 0.0,
                halo: true,
            },
        )
    }

    #[test]
    fn fedgl_name_includes_inner() {
        let s = FedGl::new(Box::new(FedAvg::new()));
        assert_eq!(s.name(), "FedGL+FedAvg");
    }

    #[test]
    fn fedgl_learns_with_halo_overlap() {
        let mut clients = halo_federation(60);
        let mut s = FedGl::new(Box::new(FedAvg::new()));
        let parts: Vec<usize> = (0..clients.len()).collect();
        for _ in 0..12 {
            s.round(&mut clients, &parts, &RoundCtx::plain(2));
        }
        let acc = global_test_accuracy(&mut clients);
        assert!(acc > 0.6, "acc {acc}");
    }

    #[test]
    fn pseudo_labels_appear_after_warmup() {
        let mut clients = halo_federation(61);
        let mut s = FedGl::new(Box::new(FedAvg::new()));
        // The unit-test task is deliberately hard (label noise, tight
        // margins) and short GCN training stays soft, so a low confidence
        // gate keeps the test fast while still exercising the gating path.
        s.confidence = 0.45;
        let parts: Vec<usize> = (0..clients.len()).collect();
        // Train enough that some fused predictions exceed the threshold.
        for _ in 0..15 {
            s.round(&mut clients, &parts, &RoundCtx::plain(3));
        }
        let (_, confident) = s.fuse_predictions(&mut clients, &RoundCtx::plain(0));
        assert!(confident.iter().any(|&c| c), "no node ever became confident");
    }
}
