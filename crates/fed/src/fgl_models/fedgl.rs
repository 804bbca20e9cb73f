//! FedGL (Chen et al. 2021): federated graph learning with global
//! self-supervision.
//!
//! Clients hold *overlapping* subgraphs: FedGL asks for halo views
//! ([`Strategy::halo_views`]). Each round the server fuses the round's
//! participants' soft predictions per global node into one matrix, keeps
//! the confident nodes as global pseudo-labels, and each participant reads
//! its rows of that matrix through its `global_ids`: a soft-target
//! cross-entropy on its unlabeled (including ghost) nodes. Parameter
//! aggregation is delegated to any inner strategy — the paper's Table 5
//! plugs in FedAvg, MOON, FedDC, and FedGTA.

use crate::client::Client;
use crate::exec::par_clients;
use crate::strategies::{RoundCtx, RoundStats, Strategy};
use fedgta_nn::models::{ModelKind, PseudoLabels};
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

    /// The participants' soft predictions fused per global node: row `g`
    /// is their mean over the participants that hold node `g`.
    ///
    /// Per-client prediction runs client-parallel on `ctx.threads` workers
    /// through their lent arenas; the fusion sums stay on the driver in
    /// participant order, so the result is thread-count-independent.
    fn fuse_predictions(clients: &mut [Client], participants: &[usize], ctx: &RoundCtx) -> Matrix {
        let ids = |i: &usize| clients[*i].global_ids.iter().copied();
        let num_global = participants.iter().flat_map(ids).max().map_or(0, |m| m as usize + 1);
        let mut sum = Matrix::zeros(num_global, clients[participants[0]].data.num_classes);
        let mut count = vec![0u32; num_global];
        let predict = |_, c: &mut Client| c.model.predict(&c.data);
        let predictions = par_clients(clients, participants, ctx.threads, ctx.kits, predict);
        for (&i, probs) in participants.iter().zip(&predictions) {
            let c = &clients[i];
            assert_eq!(c.global_ids.len(), c.data.num_nodes(), "client {i}'s id map");
            for (local, &g) in c.global_ids.iter().enumerate() {
                for (o, &p) in sum.row_mut(g as usize).iter_mut().zip(probs.row(local)) {
                    *o += p;
                }
                count[g as usize] += 1;
            }
        }
        for (g, &n) in count.iter().enumerate().filter(|(_, &n)| n > 0) {
            let inv = 1.0 / n as f32;
            sum.row_mut(g).iter_mut().for_each(|v| *v *= inv);
        }
        sum
    }
}

impl Strategy for FedGl {
    fn name(&self) -> String {
        format!("FedGL+{}", self.inner.name())
    }

    fn store_bytes(&self) -> usize {
        self.inner.store_bytes()
    }

    fn halo_views(&self, model: ModelKind) -> Result<bool, &'static str> {
        self.inner.halo_views(model).map(|_| true)
    }

    fn round(
        &mut self,
        clients: &mut [Client],
        participants: &[usize],
        ctx: &RoundCtx<'_>,
    ) -> RoundStats {
        self.rounds_seen += 1;
        if self.rounds_seen <= self.warmup || participants.is_empty() {
            return self.inner.round(clients, participants, ctx);
        }
        let fused = Self::fuse_predictions(clients, participants, ctx);
        let max = |g: u32| fused.row(g as usize).iter().fold(0f32, |m, &v| m.max(v));
        // Per participant, the fused row each local node reads: its global
        // id where that node is confident and not a training node.
        let none = PseudoLabels::NONE;
        let mut rows = Vec::with_capacity(participants.len());
        for &i in participants {
            let c = &clients[i];
            let read = |&g: &u32| if max(g) >= self.confidence { g } else { none };
            let mut own: Vec<u32> = c.global_ids.iter().map(read).collect();
            for &t in &c.data.train_nodes {
                own[t as usize] = none;
            }
            rows.push(own);
        }
        let mut pseudo = vec![None; clients.len()];
        for (&i, own) in participants.iter().zip(&rows) {
            if own.iter().any(|&g| g != none) {
                pseudo[i] = Some(PseudoLabels { targets: &fused, rows: own, weight: self.weight });
            }
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
    use std::sync::{Arc, Mutex};

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
        let fused = FedGl::fuse_predictions(&mut clients, &parts, &RoundCtx::plain(0));
        let confident = |g| fused.row(g).iter().any(|&p| p >= s.confidence);
        assert!((0..fused.rows()).any(confident), "no node ever became confident");
    }

    /// FedGL with its pseudo-labels on from round 1 for every node it fuses.
    fn eager() -> FedGl {
        let mut s = FedGl::new(Box::new(FedAvg::new()));
        s.confidence = 0.0;
        s.warmup = 0;
        s
    }

    #[test]
    fn a_non_participant_never_reaches_the_fusion() {
        let mut clients = halo_federation(62);
        let nan = vec![f32::NAN; clients[3].model.num_params()];
        clients[3].model.set_params(&nan);
        eager().round(&mut clients, &[0, 1, 2], &RoundCtx::plain(1));
        for c in &clients[..3] {
            assert!(c.model.param_slice().iter().all(|v| v.is_finite()), "client {}", c.id);
        }
    }

    /// Per round, what each client's pseudo-labels were: the address of
    /// the matrix they read and the length of their row map.
    type Seen = Vec<Option<(usize, usize)>>;

    /// Notes the pseudo-labels the round hands each client, then trains.
    struct Spy {
        inner: FedAvg,
        seen: Arc<Mutex<Vec<Seen>>>,
    }

    impl Strategy for Spy {
        fn name(&self) -> String {
            self.inner.name()
        }

        fn round(
            &mut self,
            clients: &mut [Client],
            participants: &[usize],
            ctx: &RoundCtx<'_>,
        ) -> RoundStats {
            let seen = (0..clients.len())
                .map(|i| {
                    ctx.pseudo_for(i).map(|p| (p.targets as *const Matrix as usize, p.rows.len()))
                })
                .collect();
            self.seen.lock().unwrap().push(seen);
            self.inner.round(clients, participants, ctx)
        }
    }

    #[test]
    fn participants_read_one_fused_matrix_through_their_ids() {
        let mut clients = halo_federation(63);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let spy = Spy { inner: FedAvg::new(), seen: Arc::clone(&seen) };
        let mut s = FedGl { inner: Box::new(spy), ..eager() };
        s.round(&mut clients, &[0, 2, 3], &RoundCtx::plain(1));
        let seen = seen.lock().unwrap();
        let round = &seen[0];
        assert!(round[1].is_none(), "a non-participant got pseudo-labels");
        let matrix = round[0].expect("participant 0 has pseudo-labels").0;
        for i in [0, 2, 3] {
            let (targets, rows) = round[i].expect("every participant has pseudo-labels");
            assert_eq!(targets, matrix, "client {i} reads a matrix of its own");
            assert_eq!(rows, clients[i].data.num_nodes(), "client {i}");
        }
    }

    #[test]
    fn halo_views_are_asked_for_and_refusals_pass_through() {
        use crate::fgl_models::FedSagePlus;
        let fedgl = FedGl::new(Box::new(FedAvg::new()));
        assert_eq!(fedgl.halo_views(ModelKind::Gcn), Ok(true));
        let nested = FedGl::new(Box::new(FedSagePlus::new(Box::new(FedAvg::new()))));
        assert_eq!(nested.halo_views(ModelKind::Gcn), Err(FedSagePlus::NEEDS_RAW_FEATURES));
        assert_eq!(nested.halo_views(ModelKind::Sage), Ok(true));
    }
}
