//! FedAvg (McMahan et al. 2017) — the data-size-weighted baseline
//! (paper Eq. 2) — and the Local-only reference of Fig. 1(b).

use super::averaged::{average, train_weighted};
use super::{
    Arrivals, Averaged, Collaboration, Objective, RoundCtx, RoundStats, Strategy, Weighted,
};
use crate::client::Client;
use crate::exec::{mean_loss, train_participants};
use fedgta_nn::TrainHooks;

/// Classic FedAvg: all participants start from the global model, train
/// locally, and the server averages parameters weighted by `n_i / n`.
pub type FedAvg = Averaged<Plain>;

impl FedAvg {
    /// Creates a FedAvg strategy.
    pub fn new() -> Self {
        Self::default()
    }
}

/// FedAvg's objective: local training adds nothing, the server averages.
#[derive(Default)]
pub struct Plain;

impl Objective for Plain {
    const NAME: &'static str = "FedAvg";
    type Upload = Weighted;

    fn train(&self, i: usize, c: &mut Client, ctx: &RoundCtx<'_>) -> (f32, Weighted) {
        train_weighted(i, c, ctx, TrainHooks::none())
    }

    fn server(&mut self, round: Arrivals<'_, Weighted>) -> Collaboration {
        average(round.results)
    }
}

/// No collaboration: every client trains on its own data only (the
/// "Local" curve of Fig. 1(b)).
#[derive(Default)]
pub struct LocalOnly;

impl LocalOnly {
    /// Creates the local-only baseline.
    pub fn new() -> Self {
        Self
    }
}

impl Strategy for LocalOnly {
    fn name(&self) -> String {
        "Local".into()
    }

    fn round(
        &mut self,
        clients: &mut [Client],
        participants: &[usize],
        ctx: &RoundCtx<'_>,
    ) -> RoundStats {
        let results = train_participants(clients, participants, ctx, |i, c| {
            let mut hooks = TrainHooks { pseudo: ctx.pseudo_for(i), ..TrainHooks::none() };
            (c.train_local(ctx.epochs, &mut hooks), ())
        });
        RoundStats {
            mean_loss: mean_loss(&results),
            bytes_uploaded: 0, // no communication at all
            bytes_downloaded: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{eval::global_test_accuracy, strategies::test_support::small_federation};
    use fedgta_nn::models::ModelKind;

    #[test]
    fn fedavg_synchronizes_all_clients() {
        let mut clients = small_federation(ModelKind::Sgc, 1);
        let mut s = FedAvg::new();
        let parts: Vec<usize> = (0..clients.len()).collect();
        s.round(&mut clients, &parts, &RoundCtx::plain(1));
        let p0 = clients[0].model.params();
        for c in &clients[1..] {
            assert_eq!(c.model.params(), p0);
        }
    }

    #[test]
    fn fedavg_learns_over_rounds() {
        let mut clients = small_federation(ModelKind::Sgc, 3);
        let mut s = FedAvg::new();
        let parts: Vec<usize> = (0..clients.len()).collect();
        let before = global_test_accuracy(&mut clients);
        for _ in 0..15 {
            s.round(&mut clients, &parts, &RoundCtx::plain(2));
        }
        let after = global_test_accuracy(&mut clients);
        assert!(after > before + 0.2, "acc {before} -> {after}");
        assert!(after > 0.7, "acc {after}");
    }

    #[test]
    fn partial_participation_still_updates_global() {
        let mut clients = small_federation(ModelKind::Sgc, 3);
        let mut s = FedAvg::new();
        s.round(&mut clients, &[0, 2], &RoundCtx::plain(1));
        // Non-participants also received the global model.
        assert_eq!(clients[1].model.params(), clients[0].model.params());
    }

    #[test]
    fn local_only_diverges_across_clients() {
        let mut clients = small_federation(ModelKind::Sgc, 4);
        let mut s = LocalOnly::new();
        let parts: Vec<usize> = (0..clients.len()).collect();
        for _ in 0..3 {
            s.round(&mut clients, &parts, &RoundCtx::plain(1));
        }
        assert_ne!(clients[0].model.params(), clients[1].model.params());
    }

    #[test]
    fn local_only_learns_its_own_subgraph() {
        let mut clients = small_federation(ModelKind::Sgc, 5);
        let mut s = LocalOnly::new();
        let parts: Vec<usize> = (0..clients.len()).collect();
        for _ in 0..20 {
            s.round(&mut clients, &parts, &RoundCtx::plain(2));
        }
        assert!(global_test_accuracy(&mut clients) > 0.6);
    }
}
