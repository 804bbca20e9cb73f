//! FedDC (Gao et al. 2022): local drift decoupling and correction.
//!
//! Each client keeps a drift variable `hᵢ` tracking how far its local
//! optimum sits from the global model. The local objective adds the
//! penalty `(λ/2)‖w − (w_global − hᵢ)‖²` (gradient correction injected per
//! step); after local training the drift updates
//! `hᵢ ← hᵢ + (wᵢ − w_global)` and the server averages the
//! drift-corrected uploads `wᵢ + hᵢ`.

use super::{weighted_average, Broadcast, RoundCtx, RoundStats, Strategy};
use crate::client::Client;
use crate::exec::{mean_loss, train_participants};
use fedgta_nn::TrainHooks;

/// FedDC state.
pub struct FedDc {
    /// Penalty coefficient λ.
    pub lambda: f32,
    global: Option<Vec<f32>>,
    drift: Vec<Vec<f32>>,
}

impl FedDc {
    /// Creates FedDC with penalty λ.
    pub fn new(lambda: f32) -> Self {
        Self {
            lambda,
            global: None,
            drift: Vec::new(),
        }
    }
}

impl Strategy for FedDc {
    fn name(&self) -> String {
        "FedDC".into()
    }

    fn round(
        &mut self,
        clients: &mut [Client],
        participants: &[usize],
        ctx: &RoundCtx<'_>,
    ) -> RoundStats {
        let global = self
            .global
            .get_or_insert_with(|| clients[0].model.params())
            .clone();
        if self.drift.len() != clients.len() {
            self.drift = vec![vec![0.0; global.len()]; clients.len()];
        }
        let lambda = self.lambda;
        let ctx = ctx.with_broadcast(Broadcast::Global(&global));
        // Client-parallel local steps: each worker reads the model the
        // executor installed and its own drift vector; drift mutation
        // happens below on the driver in participant order.
        let drift = &self.drift;
        let results = train_participants(clients, participants, &ctx, |i, c| {
            // Anchor: w_global − hᵢ, with w_global as the wire delivered it.
            let mut anchor = c.model.params();
            for (a, &h) in anchor.iter_mut().zip(&drift[i]) {
                *a -= h;
            }
            let mut grad_hook = move |w: &[f32], g: &mut [f32]| {
                for ((gj, &wj), &aj) in g.iter_mut().zip(w).zip(&anchor) {
                    *gj += lambda * (wj - aj);
                }
            };
            let mut hooks = TrainHooks {
                grad_hook: Some(&mut grad_hook),
                pseudo: ctx.pseudo_for(i),
                ..TrainHooks::none()
            };
            let loss = c.train_local(ctx.epochs, &mut hooks);
            (loss, (c.model.params(), c.n_train() as f64))
        });
        let loss = mean_loss(&results);
        let _agg = fedgta_obs::span!("aggregate", strategy = "FedDC");
        let mut uploads = Vec::with_capacity(results.len());
        for r in &results {
            let i = r.client;
            let (w_i, n) = &r.payload;
            // Drift update and drift-corrected upload.
            let mut corrected = vec![0f32; global.len()];
            for j in 0..global.len() {
                self.drift[i][j] += w_i[j] - global[j];
                corrected[j] = w_i[j] + self.drift[i][j];
            }
            uploads.push((corrected, *n));
        }
        let bytes_uploaded = uploads.iter().map(|(p, _)| p.len() * 4 + 8).sum();
        let new_global = weighted_average(&uploads);
        let bytes_downloaded = clients.len() * (new_global.len() * 4 + 8);
        for c in clients.iter_mut() {
            c.model.set_params(&new_global);
        }
        self.global = Some(new_global);
        RoundStats {
            mean_loss: loss,
            bytes_uploaded,
            bytes_downloaded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{federation_accuracy, small_federation};
    use super::*;
    use fedgta_nn::models::ModelKind;

    #[test]
    fn feddc_learns() {
        let mut clients = small_federation(ModelKind::Sgc, 13);
        let mut s = FedDc::new(0.01);
        let parts: Vec<usize> = (0..clients.len()).collect();
        for _ in 0..15 {
            s.round(&mut clients, &parts, &RoundCtx::plain(2));
        }
        assert!(federation_accuracy(&mut clients) > 0.65);
    }

    #[test]
    fn drift_accumulates_only_for_participants() {
        let mut clients = small_federation(ModelKind::Sgc, 14);
        let mut s = FedDc::new(0.01);
        s.round(&mut clients, &[0], &RoundCtx::plain(1));
        assert!(s.drift[0].iter().any(|&v| v != 0.0));
        assert!(s.drift[1].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn zero_lambda_matches_drift_corrected_fedavg_shape() {
        // Sanity: runs and synchronizes with λ = 0.
        let mut clients = small_federation(ModelKind::Sgc, 15);
        let mut s = FedDc::new(0.0);
        let parts: Vec<usize> = (0..clients.len()).collect();
        s.round(&mut clients, &parts, &RoundCtx::plain(1));
        let p0 = clients[0].model.params();
        assert!(clients.iter().all(|c| c.model.params() == p0));
    }
}
