//! FedProx (Li et al. 2020): FedAvg plus a proximal term
//! `(μ/2)‖w − w_global‖²` in the local objective, implemented exactly as
//! the gradient correction `g ← g + μ(w − w_global)` injected before every
//! optimizer step.

use super::{weighted_average, Broadcast, RoundCtx, RoundStats, Strategy};
use crate::client::Client;
use crate::exec::{mean_loss, train_participants};
use fedgta_nn::TrainHooks;

/// FedProx with proximal coefficient `mu`.
pub struct FedProx {
    /// Proximal coefficient μ (paper grid: {0.001, 0.01, 0.1}).
    pub mu: f32,
    global: Option<Vec<f32>>,
}

impl FedProx {
    /// Creates FedProx with the given μ.
    pub fn new(mu: f32) -> Self {
        Self { mu, global: None }
    }
}

impl Strategy for FedProx {
    fn name(&self) -> String {
        "FedProx".into()
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
        let mu = self.mu;
        let ctx = ctx.with_broadcast(Broadcast::Global(&global));
        // Client-parallel local steps. The proximal anchor is the model the
        // executor just installed — what the wire delivered, which under a
        // lossy download codec is not the server's copy.
        let results = train_participants(clients, participants, &ctx, |i, c| {
            let anchor = c.model.params();
            let mut grad_hook = move |w: &[f32], g: &mut [f32]| {
                for ((gj, &wj), &aj) in g.iter_mut().zip(w).zip(&anchor) {
                    *gj += mu * (wj - aj);
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
        let _agg = fedgta_obs::span!("aggregate", strategy = "FedProx");
        let uploads: Vec<(Vec<f32>, f64)> = results.into_iter().map(|r| r.payload).collect();
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
    use super::super::{l2_norm, sub};
    use super::*;
    use fedgta_nn::models::ModelKind;

    #[test]
    fn fedprox_learns() {
        let mut clients = small_federation(ModelKind::Sgc, 6);
        let mut s = FedProx::new(0.01);
        let parts: Vec<usize> = (0..clients.len()).collect();
        for _ in 0..15 {
            s.round(&mut clients, &parts, &RoundCtx::plain(2));
        }
        assert!(federation_accuracy(&mut clients) > 0.7);
    }

    #[test]
    fn larger_mu_keeps_locals_closer_to_global() {
        // One round from the same start: with huge μ, local drift shrinks.
        let drift = |mu: f32| {
            let mut clients = small_federation(ModelKind::Sgc, 7);
            let start = clients[0].model.params();
            let mut s = FedProx::new(mu);
            // Measure drift of the *uploaded* (pre-average) params by using
            // a single participant.
            s.round(&mut clients, &[0], &RoundCtx::plain(3));
            l2_norm(&sub(&clients[0].model.params(), &start))
        };
        let small = drift(0.0);
        let large = drift(10.0);
        assert!(large < small, "drift small-mu {small} vs large-mu {large}");
    }
}
