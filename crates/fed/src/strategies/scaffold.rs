//! SCAFFOLD (Karimireddy et al. 2020): stochastic controlled averaging.
//!
//! The server keeps a control variate `c`, each client a control `cᵢ`.
//! Local steps use the corrected gradient `g − cᵢ + c`; after `K` local
//! steps the client control updates via option II:
//! `cᵢ⁺ = cᵢ − c + (w_global − w_i)/(K·η)`, and the server moves
//! `w ← w + mean(Δwᵢ)`, `c ← c + (|S|/N)·mean(Δcᵢ)`.

use super::{sub, Broadcast, RoundCtx, RoundStats, Strategy};
use crate::client::Client;
use crate::exec::{mean_loss, train_participants};
use fedgta_nn::{Sgd, TrainHooks};
use std::cell::Cell;

/// SCAFFOLD state.
///
/// SCAFFOLD's control-variate correction is derived for plain SGD; running
/// it under adaptive optimizers destabilizes the correction (the paper's
/// own Scaffold rows use SGD-style local updates). The strategy therefore
/// swaps each participating client onto SGD with `sgd_lr`.
pub struct Scaffold {
    /// Local SGD learning rate used while this strategy drives a client.
    pub sgd_lr: f32,
    global: Option<Vec<f32>>,
    c_server: Vec<f32>,
    c_clients: Vec<Vec<f32>>,
}

impl Default for Scaffold {
    fn default() -> Self {
        Self::new()
    }
}

impl Scaffold {
    /// Creates SCAFFOLD with zero-initialized control variates.
    pub fn new() -> Self {
        Self {
            sgd_lr: 0.1,
            global: None,
            c_server: Vec::new(),
            c_clients: Vec::new(),
        }
    }

    fn ensure_state(&mut self, clients: &[Client]) {
        if self.global.is_none() {
            let p = clients[0].model.params();
            self.c_server = vec![0.0; p.len()];
            self.c_clients = vec![vec![0.0; p.len()]; clients.len()];
            self.global = Some(p);
        }
    }
}

impl Strategy for Scaffold {
    fn name(&self) -> String {
        "Scaffold".into()
    }

    fn round(
        &mut self,
        clients: &mut [Client],
        participants: &[usize],
        ctx: &RoundCtx<'_>,
    ) -> RoundStats {
        self.ensure_state(clients);
        let global = self.global.clone().expect("initialized");
        let n_total = clients.len();
        let sgd_lr = self.sgd_lr;
        // Client-parallel local steps: each worker reads only the shared
        // global snapshot and its *own* control variate, so the corrected
        // gradients are unaffected by execution order. All control-variate
        // mutation (option II) happens below on the driver, in participant
        // order — bit-identical to the sequential round.
        let (c_server, c_clients) = (&self.c_server, &self.c_clients);
        let ctx = ctx.with_broadcast(Broadcast::Global(&global));
        let results = train_participants(clients, participants, &ctx, |i, c| {
            // SCAFFOLD assumes SGD locally (see struct docs). With heavy-ball
            // momentum β the asymptotic effective step is η/(1−β); the
            // option-II control update uses that effective rate.
            let momentum = 0.9f32;
            c.opt = Box::new(Sgd::new(sgd_lr, momentum, 0.0));
            let lr = c.opt.learning_rate() / (1.0 - momentum);
            let correction: Vec<f32> = sub(c_server, &c_clients[i]);
            let steps = Cell::new(0usize);
            let mut grad_hook = |_w: &[f32], g: &mut [f32]| {
                for (gj, &cj) in g.iter_mut().zip(&correction) {
                    *gj += cj;
                }
                steps.set(steps.get() + 1);
            };
            let mut hooks = TrainHooks {
                grad_hook: Some(&mut grad_hook),
                pseudo: ctx.pseudo_for(i),
                ..TrainHooks::none()
            };
            let loss = c.train_local(ctx.epochs, &mut hooks);
            (loss, (c.model.params(), steps.get().max(1), lr))
        });
        let loss = mean_loss(&results);
        let _agg = fedgta_obs::span!("aggregate", strategy = "Scaffold");
        // Under the fault-injecting transport only the accepted quorum's
        // results come back; all server math scales by what actually
        // arrived, not by what was asked for.
        let arrived = results.len();
        let mut sum_dw = vec![0f64; global.len()];
        let mut sum_dc = vec![0f64; global.len()];
        for r in &results {
            let i = r.client;
            let (w_i, k, lr) = &r.payload;
            // Option II client-control update (driver-side, participant
            // order).
            let scale = 1.0 / (*k as f32 * lr);
            let mut dc = vec![0f32; global.len()];
            for j in 0..global.len() {
                let ci_new =
                    self.c_clients[i][j] - self.c_server[j] + scale * (global[j] - w_i[j]);
                dc[j] = ci_new - self.c_clients[i][j];
                self.c_clients[i][j] = ci_new;
            }
            for j in 0..global.len() {
                sum_dw[j] += (w_i[j] - global[j]) as f64;
                sum_dc[j] += dc[j] as f64;
            }
        }
        let m = arrived.max(1) as f64;
        let mut new_global = global.clone();
        for j in 0..new_global.len() {
            new_global[j] += (sum_dw[j] / m) as f32;
            self.c_server[j] += ((arrived as f64 / n_total as f64) * sum_dc[j] / m) as f32;
        }
        for c in clients.iter_mut() {
            c.model.set_params(&new_global);
        }
        self.global = Some(new_global);
        RoundStats {
            mean_loss: loss,
            // SCAFFOLD ships the model update and the control update.
            bytes_uploaded: arrived * (2 * global.len() * 4 + 8),
            // Down: every client gets the new model; participants would
            // additionally need the server control next round.
            bytes_downloaded: clients.len() * (global.len() * 4 + 8)
                + arrived * (global.len() * 4 + 8),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{federation_accuracy, small_federation};
    use super::*;
    use fedgta_nn::models::ModelKind;

    #[test]
    fn scaffold_learns() {
        let mut clients = small_federation(ModelKind::Sgc, 8);
        let mut s = Scaffold::new();
        let parts: Vec<usize> = (0..clients.len()).collect();
        for _ in 0..15 {
            s.round(&mut clients, &parts, &RoundCtx::plain(2));
        }
        assert!(federation_accuracy(&mut clients) > 0.65);
    }

    #[test]
    fn control_variates_become_nonzero() {
        let mut clients = small_federation(ModelKind::Sgc, 9);
        let mut s = Scaffold::new();
        let parts: Vec<usize> = (0..clients.len()).collect();
        for _ in 0..2 {
            s.round(&mut clients, &parts, &RoundCtx::plain(1));
        }
        assert!(s.c_server.iter().any(|&v| v != 0.0));
        assert!(s.c_clients[0].iter().any(|&v| v != 0.0));
    }

    #[test]
    fn partial_participation_updates_only_those_controls() {
        let mut clients = small_federation(ModelKind::Sgc, 10);
        let mut s = Scaffold::new();
        s.round(&mut clients, &[1], &RoundCtx::plain(1));
        assert!(s.c_clients[1].iter().any(|&v| v != 0.0));
        assert!(s.c_clients[0].iter().all(|&v| v == 0.0));
    }
}
