//! SCAFFOLD (Karimireddy et al. 2020): stochastic controlled averaging.
//!
//! The server keeps a control variate `c`, each client a control `cᵢ`.
//! Local steps use the corrected gradient `g − cᵢ + c`; after `K` local
//! steps the client control updates via option II:
//! `cᵢ⁺ = cᵢ − c + (w_global − w_i)/(K·η)`, and the server moves
//! `w ← w + mean(Δwᵢ)`, `c ← c + (|S|/N)·mean(Δcᵢ)`.

use super::averaged::{train_weighted, Arrivals, Averaged, Collaboration, Next, Objective};
use super::{sub, RoundCtx};
use crate::client::Client;
use crate::exec::LocalResult;
use fedgta_nn::{Sgd, TrainHooks};
use std::cell::Cell;

/// SCAFFOLD with zero-initialized control variates.
pub type Scaffold = Averaged<Controlled>;

impl Scaffold {
    /// Creates SCAFFOLD with zero-initialized control variates.
    pub fn new() -> Self {
        Self::default()
    }
}

/// SCAFFOLD's objective: control-variate-corrected local SGD, option-II
/// control updates and `w ← w + mean(Δwᵢ)` on the server.
///
/// SCAFFOLD's control-variate correction is derived for plain SGD; running
/// it under adaptive optimizers destabilizes the correction (the paper's
/// own Scaffold rows use SGD-style local updates). The objective therefore
/// swaps each participating client onto SGD with `sgd_lr`.
pub struct Controlled {
    /// Local SGD learning rate used while this strategy drives a client.
    pub sgd_lr: f32,
    c_server: Vec<f32>,
    c_clients: Vec<Vec<f32>>,
}

impl Default for Controlled {
    fn default() -> Self {
        Self { sgd_lr: 0.1, c_server: Vec::new(), c_clients: Vec::new() }
    }
}

impl Objective for Controlled {
    const NAME: &'static str = "Scaffold";
    /// Parameters, local step count, effective learning rate.
    type Upload = (Vec<f32>, usize, f32);

    fn prepare(&mut self, clients: usize, plen: usize) {
        if self.c_clients.len() != clients {
            self.c_server = vec![0.0; plen];
            self.c_clients = vec![vec![0.0; plen]; clients];
        }
    }

    fn train(&self, i: usize, c: &mut Client, ctx: &RoundCtx<'_>) -> (f32, Self::Upload) {
        // With heavy-ball momentum β the asymptotic effective step is
        // η/(1−β); the option-II control update uses that effective rate.
        let momentum = 0.9f32;
        c.opt = Box::new(Sgd::new(self.sgd_lr, momentum, 0.0));
        let lr = c.opt.learning_rate() / (1.0 - momentum);
        let correction: Vec<f32> = sub(&self.c_server, &self.c_clients[i]);
        let steps = Cell::new(0usize);
        let mut grad_hook = |_w: &[f32], g: &mut [f32]| {
            for (gj, &cj) in g.iter_mut().zip(&correction) {
                *gj += cj;
            }
            steps.set(steps.get() + 1);
        };
        let mut hooks = TrainHooks::none();
        hooks.grad_hook = Some(&mut grad_hook);
        let (loss, (w, _)) = train_weighted(i, c, ctx, hooks);
        (loss, (w, steps.get().max(1), lr))
    }

    fn server(&mut self, round: Arrivals<'_, Self::Upload>) -> Collaboration {
        // Under the fault-injecting transport only the accepted quorum's
        // results come back; all server math scales by what actually
        // arrived, not by what was asked for.
        let (global, arrived) = (round.store.model(0), &*round.results);
        let m = arrived.len() as f64;
        let mut sum_dw = vec![0f64; global.len()];
        let mut sum_dc = vec![0f64; global.len()];
        for r in arrived {
            let (w_i, k, lr) = &r.payload;
            let scale = 1.0 / (*k as f32 * lr);
            let c_i = &mut self.c_clients[r.client];
            for j in 0..global.len() {
                let ci_new = c_i[j] - self.c_server[j] + scale * (global[j] - w_i[j]);
                sum_dw[j] += (w_i[j] - global[j]) as f64;
                sum_dc[j] += (ci_new - c_i[j]) as f64;
                c_i[j] = ci_new;
            }
        }
        let participation = m / self.c_clients.len() as f64;
        let mut next = global.to_vec();
        for j in 0..next.len() {
            next[j] += (sum_dw[j] / m) as f32;
            self.c_server[j] += (participation * sum_dc[j] / m) as f32;
        }
        vec![(0, Next::Model(next))]
    }

    /// SCAFFOLD ships the model update and the control update; every
    /// client gets the new model, and each arrival the server control.
    fn bytes(
        &self,
        plen: usize,
        arrived: &[LocalResult<Self::Upload>],
        receivers: usize,
    ) -> (usize, usize) {
        let (msg, arrived) = (4 * plen + 8, arrived.len());
        (arrived * (8 * plen + 8), receivers * msg + arrived * msg)
    }
}

#[cfg(test)]
mod tests {
    use super::super::Strategy;
    use super::*;
    use crate::{eval::global_test_accuracy, strategies::test_support::small_federation};
    use fedgta_nn::models::ModelKind;

    #[test]
    fn scaffold_learns() {
        let mut clients = small_federation(ModelKind::Sgc, 8);
        let mut s = Scaffold::new();
        let parts: Vec<usize> = (0..clients.len()).collect();
        for _ in 0..15 {
            s.round(&mut clients, &parts, &RoundCtx::plain(2));
        }
        assert!(global_test_accuracy(&mut clients) > 0.65);
    }

    #[test]
    fn control_variates_become_nonzero() {
        let mut clients = small_federation(ModelKind::Sgc, 9);
        let mut s = Scaffold::new();
        let parts: Vec<usize> = (0..clients.len()).collect();
        for _ in 0..2 {
            s.round(&mut clients, &parts, &RoundCtx::plain(1));
        }
        assert!(s.objective.c_server.iter().any(|&v| v != 0.0));
        assert!(s.objective.c_clients[0].iter().any(|&v| v != 0.0));
    }

    #[test]
    fn partial_participation_updates_only_those_controls() {
        let mut clients = small_federation(ModelKind::Sgc, 10);
        let mut s = Scaffold::new();
        s.round(&mut clients, &[1], &RoundCtx::plain(1));
        assert!(s.objective.c_clients[1].iter().any(|&v| v != 0.0));
        assert!(s.objective.c_clients[0].iter().all(|&v| v == 0.0));
    }
}
