//! FedProx (Li et al. 2020): FedAvg plus a proximal term
//! `(μ/2)‖w − w_global‖²` in the local objective, implemented exactly as
//! the gradient correction `g ← g + μ(w − w_global)` injected before every
//! optimizer step.

use super::averaged::{average, train_weighted};
use super::{Arrivals, Averaged, Collaboration, Objective, RoundCtx, Weighted};
use crate::client::Client;
use fedgta_nn::TrainHooks;

/// FedProx with proximal coefficient `mu`.
pub type FedProx = Averaged<Proximal>;

impl FedProx {
    /// Creates FedProx with the given μ.
    pub fn new(mu: f32) -> Self {
        Proximal { mu }.into()
    }
}

/// FedProx's objective: the proximal pull towards the installed model.
pub struct Proximal {
    /// Proximal coefficient μ (paper grid: {0.001, 0.01, 0.1}).
    pub mu: f32,
}

/// Local training pulled towards `anchor`: `g ← g + coeff·(w − anchor)`,
/// the gradient of `(coeff/2)‖w − anchor‖²`, before every optimizer step.
pub(super) fn train_proximal(
    i: usize,
    c: &mut Client,
    ctx: &RoundCtx<'_>,
    coeff: f32,
    anchor: Vec<f32>,
) -> (f32, Weighted) {
    let mut grad_hook = move |w: &[f32], g: &mut [f32]| {
        for ((gj, &wj), &aj) in g.iter_mut().zip(w).zip(&anchor) {
            *gj += coeff * (wj - aj);
        }
    };
    let mut hooks = TrainHooks::none();
    hooks.grad_hook = Some(&mut grad_hook);
    train_weighted(i, c, ctx, hooks)
}

impl Objective for Proximal {
    const NAME: &'static str = "FedProx";
    type Upload = Weighted;

    fn train(&self, i: usize, c: &mut Client, ctx: &RoundCtx<'_>) -> (f32, Weighted) {
        // The anchor is what the wire delivered, which under a lossy
        // download codec is not the server's copy.
        let anchor = c.model.params();
        train_proximal(i, c, ctx, self.mu, anchor)
    }

    fn server(&mut self, round: Arrivals<'_, Weighted>) -> Collaboration {
        average(round.results)
    }
}

#[cfg(test)]
mod tests {
    use super::super::Strategy;
    use super::super::{l2_norm, sub};
    use super::*;
    use crate::{eval::global_test_accuracy, strategies::test_support::small_federation};
    use fedgta_nn::models::ModelKind;

    #[test]
    fn fedprox_learns() {
        let mut clients = small_federation(ModelKind::Sgc, 6);
        let mut s = FedProx::new(0.01);
        let parts: Vec<usize> = (0..clients.len()).collect();
        for _ in 0..15 {
            s.round(&mut clients, &parts, &RoundCtx::plain(2));
        }
        assert!(global_test_accuracy(&mut clients) > 0.7);
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
