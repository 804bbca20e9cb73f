//! FedDC (Gao et al. 2022): local drift decoupling and correction.
//!
//! Each client keeps a drift variable `hᵢ` tracking how far its local
//! optimum sits from the global model. The local objective adds the
//! penalty `(λ/2)‖w − (w_global − hᵢ)‖²` (gradient correction injected per
//! step); after local training the drift updates
//! `hᵢ ← hᵢ + (wᵢ − w_global)` and the server averages the
//! drift-corrected uploads `wᵢ + hᵢ`.

use super::averaged::{average, Arrivals, Averaged, Collaboration, Objective, Weighted};
use super::fedprox::train_proximal;
use super::RoundCtx;
use crate::client::Client;

/// FedDC with penalty coefficient `lambda`.
pub type FedDc = Averaged<DriftCorrected>;

impl FedDc {
    /// Creates FedDC with penalty λ.
    pub fn new(lambda: f32) -> Self {
        DriftCorrected { lambda, drift: Vec::new() }.into()
    }
}

/// FedDC's objective: a penalty anchored at the drift-shifted global
/// model, and drift-corrected uploads.
pub struct DriftCorrected {
    /// Penalty coefficient λ.
    pub lambda: f32,
    drift: Vec<Vec<f32>>,
}

impl Objective for DriftCorrected {
    const NAME: &'static str = "FedDC";
    type Upload = Weighted;

    fn prepare(&mut self, clients: usize, plen: usize) {
        if self.drift.len() != clients {
            self.drift = vec![vec![0.0; plen]; clients];
        }
    }

    fn train(&self, i: usize, c: &mut Client, ctx: &RoundCtx<'_>) -> (f32, Weighted) {
        // Anchor: w_global − hᵢ, with w_global as the wire delivered it.
        let mut anchor = c.model.params();
        for (a, &h) in anchor.iter_mut().zip(&self.drift[i]) {
            *a -= h;
        }
        train_proximal(i, c, ctx, self.lambda, anchor)
    }

    fn server(&mut self, round: Arrivals<'_, Weighted>) -> Collaboration {
        let global = round.store.model(0);
        for r in round.results.iter_mut() {
            let (w, drift) = (&mut r.payload.0, &mut self.drift[r.client]);
            for ((wj, hj), &gj) in w.iter_mut().zip(drift).zip(global) {
                *hj += *wj - gj;
                *wj += *hj;
            }
        }
        average(round.results)
    }
}

#[cfg(test)]
mod tests {
    use super::super::Strategy;
    use super::*;
    use crate::{eval::global_test_accuracy, strategies::test_support::small_federation};
    use fedgta_nn::models::ModelKind;

    #[test]
    fn feddc_learns() {
        let mut clients = small_federation(ModelKind::Sgc, 13);
        let mut s = FedDc::new(0.01);
        let parts: Vec<usize> = (0..clients.len()).collect();
        for _ in 0..15 {
            s.round(&mut clients, &parts, &RoundCtx::plain(2));
        }
        assert!(global_test_accuracy(&mut clients) > 0.65);
    }

    #[test]
    fn drift_accumulates_only_for_participants() {
        let mut clients = small_federation(ModelKind::Sgc, 14);
        let mut s = FedDc::new(0.01);
        s.round(&mut clients, &[0], &RoundCtx::plain(1));
        assert!(s.objective.drift[0].iter().any(|&v| v != 0.0));
        assert!(s.objective.drift[1].iter().all(|&v| v == 0.0));
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
