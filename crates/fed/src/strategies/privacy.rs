//! Differentially-private uploads: a wrapper strategy that clips and
//! noises every client's parameter update before the inner strategy's
//! server logic sees it — the standard DP-FedAvg recipe (clip to `C`,
//! add `N(0, σ²C²)` Gaussian noise).
//!
//! The paper motivates FGL with privacy (hospitals, transaction networks);
//! this wrapper makes the privacy knob explicit and composable with any
//! strategy, including FedGTA.
//!
//! Mechanism: the wrapper arms [`RoundCtx::upload_filter`] and delegates.
//! The executor applies the filter to each participant's uploaded
//! parameter tensor, measured from the model the participant started the
//! round with, the moment local training returns — so the transport, its
//! codecs and error feedback, and the inner strategy's aggregation only
//! ever see private values, on the direct and the channel path alike. The
//! client's own model keeps its trained parameters (they never leave it).
//!
//! What is **not** covered: only payload tensor 0, the parameters, is
//! privatized. The statistics some strategies upload next to them —
//! FedGTA's confidence `H` and moment sketch, GCFL+'s update `Δ`,
//! Scaffold's control-variate delta and step count — travel in the clear.

use super::{l2_norm, RoundCtx, RoundStats, Strategy};
use crate::client::Client;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Clip-and-noise wrapper around any strategy.
pub struct DpUpload {
    inner: Box<dyn Strategy>,
    /// L2 clipping bound `C` on the per-round parameter *update*.
    pub clip: f64,
    /// Noise multiplier σ (noise stddev = σ·C per coordinate).
    pub sigma: f64,
    seed: u64,
    /// Rounds run so far: with the seed and the client index it keys each
    /// upload's own noise stream, so no draw depends on which worker, or
    /// in which order, clients finish.
    rounds: u64,
}

impl DpUpload {
    /// Wraps `inner` with update clipping bound `clip` and noise
    /// multiplier `sigma` (0 disables noise but keeps clipping).
    pub fn new(inner: Box<dyn Strategy>, clip: f64, sigma: f64, seed: u64) -> Self {
        Self { inner, clip, sigma, seed, rounds: 0 }
    }
}

/// One standard normal draw (Box–Muller).
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-300);
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Clips `params - reference` to L2 ≤ `clip`, adds `N(0, σ²C²)` noise per
/// coordinate, and leaves `reference + clipped_update + noise` in `params`.
fn privatize(clip: f64, sigma: f64, rng: &mut StdRng, reference: &[f32], params: &mut [f32]) {
    for (p, &r) in params.iter_mut().zip(reference) {
        *p -= r;
    }
    let norm = l2_norm(params);
    let scale = if norm > clip { (clip / norm) as f32 } else { 1.0 };
    let noise_std = sigma * clip;
    for (p, &r) in params.iter_mut().zip(reference) {
        let noise = if sigma > 0.0 { (noise_std * gaussian(rng)) as f32 } else { 0.0 };
        *p = r + scale * *p + noise;
    }
}

impl Strategy for DpUpload {
    fn name(&self) -> String {
        format!("DP({})", self.inner.name())
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
        self.rounds += 1;
        let (clip, sigma, outer) = (self.clip, self.sigma, ctx.upload_filter);
        let round_seed = self.seed ^ self.rounds.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let filter = move |client: usize, reference: &[f32], params: &mut [f32]| {
            let seed = round_seed ^ (client as u64 + 1).wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
            privatize(clip, sigma, &mut StdRng::seed_from_u64(seed), reference, params);
            // A wrapper around this one filters what this one lets out.
            if let Some(outer) = outer {
                outer(client, reference, params);
            }
        };
        let ctx = RoundCtx { upload_filter: Some(&filter), ..*ctx };
        self.inner.round(clients, participants, &ctx)
    }
}

#[cfg(test)]
mod tests {
    use crate::{eval::global_test_accuracy, strategies::test_support::small_federation};
    use super::super::FedAvg;
    use super::*;
    use fedgta_nn::models::ModelKind;

    #[test]
    fn zero_sigma_only_clips() {
        let mut clients = small_federation(ModelKind::Sgc, 120);
        let before = clients[0].model.params();
        let mut s = DpUpload::new(Box::new(FedAvg::new()), 1e9, 0.0, 0);
        s.round(&mut clients, &[0, 1, 2, 3], &RoundCtx::plain(1));
        // Huge clip, zero noise: identical to the inner strategy's result
        // (parameters moved, not perturbed).
        assert_ne!(clients[0].model.params(), before);
        let mut clients2 = small_federation(ModelKind::Sgc, 120);
        let mut plain = FedAvg::new();
        plain.round(&mut clients2, &[0, 1, 2, 3], &RoundCtx::plain(1));
        // reference + (current − reference) re-associates f32 ops, so
        // compare within rounding tolerance.
        for (a, b) in clients[0]
            .model
            .params()
            .iter()
            .zip(clients2[0].model.params())
        {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn clipping_bounds_update_norm() {
        let reference = vec![0f32; 100];
        let mut private = vec![1f32; 100]; // update norm 10
        privatize(0.5, 0.0, &mut StdRng::seed_from_u64(0), &reference, &mut private);
        let norm = l2_norm(&private);
        assert!((norm - 0.5).abs() < 1e-4, "norm {norm}");
    }

    #[test]
    fn the_server_aggregates_the_noised_uploads() {
        // The uploads, not a local copy the next broadcast overwrites: six
        // rounds of FedAvg with and without an absurd σ must part ways by
        // round 2, whose clients start from round 1's noised aggregate.
        let losses = |dp: bool| {
            let mut clients = small_federation(ModelKind::Sgc, 7);
            let inner: Box<dyn Strategy> = Box::new(FedAvg::new());
            let mut s = if dp { Box::new(DpUpload::new(inner, 5.0, 10.0, 1)) } else { inner };
            let parts: Vec<usize> = (0..clients.len()).collect();
            let round = |_| s.round(&mut clients, &parts, &RoundCtx::plain(2)).mean_loss.to_bits();
            (0..6).map(round).collect::<Vec<_>>()
        };
        let (plain, private) = (losses(false), losses(true));
        assert_eq!(plain[0], private[0], "round 1 trains from the same initial models");
        assert_ne!(plain[1], private[1], "round 2 never saw round 1's noise");
    }

    #[test]
    fn a_wrapper_around_a_wrapper_keeps_both_filters() {
        // Clip to 5 inside, to 0.01 outside: the aggregate moves by at most
        // the outer bound.
        let mut clients = small_federation(ModelKind::Sgc, 7);
        let before = clients[0].model.params();
        let inner = DpUpload::new(Box::new(FedAvg::new()), 5.0, 0.0, 0);
        let mut s = DpUpload::new(Box::new(inner), 0.01, 0.0, 0);
        s.round(&mut clients, &[0, 1, 2, 3], &RoundCtx::plain(2));
        let moved = l2_norm(&crate::strategies::sub(&clients[0].model.params(), &before));
        assert!(moved > 0.0 && moved <= 0.01 + 1e-6, "moved {moved}");
    }

    #[test]
    fn noise_perturbs_but_learning_survives_mild_privacy() {
        let mut clients = small_federation(ModelKind::Sgc, 121);
        let mut s = DpUpload::new(Box::new(FedAvg::new()), 5.0, 0.005, 1);
        let parts: Vec<usize> = (0..clients.len()).collect();
        for _ in 0..15 {
            s.round(&mut clients, &parts, &RoundCtx::plain(2));
        }
        let acc = global_test_accuracy(&mut clients);
        assert!(acc > 0.55, "mild DP accuracy {acc}");
    }

    #[test]
    fn heavy_noise_destroys_learning() {
        // Sanity that the noise path is live: absurd σ should wreck accuracy.
        let mut clients = small_federation(ModelKind::Sgc, 122);
        let mut s = DpUpload::new(Box::new(FedAvg::new()), 5.0, 10.0, 2);
        let parts: Vec<usize> = (0..clients.len()).collect();
        for _ in 0..5 {
            s.round(&mut clients, &parts, &RoundCtx::plain(1));
        }
        let acc = global_test_accuracy(&mut clients);
        assert!(acc < 0.6, "noise had no effect: acc {acc}");
    }

    #[test]
    fn name_reflects_wrapping() {
        let s = DpUpload::new(Box::new(FedAvg::new()), 1.0, 1.0, 0);
        assert_eq!(s.name(), "DP(FedAvg)");
    }
}
