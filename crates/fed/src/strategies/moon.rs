//! MOON (Li et al. 2021): model-contrastive federated learning.
//!
//! Local training adds the contrastive loss
//! `ℓ = −log( e^{sim(z, z_glob)/τ} / (e^{sim(z, z_glob)/τ} + e^{sim(z, z_prev)/τ}) )`
//! where `z` is the current model's penultimate representation, `z_glob`
//! the global model's, and `z_prev` the client's previous local model's.
//! The exact gradient ∂ℓ/∂z is injected through the hidden-gradient hook.

use super::averaged::{average, train_weighted};
use super::{Arrivals, Averaged, Collaboration, Objective, RoundCtx, Weighted};
use crate::client::Client;
use fedgta_nn::{Matrix, TrainHooks};

/// MOON with contrastive weight `mu` and temperature `tau`.
pub type Moon = Averaged<Contrastive>;

impl Moon {
    /// Creates MOON with contrastive weight `mu` and temperature `tau`.
    pub fn new(mu: f32, tau: f32) -> Self {
        Contrastive { mu, tau, prev: Vec::new() }.into()
    }
}

/// MOON's objective: the model-contrastive term on the penultimate
/// representation, anchored at the global and the previous local model.
pub struct Contrastive {
    /// Contrastive weight μ.
    pub mu: f32,
    /// Temperature τ.
    pub tau: f32,
    prev: Vec<Option<Vec<f32>>>,
}

/// Cosine similarity of two equal-length vectors (0 when either is ~zero).
fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let (mut dot, mut na, mut nb) = (0f32, 0f32, 0f32);
    for (&x, &y) in a.iter().zip(b) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    let denom = na.sqrt() * nb.sqrt();
    if denom < 1e-12 {
        0.0
    } else {
        dot / denom
    }
}

/// `∂ sim(z, a) / ∂z = a/(‖z‖‖a‖) − sim·z/‖z‖²`, accumulated into `out`
/// scaled by `coeff`.
fn add_cosine_grad(out: &mut [f32], z: &[f32], a: &[f32], coeff: f32) {
    let (mut dot, mut nz2, mut na2) = (0f32, 0f32, 0f32);
    for (&x, &y) in z.iter().zip(a) {
        dot += x * y;
        nz2 += x * x;
        na2 += y * y;
    }
    let nz = nz2.sqrt().max(1e-12);
    let na = na2.sqrt().max(1e-12);
    let sim = dot / (nz * na);
    for ((o, &zj), &aj) in out.iter_mut().zip(z).zip(a) {
        *o += coeff * (aj / (nz * na) - sim * zj / nz2.max(1e-12));
    }
}

/// Mean contrastive loss and per-row gradient for a batch of
/// representations. Exposed for gradient tests.
pub fn contrastive_loss_grad(
    z: &Matrix,
    z_glob: &Matrix,
    z_prev: &Matrix,
    mu: f32,
    tau: f32,
) -> (f32, Matrix) {
    assert_eq!(z.shape(), z_glob.shape());
    assert_eq!(z.shape(), z_prev.shape());
    let n = z.rows();
    let mut grad = Matrix::zeros(n, z.cols());
    let scale = mu / n.max(1) as f32;
    let mut loss = 0f64;
    for i in 0..n {
        let zi = z.row(i);
        let sg = cosine(zi, z_glob.row(i)) / tau;
        let sp = cosine(zi, z_prev.row(i)) / tau;
        // Softmax over [sg, sp]; loss = −log p_g.
        let m = sg.max(sp);
        let eg = (sg - m).exp();
        let ep = (sp - m).exp();
        let pg = eg / (eg + ep);
        let pp = 1.0 - pg;
        loss += -(pg.max(1e-12) as f64).ln();
        let gi = grad.row_mut(i);
        add_cosine_grad(gi, zi, z_glob.row(i), scale * (pg - 1.0) / tau);
        add_cosine_grad(gi, zi, z_prev.row(i), scale * pp / tau);
    }
    ((loss / n.max(1) as f64) as f32 * mu, grad)
}

impl Objective for Contrastive {
    const NAME: &'static str = "MOON";
    type Upload = Weighted;

    fn prepare(&mut self, clients: usize, _plen: usize) {
        if self.prev.len() != clients {
            self.prev = vec![None; clients];
        }
    }

    fn train(&self, i: usize, c: &mut Client, ctx: &RoundCtx<'_>) -> (f32, Weighted) {
        let (mu, tau) = (self.mu, self.tau);
        // Anchor representations computed with a scratch model, which
        // starts as a copy of the installed global one.
        let (z_glob, z_prev) = {
            let mut scratch = c.model.clone();
            let zg = scratch.penultimate(&c.data);
            let zp = self.prev[i].as_ref().map(|p| {
                scratch.set_params(p);
                scratch.penultimate(&c.data)
            });
            (zg, zp)
        };
        let mut hidden_hook = |ids: &[u32], z: &Matrix| match &z_prev {
            Some(zp) => {
                let (zg_b, zp_b) = (z_glob.gather_rows(ids), zp.gather_rows(ids));
                contrastive_loss_grad(z, &zg_b, &zp_b, mu, tau).1
            }
            None => Matrix::zeros(z.rows(), z.cols()),
        };
        let mut hooks = TrainHooks::none();
        hooks.hidden_hook = Some(&mut hidden_hook);
        train_weighted(i, c, ctx, hooks)
    }

    fn server(&mut self, round: Arrivals<'_, Weighted>) -> Collaboration {
        for r in round.results.iter() {
            self.prev[r.client] = Some(r.payload.0.clone());
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
    fn contrastive_gradient_matches_finite_differences() {
        let z = Matrix::from_rows(&[&[0.5, -0.3, 0.8], &[-0.2, 0.9, 0.1]]);
        let zg = Matrix::from_rows(&[&[0.4, 0.1, 0.7], &[0.3, 0.8, -0.2]]);
        let zp = Matrix::from_rows(&[&[-0.6, 0.2, 0.1], &[0.1, -0.5, 0.9]]);
        let (mu, tau) = (0.7, 0.5);
        let (_, grad) = contrastive_loss_grad(&z, &zg, &zp, mu, tau);
        let eps = 1e-3f32;
        for i in 0..2 {
            for j in 0..3 {
                let mut zpos = z.clone();
                zpos.set(i, j, zpos.get(i, j) + eps);
                let (lp, _) = contrastive_loss_grad(&zpos, &zg, &zp, mu, tau);
                let mut zneg = z.clone();
                zneg.set(i, j, zneg.get(i, j) - eps);
                let (lm, _) = contrastive_loss_grad(&zneg, &zg, &zp, mu, tau);
                let fd = (lp - lm) / (2.0 * eps);
                assert!(
                    (fd - grad.get(i, j)).abs() < 1e-3,
                    "({i},{j}): fd {fd} vs {}",
                    grad.get(i, j)
                );
            }
        }
    }

    #[test]
    fn loss_low_when_aligned_with_global() {
        let z = Matrix::from_rows(&[&[1.0, 0.0]]);
        let zg = Matrix::from_rows(&[&[2.0, 0.0]]); // same direction
        let zp = Matrix::from_rows(&[&[-1.0, 0.0]]); // opposite
        let (aligned, _) = contrastive_loss_grad(&z, &zg, &zp, 1.0, 0.5);
        let (misaligned, _) = contrastive_loss_grad(&z, &zp, &zg, 1.0, 0.5);
        assert!(aligned < misaligned);
    }

    #[test]
    fn moon_learns() {
        let mut clients = small_federation(ModelKind::Sgc, 11);
        let mut s = Moon::new(1.0, 0.5);
        let parts: Vec<usize> = (0..clients.len()).collect();
        for _ in 0..15 {
            s.round(&mut clients, &parts, &RoundCtx::plain(2));
        }
        assert!(global_test_accuracy(&mut clients) > 0.65);
    }

    #[test]
    fn previous_models_are_tracked_per_client() {
        let mut clients = small_federation(ModelKind::Sgc, 12);
        let mut s = Moon::new(1.0, 0.5);
        s.round(&mut clients, &[0, 2], &RoundCtx::plain(1));
        assert!(s.objective.prev[0].is_some());
        assert!(s.objective.prev[1].is_none());
        assert!(s.objective.prev[2].is_some());
    }
}
