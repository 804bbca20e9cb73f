//! Adding your own baseline as an [`Objective`]: what a participant does
//! in local training, and what the server makes of the uploads.
//! [`Averaged`] runs the round around it — broadcast, client-parallel
//! training through the executor (and, with `--transport channel`, the
//! wire, its faults and codecs), aggregation, install — exactly as it does
//! for FedAvg, FedProx, FedDC, MOON and Scaffold.
//!
//! Here the objective is a coordinate-wise **trimmed mean** (a classic
//! Byzantine-robust variant of FedAvg) in ~30 lines, raced against FedAvg
//! and FedGTA on a Non-iid split.
//!
//! ```sh
//! cargo run --release --example custom_strategy
//! ```

use fedgta_suite::core::FedGta;
use fedgta_suite::fed::client::Client;
use fedgta_suite::fed::exec::LocalResult;
use fedgta_suite::fed::round::{best_accuracy, SimConfig, Simulation};
use fedgta_suite::fed::strategies::averaged::train_weighted;
use fedgta_suite::fed::strategies::test_support::small_federation;
use fedgta_suite::fed::strategies::{
    Averaged, FedAvg, Objective, RoundCtx, Server, Strategy, Weighted,
};
use fedgta_suite::nn::models::ModelKind;
use fedgta_suite::nn::TrainHooks;

/// Coordinate-wise trimmed mean: drop the lowest and highest value of
/// every parameter coordinate before averaging.
struct TrimmedMean;

impl Objective for TrimmedMean {
    const NAME: &'static str = "TrimmedMean";
    type Upload = Weighted;

    /// Local training is FedAvg's: no hooks.
    fn train(&self, i: usize, c: &mut Client, ctx: &RoundCtx<'_>) -> (f32, Weighted) {
        train_weighted(i, c, ctx, TrainHooks::none())
    }

    fn server(&mut self, global: &[f32], arrived: Vec<LocalResult<Weighted>>) -> Server {
        let m = arrived.len();
        let trim = usize::from(m > 2); // drop min & max when we can
        let mut column = vec![0f32; m];
        let model = (0..global.len())
            .map(|j| {
                for (s, r) in column.iter_mut().zip(&arrived) {
                    *s = r.payload.0[j];
                }
                column.sort_unstable_by(f32::total_cmp);
                let kept = &column[trim..m - trim];
                kept.iter().sum::<f32>() / kept.len() as f32
            })
            .collect();
        Server::Model(model)
    }
}

fn main() {
    for strategy in [
        Box::new(FedAvg::new()) as Box<dyn Strategy>,
        Box::new(Averaged::from(TrimmedMean)),
        Box::new(FedGta::with_defaults()),
    ] {
        let clients = small_federation(ModelKind::Sgc, 99);
        let name = strategy.name();
        let mut sim = Simulation::new(
            clients,
            strategy,
            SimConfig {
                rounds: 25,
                local_epochs: 2,
                eval_every: 5,
                seed: 99,
                ..SimConfig::default()
            },
        );
        let records = sim.run();
        println!(
            "{name:<12} best accuracy: {:.1}%",
            100.0 * best_accuracy(&records)
        );
    }
}
