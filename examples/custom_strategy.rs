//! Adding your own baseline as an [`Objective`]: what a participant does
//! in local training, and what the server makes of the uploads — the
//! collaboration matrix `W`, one entry per model slot it writes.
//! [`Averaged`] runs the round around it — broadcast from its model store,
//! client-parallel training through the executor (and, under a fault or
//! codec flag, the wire, its faults and codecs), `P′ = W·P`, install —
//! exactly as it does for FedAvg, FedProx, FedDC, MOON, Scaffold, GCFL+
//! and FedGTA.
//!
//! Most server rules are a weighted [`Row`] over the arrivals (FedAvg's is
//! `Row::average` of each arrival's `n_train`). A coordinate-wise
//! **trimmed mean** (a classic Byzantine-robust variant of FedAvg) is not,
//! so it hands the round its computed model instead ([`Next::Model`]), in
//! ~30 lines, raced against FedAvg and FedGTA on a Non-iid split.
//!
//! ```sh
//! cargo run --release --example custom_strategy
//! ```

use fedgta_suite::core::FedGta;
use fedgta_suite::fed::client::Client;
use fedgta_suite::fed::round::{best_accuracy, SimConfig, Simulation};
use fedgta_suite::fed::strategies::averaged::train_weighted;
use fedgta_suite::fed::strategies::test_support::small_federation;
use fedgta_suite::fed::strategies::{
    Arrivals, Averaged, Collaboration, FedAvg, Next, Objective, RoundCtx, Strategy, Weighted,
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

    /// Slot 0, the model every client shares, becomes the trimmed mean.
    fn server(&mut self, round: Arrivals<'_, Weighted>) -> Collaboration {
        let arrived = &*round.results;
        let m = arrived.len();
        let trim = usize::from(m > 2); // drop min & max when we can
        let mut column = vec![0f32; m];
        let model = (0..round.store.model(0).len())
            .map(|j| {
                for (s, r) in column.iter_mut().zip(arrived) {
                    *s = r.payload.0[j];
                }
                column.sort_unstable_by(f32::total_cmp);
                let kept = &column[trim..m - trim];
                kept.iter().sum::<f32>() / kept.len() as f32
            })
            .collect();
        vec![(0, Next::Model(model))]
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
        println!("{name:<12} best accuracy: {:.1}%", 100.0 * best_accuracy(&records));
    }
}
