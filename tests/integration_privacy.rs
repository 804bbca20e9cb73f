//! `DpUpload` end to end: the noise reaches what the server aggregates —
//! under FedGTA's personalized aggregation too — and, drawn per (seed,
//! round, client), leaves every result bit-identical at any thread count
//! and on either message path.

use fedgta::FedGta;
use fedgta_fed::round::{CommsConfig, SimConfig, Simulation};
use fedgta_fed::strategies::test_support::small_federation;
use fedgta_fed::strategies::{DpUpload, FedAvg, Strategy};
use fedgta_nn::models::ModelKind;

fn fedavg() -> Box<dyn Strategy> {
    Box::new(FedAvg::new())
}

fn fedgta() -> Box<dyn Strategy> {
    Box::new(FedGta::with_defaults())
}

/// Six rounds × two epochs on `small_federation(Sgc, 7)`: every round's
/// loss bits, then every client's final parameter bits.
fn run(strategy: Box<dyn Strategy>, threads: usize, channel: bool) -> (Vec<u32>, Vec<Vec<u32>>) {
    let config = SimConfig {
        rounds: 6,
        local_epochs: 2,
        participation: 1.0,
        eval_every: 0,
        seed: 7,
        threads,
    };
    let mut sim = Simulation::new(small_federation(ModelKind::Sgc, 7), strategy, config);
    if channel {
        sim = sim.with_comms(CommsConfig::default());
    }
    let losses = sim.run().iter().map(|r| r.mean_loss.to_bits()).collect();
    let bits = |c: &fedgta_fed::client::Client| c.model.params().iter().map(|v| v.to_bits()).collect();
    (losses, sim.clients.iter().map(bits).collect())
}

#[test]
fn noise_reaches_the_next_round_under_fedavg_and_fedgta() {
    for inner in [fedavg, fedgta] {
        let name = inner().name();
        let (plain, _) = run(inner(), 1, false);
        let (private, _) = run(Box::new(DpUpload::new(inner(), 5.0, 10.0, 1)), 1, false);
        assert_eq!(plain[0], private[0], "{name}: round 1 starts from the same models");
        assert_ne!(plain[1], private[1], "{name}: round 2 trained on un-noised models");
    }
}

#[test]
fn private_runs_are_bit_identical_across_threads_and_message_paths() {
    for inner in [fedavg, fedgta] {
        let dp = || -> Box<dyn Strategy> { Box::new(DpUpload::new(inner(), 5.0, 0.02, 42)) };
        let name = dp().name();
        let one = run(dp(), 1, false);
        assert_eq!(one, run(dp(), 4, false), "{name}: 1 vs 4 threads");
        assert_eq!(one, run(dp(), 1, true), "{name}: direct vs channel");
        assert_eq!(one, run(dp(), 4, true), "{name}: direct vs channel at 4 threads");
    }
}

#[test]
fn without_noise_and_with_a_loose_clip_the_wrapper_is_the_inner_strategy() {
    // `reference + (current − reference)` re-associates, so: to rounding —
    // 1e-5 after one round (the unit test in `privacy.rs`), which six
    // rounds of training on the rounded models compound to under 1e-4.
    for inner in [fedavg, fedgta] {
        let (_, plain) = run(inner(), 1, false);
        let (_, wrapped) = run(Box::new(DpUpload::new(inner(), 1e9, 0.0, 0)), 1, false);
        for (a, b) in plain.iter().flatten().zip(wrapped.iter().flatten()) {
            let (a, b) = (f32::from_bits(*a), f32::from_bits(*b));
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }
}
