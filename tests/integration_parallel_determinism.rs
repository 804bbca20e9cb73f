//! The determinism contract, end-to-end: a federated simulation produces
//! **bit-identical** round records regardless of the worker-thread count.
//!
//! This is the regression suite behind the client-parallel executor
//! (`fedgta_fed::exec::train_participants`): contiguous chunking, disjoint
//! `&mut` client slots, and driver-side participant-order reductions mean
//! `threads = 1` and `threads = 4` must agree on every loss bit, every
//! accuracy, and every byte count. Only `elapsed_s` and the recorded
//! `threads` field may differ.

use fedgta::FedGta;
use fedgta_fed::fgl_models::{FedGl, FedSagePlus};
use fedgta_fed::round::{RoundRecord, SimConfig, Simulation};
use fedgta_fed::strategies::test_support::federation_with;
use fedgta_fed::strategies::{FedAvg, FedDc, FedProx, GcflPlus, Moon, Scaffold, Strategy};
use fedgta_nn::models::ModelKind;
use fedgta_obs::{MemorySink, ObsLevel, TraceEvent};
use std::collections::BTreeMap;

/// Runs a 10-client simulation with an explicit thread count.
fn run_sim(
    strategy: Box<dyn Strategy>,
    kind: ModelKind,
    threads: usize,
    participation: f64,
) -> Vec<RoundRecord> {
    let clients = federation_with(kind, 900, 10, 900);
    let mut sim = Simulation::new(
        clients,
        strategy,
        SimConfig { rounds: 6, local_epochs: 2, participation, eval_every: 2, seed: 900, threads },
    );
    sim.run()
}

/// Asserts two record sequences are bit-identical in everything except
/// wall clock and the recorded thread count.
fn assert_bit_identical(a: &[RoundRecord], b: &[RoundRecord], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: round counts differ");
    for (ra, rb) in a.iter().zip(b) {
        assert_eq!(ra.round, rb.round, "{label}: round index");
        assert_eq!(
            ra.mean_loss.to_bits(),
            rb.mean_loss.to_bits(),
            "{label} round {}: loss {} vs {}",
            ra.round,
            ra.mean_loss,
            rb.mean_loss
        );
        assert_eq!(
            ra.test_acc.map(f64::to_bits),
            rb.test_acc.map(f64::to_bits),
            "{label} round {}: acc {:?} vs {:?}",
            ra.round,
            ra.test_acc,
            rb.test_acc
        );
        assert_eq!(ra.bytes_uploaded, rb.bytes_uploaded, "{label} round {}: bytes", ra.round);
    }
}

#[test]
fn fedgta_rounds_are_bit_identical_across_thread_counts() {
    let one = run_sim(Box::new(FedGta::with_defaults()), ModelKind::Sgc, 1, 1.0);
    let four = run_sim(Box::new(FedGta::with_defaults()), ModelKind::Sgc, 4, 1.0);
    assert_bit_identical(&one, &four, "FedGTA");
    assert_eq!(one.last().unwrap().threads, 1);
    assert_eq!(four.last().unwrap().threads, 4);
}

#[test]
fn fedgta_final_parameters_are_bit_identical_across_thread_counts() {
    // Stronger than the round-record check: after training + the
    // personalized server round (parallel similarity, blocked Eq. 7
    // axpy, recycled output buffers), every client's *parameter vector*
    // must agree bitwise between 1 and 4 worker threads — any
    // accumulation-order drift anywhere in the pipeline shows up here.
    let run = |threads: usize| -> Vec<Vec<f32>> {
        let clients = federation_with(ModelKind::Sgc, 900, 10, 900);
        let mut sim = Simulation::new(
            clients,
            Box::new(FedGta::with_defaults()),
            SimConfig {
                rounds: 4,
                local_epochs: 2,
                participation: 1.0,
                eval_every: 0,
                seed: 900,
                threads,
            },
        );
        sim.run();
        sim.clients.iter().map(|c| c.model.params()).collect()
    };
    let one = run(1);
    let four = run(4);
    assert_eq!(one.len(), four.len());
    for (i, (a, b)) in one.iter().zip(&four).enumerate() {
        assert_eq!(a.len(), b.len(), "client {i}: param lengths differ");
        for (j, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "client {i} param {j}: {x} (1 thread) vs {y} (4 threads)"
            );
        }
    }
}

#[test]
fn fedavg_rounds_are_bit_identical_across_thread_counts() {
    let one = run_sim(Box::new(FedAvg::new()), ModelKind::Sgc, 1, 1.0);
    let four = run_sim(Box::new(FedAvg::new()), ModelKind::Sgc, 4, 1.0);
    assert_bit_identical(&one, &four, "FedAvg");
}

#[test]
fn partial_participation_stays_deterministic() {
    // Participant sampling happens on the driver with its own seeded RNG;
    // thread count must not leak into which clients are picked nor into
    // the results they produce.
    let one = run_sim(Box::new(FedAvg::new()), ModelKind::Sgc, 1, 0.5);
    let three = run_sim(Box::new(FedAvg::new()), ModelKind::Sgc, 3, 0.5);
    assert_bit_identical(&one, &three, "FedAvg@50%");
}

#[test]
fn driver_state_strategies_stay_deterministic() {
    // SCAFFOLD (control variates), MOON (prev-model anchors), FedDC
    // (drift) and GCFL+ (clustered aggregation) all mutate per-client
    // strategy state each round — exactly the code that must stay on the
    // driver for thread-count independence.
    type MakeStrategy = fn() -> Box<dyn Strategy>;
    let cases: Vec<(&str, MakeStrategy)> = vec![
        ("Scaffold", || Box::new(Scaffold::new())),
        ("MOON", || Box::new(Moon::new(1.0, 0.5))),
        ("FedDC", || Box::new(FedDc::new(0.01))),
        ("GCFL+", || Box::new(GcflPlus::new(4, 2.0))),
    ];
    for (label, make) in cases {
        let one = run_sim(make(), ModelKind::Sgc, 1, 1.0);
        let four = run_sim(make(), ModelKind::Sgc, 4, 1.0);
        assert_bit_identical(&one, &four, label);
    }
}

#[test]
fn fgl_model_wrappers_stay_deterministic() {
    // FedGL's prediction fusion and FedSage+'s generator training are
    // client-parallel too; their RNG-sharing parts (hide masks, mending
    // noise) stay sequential by design.
    let one = run_sim(Box::new(FedGl::new(Box::new(FedAvg::new()))), ModelKind::Gcn, 1, 1.0);
    let four = run_sim(Box::new(FedGl::new(Box::new(FedAvg::new()))), ModelKind::Gcn, 4, 1.0);
    assert_bit_identical(&one, &four, "FedGL+FedAvg");
    let one = run_sim(Box::new(FedSagePlus::new(Box::new(FedAvg::new()))), ModelKind::Sage, 1, 1.0);
    let four =
        run_sim(Box::new(FedSagePlus::new(Box::new(FedAvg::new()))), ModelKind::Sage, 4, 1.0);
    assert_bit_identical(&one, &four, "FedSage++FedAvg");
}

#[test]
fn oversubscribed_thread_count_is_harmless() {
    // More workers than clients: chunking clamps to the participant count.
    let one = run_sim(Box::new(FedAvg::new()), ModelKind::Sgc, 1, 1.0);
    let many = run_sim(Box::new(FedAvg::new()), ModelKind::Sgc, 64, 1.0);
    assert_bit_identical(&one, &many, "FedAvg@64threads");
}

#[test]
fn evaluation_scores_the_same_bits_on_the_requested_worker_count() {
    // The `eval` span reports the worker count evaluation ran on and the
    // rows it scored. Tracing is process-global and the tests of this
    // file run concurrently: FedProx is used by none of the others, so
    // its `round` spans, and the `eval` spans under them, are this test's.
    let sink = MemorySink::new();
    fedgta_obs::init_writer(Box::new(sink.clone())).expect("install sink");
    fedgta_obs::set_level(ObsLevel::Trace);
    let one = run_sim(Box::new(FedProx::new(0.01)), ModelKind::Sign, 1, 1.0);
    let four = run_sim(Box::new(FedProx::new(0.01)), ModelKind::Sign, 4, 1.0);
    fedgta_obs::shutdown();
    fedgta_obs::set_level(ObsLevel::Off);
    assert_bit_identical(&one, &four, "FedProx/SIGN");
    assert!(one.iter().any(|r| r.test_acc.is_some_and(|a| a > 0.0)));

    let test_rows: usize = federation_with(ModelKind::Sign, 900, 10, 900)
        .iter()
        .map(|c| c.eval_data.as_ref().unwrap_or(&c.data).test_nodes.len())
        .sum();
    let events = fedgta_obs::parse_trace(&sink.contents()).expect("trace parses");
    let spans = |wanted: &'static str| {
        events.iter().filter_map(move |e| match e {
            TraceEvent::Span { name, id, parent, fields, .. } if name == wanted => {
                Some((*id, *parent, fields))
            }
            _ => None,
        })
    };
    let round_threads: BTreeMap<u64, u64> = spans("round")
        .filter(|(_, _, f)| f["strategy"].as_str() == Some("FedProx"))
        .map(|(id, _, f)| (id, f["threads"].as_u64().expect("numeric")))
        .collect();
    let mut evals_on = BTreeMap::new();
    for (_, parent, fields) in spans("eval") {
        if let Some(&requested) = round_threads.get(&parent) {
            assert_eq!(fields["threads"].as_u64(), Some(requested));
            assert_eq!(fields["rows"].as_u64(), Some(test_rows as u64));
            *evals_on.entry(requested).or_insert(0) += 1;
        }
    }
    // Six rounds, evaluated after every second one, per run.
    assert_eq!(evals_on, BTreeMap::from([(1, 3), (4, 3)]));
}
