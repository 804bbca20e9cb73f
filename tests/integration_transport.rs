//! The transport-layer contracts, end-to-end.
//!
//! Contract 1 (equivalence): with no faults configured, routing every
//! round over the in-process [`fedgta_fed::transport::ChannelTransport`]
//! — real FGTM envelopes, CRC verification, upload decoding — produces
//! **bit-identical** results to the classic direct function-call round,
//! for every strategy, at any thread count.
//!
//! Contract 2 (reproducible chaos): with faults enabled, the same fault
//! seed yields bit-identical round records *and* an identical fault
//! event log, run to run and across thread counts.
//!
//! Contract 3 (graceful degradation): a round that cannot reach quorum
//! is skipped — zero stats, no aggregation, client models untouched.

use fedgta::FedGta;
use fedgta_fed::codec::CodecSpec;
use fedgta_fed::faults::{FaultConfig, FaultEvent};
use fedgta_fed::round::{CommsConfig, RoundRecord, SimConfig, Simulation};
use fedgta_fed::strategies::test_support::federation_with;
use fedgta_fed::strategies::{
    FedAvg, FedDc, FedProx, GcflPlus, LocalOnly, Moon, Scaffold, Strategy,
};
use fedgta_nn::models::ModelKind;

/// Runs a 10-client simulation, optionally over the channel transport.
fn run_sim(
    strategy: Box<dyn Strategy>,
    threads: usize,
    participation: f64,
    comms: Option<CommsConfig>,
) -> (Vec<RoundRecord>, Vec<FaultEvent>) {
    let clients = federation_with(ModelKind::Sgc, 900, 10, 900);
    let mut sim = Simulation::new(
        clients,
        strategy,
        SimConfig { rounds: 6, local_epochs: 2, participation, eval_every: 2, seed: 900, threads },
    );
    if let Some(cc) = comms {
        sim = sim.with_comms(cc);
    }
    let records = sim.run();
    (records, sim.fault_events)
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
        assert_eq!(
            (ra.participants_completed, ra.participants_dropped, ra.retries),
            (rb.participants_completed, rb.participants_dropped, rb.retries),
            "{label} round {}: robustness fields",
            ra.round
        );
        assert_eq!(
            (ra.bytes_downloaded_raw, ra.bytes_downloaded_encoded),
            (rb.bytes_downloaded_raw, rb.bytes_downloaded_encoded),
            "{label} round {}: download byte meters",
            ra.round
        );
    }
}

/// A fresh-strategy constructor, so each run starts from clean state.
type MakeStrategy = fn() -> Box<dyn Strategy>;

fn all_strategies() -> Vec<(&'static str, MakeStrategy)> {
    vec![
        ("FedAvg", || Box::new(FedAvg::new())),
        ("FedProx", || Box::new(FedProx::new(0.01))),
        ("Scaffold", || Box::new(Scaffold::new())),
        ("MOON", || Box::new(Moon::new(1.0, 0.5))),
        ("FedDC", || Box::new(FedDc::new(0.01))),
        ("GCFL+", || Box::new(GcflPlus::new(4, 2.0))),
        ("LocalOnly", || Box::new(LocalOnly::new())),
        ("FedGTA", || Box::new(FedGta::with_defaults())),
    ]
}

#[test]
fn clean_transport_is_bit_identical_to_direct_for_every_strategy() {
    // Contract 1: the message path (envelope encode → channel → CRC
    // verify → decode → aggregate) must be invisible when nothing fails,
    // for all 8 baseline strategies plus the FedGTA core, at 1 and 4
    // worker threads.
    for (label, make) in all_strategies() {
        let (direct, _) = run_sim(make(), 1, 1.0, None);
        let (chan1, ev1) = run_sim(make(), 1, 1.0, Some(CommsConfig::default()));
        let (chan4, ev4) = run_sim(make(), 4, 1.0, Some(CommsConfig::default()));
        assert_bit_identical(&direct, &chan1, &format!("{label} direct vs channel@1"));
        assert_bit_identical(&direct, &chan4, &format!("{label} direct vs channel@4"));
        assert!(ev1.is_empty() && ev4.is_empty(), "{label}: clean runs logged faults");
        // With no faults every sampled participant completes.
        for r in &chan1 {
            assert_eq!(r.participants_dropped, 0, "{label}: clean run dropped clients");
            assert_eq!(r.retries, 0, "{label}: clean run retried");
            assert!(r.participants_completed > 0);
        }
    }
}

#[test]
fn clean_transport_partial_participation_matches_direct() {
    // Sampling shares the driver RNG; the transport path must consume the
    // identical draw sequence (oversample 1.0 ⇒ same invite set).
    let (direct, _) = run_sim(Box::new(FedAvg::new()), 1, 0.5, None);
    let (chan, _) = run_sim(Box::new(FedAvg::new()), 3, 0.5, Some(CommsConfig::default()));
    assert_bit_identical(&direct, &chan, "FedAvg@50% direct vs channel");
}

#[test]
fn clean_transport_fedgta_final_parameters_match_direct() {
    // Stronger than record equality: every client's parameter vector after
    // the personalized server rounds must agree bitwise between the two
    // message paths.
    let run = |comms: Option<CommsConfig>| -> Vec<Vec<f32>> {
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
                threads: 2,
            },
        );
        if let Some(cc) = comms {
            sim = sim.with_comms(cc);
        }
        sim.run();
        sim.clients.iter().map(|c| c.model.params()).collect()
    };
    let direct = run(None);
    let channel = run(Some(CommsConfig::default()));
    assert_eq!(direct.len(), channel.len());
    for (i, (a, b)) in direct.iter().zip(&channel).enumerate() {
        assert_eq!(a.len(), b.len(), "client {i}: param lengths differ");
        for (j, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "client {i} param {j}: {x} (direct) vs {y} (channel)"
            );
        }
    }
}

/// The chaos configuration used by the reproducibility tests: drops,
/// corruption, crashes, latency, slow clients, a straggler deadline and
/// over-sampling, all at once.
fn chaos() -> CommsConfig {
    CommsConfig {
        faults: FaultConfig::parse("drop=0.1,corrupt=0.05,crash=0.05,delay=20,slow=0.25x4")
            .unwrap(),
        fault_seed: 42,
        deadline_ms: 400,
        min_quorum: 1,
        oversample: 1.5,
        ..CommsConfig::default()
    }
}

#[test]
fn faulted_runs_are_reproducible_across_runs_and_thread_counts() {
    // Contract 2: same fault seed ⇒ bit-identical records and an
    // identical fault event log, no matter the thread count.
    let (a, ev_a) = run_sim(Box::new(FedAvg::new()), 1, 0.8, Some(chaos()));
    let (b, ev_b) = run_sim(Box::new(FedAvg::new()), 1, 0.8, Some(chaos()));
    let (c, ev_c) = run_sim(Box::new(FedAvg::new()), 4, 0.8, Some(chaos()));
    assert_bit_identical(&a, &b, "chaos run-to-run");
    assert_bit_identical(&a, &c, "chaos threads 1 vs 4");
    assert_eq!(ev_a, ev_b, "fault event logs differ run-to-run");
    assert_eq!(ev_a, ev_c, "fault event logs differ across thread counts");
    // The chaos actually bit: something was logged, and the records
    // reflect losses somewhere.
    assert!(!ev_a.is_empty(), "chaos config produced no fault events");
    assert!(
        a.iter().any(|r| r.participants_dropped > 0 || r.retries > 0),
        "chaos config never dropped or retried"
    );
    // All rounds still completed (quorum 1 with 10 clients is robust).
    assert_eq!(a.len(), 6);
}

#[test]
fn faulted_fedgta_stays_reproducible() {
    // The personalized-aggregation path (stateful, per-client buffers)
    // under chaos: same contract as the stateless baselines.
    let (a, ev_a) = run_sim(Box::new(FedGta::with_defaults()), 1, 1.0, Some(chaos()));
    let (b, ev_b) = run_sim(Box::new(FedGta::with_defaults()), 4, 1.0, Some(chaos()));
    assert_bit_identical(&a, &b, "chaos FedGTA threads 1 vs 4");
    assert_eq!(ev_a, ev_b);
}

/// A fault-free channel config with the given codec chain armed.
fn codec_comms(spec: &str) -> CommsConfig {
    CommsConfig {
        codec: Some(CodecSpec::parse(spec).expect("valid codec spec")),
        ..CommsConfig::default()
    }
}

/// The codec chains the determinism contract is checked over: every
/// stage kind alone plus a sparsify→quantize chain.
const CODEC_SPECS: &[&str] = &["identity", "quant-i8", "topk=32", "topk=16+quant-i8"];

/// A lighter federation for the codec × strategy sweep (the full grid is
/// |codecs| × |strategies| × 2 thread counts).
fn run_sim_light(
    strategy: Box<dyn Strategy>,
    threads: usize,
    comms: CommsConfig,
) -> (Vec<RoundRecord>, Vec<FaultEvent>) {
    let clients = federation_with(ModelKind::Sgc, 900, 6, 600);
    let mut sim = Simulation::new(
        clients,
        strategy,
        SimConfig {
            rounds: 2,
            local_epochs: 1,
            participation: 1.0,
            eval_every: 2,
            seed: 900,
            threads,
        },
    )
    .with_comms(comms);
    let records = sim.run();
    (records, sim.fault_events)
}

#[test]
fn every_codec_is_bit_deterministic_for_every_strategy() {
    // Contract 1 extended: with any codec armed — lossless or lossy —
    // results remain a pure function of the seeds. 1 vs 4 worker threads
    // must agree bitwise on every record, including the raw/encoded byte
    // meters (the wire bodies themselves are scripted).
    for spec in CODEC_SPECS {
        for (label, make) in all_strategies() {
            let (r1, ev1) = run_sim_light(make(), 1, codec_comms(spec));
            let (r4, ev4) = run_sim_light(make(), 4, codec_comms(spec));
            let tag = format!("{label} × {spec} threads 1 vs 4");
            assert_bit_identical(&r1, &r4, &tag);
            for (a, b) in r1.iter().zip(&r4) {
                assert_eq!(
                    (a.bytes_uploaded_raw, a.bytes_uploaded_encoded),
                    (b.bytes_uploaded_raw, b.bytes_uploaded_encoded),
                    "{tag} round {}: byte meters differ",
                    a.round
                );
                assert!(
                    a.bytes_uploaded_encoded > 0,
                    "{tag} round {}: nothing metered on the wire",
                    a.round
                );
            }
            assert_eq!(ev1, ev4, "{tag}: fault event logs differ");
            assert!(ev1.is_empty(), "{tag}: clean coded run logged faults");
        }
    }
}

#[test]
fn identity_codec_matches_plain_channel_trajectories() {
    // A lossless chain is *elided* at build time: the run ships plain
    // frames, so not just the loss/accuracy trajectories but the byte
    // meters themselves must be identical to the plain channel path —
    // the identity header overhead is gone from the wire.
    for (label, make) in all_strategies() {
        let (plain, _) = run_sim_light(make(), 2, CommsConfig::default());
        let (coded, _) = run_sim_light(make(), 2, codec_comms("identity"));
        assert_eq!(plain.len(), coded.len());
        for (a, b) in plain.iter().zip(&coded) {
            assert_eq!(
                a.mean_loss.to_bits(),
                b.mean_loss.to_bits(),
                "{label} round {}: identity codec changed the loss",
                a.round
            );
            assert_eq!(
                a.test_acc.map(f64::to_bits),
                b.test_acc.map(f64::to_bits),
                "{label} round {}: identity codec changed the accuracy",
                a.round
            );
            // Golden: an elided identity chain frames the very same
            // bytes the plain channel does.
            assert_eq!(
                (a.bytes_uploaded, a.bytes_uploaded_raw, a.bytes_uploaded_encoded),
                (b.bytes_uploaded, b.bytes_uploaded_raw, b.bytes_uploaded_encoded),
                "{label} round {}: identity chain not elided to plain frames",
                a.round
            );
            assert!(
                b.bytes_uploaded_raw > 0 && b.bytes_uploaded_encoded > 0,
                "{label} round {}: byte meters not live",
                a.round
            );
        }
    }
}

/// A fault-free channel config with upload, download and sketch codecs
/// plus error feedback — the full tentpole configuration.
fn tentpole_comms() -> CommsConfig {
    CommsConfig {
        codec: Some(CodecSpec::parse("topk=16+quant-i8").expect("valid spec")),
        codec_down: Some(CodecSpec::parse("quant-i8").expect("valid spec")),
        codec_sketch: Some(CodecSpec::parse("sketch=7").expect("valid spec")),
        error_feedback: true,
        ..CommsConfig::default()
    }
}

#[test]
fn error_feedback_with_download_and_sketch_codecs_is_bit_deterministic() {
    // The full stack armed at once — error-feedback folding, sketch-coded
    // auxiliary tensors, quantized broadcasts — must stay a pure function
    // of the seeds: records, both wire legs' byte meters, and final
    // client parameters bitwise equal at 1 vs 4 threads.
    let run = |threads: usize| {
        let clients = federation_with(ModelKind::Sgc, 900, 6, 600);
        let mut sim = Simulation::new(
            clients,
            Box::new(FedGta::with_defaults()),
            SimConfig {
                rounds: 3,
                local_epochs: 1,
                participation: 1.0,
                eval_every: 1,
                seed: 900,
                threads,
            },
        )
        .with_comms(tentpole_comms());
        let records = sim.run();
        let params: Vec<Vec<f32>> = sim.clients.iter().map(|c| c.model.params()).collect();
        (records, params)
    };
    let (r1, p1) = run(1);
    let (r4, p4) = run(4);
    assert_bit_identical(&r1, &r4, "EF+down+sketch threads 1 vs 4");
    for (i, (a, b)) in p1.iter().zip(&p4).enumerate() {
        assert_eq!(a.len(), b.len(), "client {i}: param lengths differ");
        for (j, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "client {i} param {j}: {x} vs {y}");
        }
    }
    // Both legs actually metered and compressed: uploads are sparsified
    // every round; downloads are quantized ~4× from round 2 on (FedGTA
    // has no personalized models to broadcast before its first
    // aggregation, so round 1's download leg is legitimately empty).
    for (n, r) in r1.iter().enumerate() {
        assert!(
            r.bytes_uploaded_encoded > 0 && r.bytes_uploaded_encoded < r.bytes_uploaded_raw / 3,
            "round {}: upload codec not biting",
            r.round
        );
        if n == 0 {
            assert_eq!(
                (r.bytes_downloaded_raw, r.bytes_downloaded_encoded),
                (0, 0),
                "round {}: broadcast metered before anything was aggregated",
                r.round
            );
        } else {
            assert!(
                r.bytes_downloaded_encoded > 0
                    && r.bytes_downloaded_encoded < r.bytes_downloaded_raw / 3,
                "round {}: download codec not biting",
                r.round
            );
        }
    }
}

#[test]
fn plain_broadcasts_never_become_wire_bytes() {
    // Without a download codec the broadcast stays an empty-payload
    // request frame: the download meters must read zero even with an
    // upload codec and error feedback armed.
    let comms = CommsConfig {
        codec: Some(CodecSpec::parse("topk=16+quant-i8").expect("valid spec")),
        error_feedback: true,
        ..CommsConfig::default()
    };
    let (records, _) = run_sim_light(Box::new(FedGta::with_defaults()), 2, comms);
    for r in &records {
        assert_eq!(
            (r.bytes_downloaded_raw, r.bytes_downloaded_encoded),
            (0, 0),
            "round {}: plain broadcast was metered as wire bytes",
            r.round
        );
    }
    // A lossless download chain is elided the same way the upload one
    // is: `--codec-down identity` must look exactly like no download
    // codec at all, trajectories included.
    let with_identity_down = CommsConfig {
        codec: Some(CodecSpec::parse("topk=16+quant-i8").expect("valid spec")),
        codec_down: Some(CodecSpec::parse("identity").expect("valid spec")),
        error_feedback: true,
        ..CommsConfig::default()
    };
    let (elided, _) = run_sim_light(Box::new(FedGta::with_defaults()), 2, with_identity_down);
    assert_bit_identical(&records, &elided, "identity download chain vs none");
}

#[test]
fn every_broadcasting_strategy_sends_its_model_through_the_download_codec() {
    // A strategy that installs its start-of-round model inside the
    // training closure hides it from the executor: the download codec
    // meters nothing and the clients train from the server's exact copy.
    // Declared, the broadcast is wire bytes and local training starts from
    // the decoded (lossy) vector — so a round's loss differs from the
    // clean channel's from the first broadcast on.
    let down_i8 = || CommsConfig {
        codec_down: Some(CodecSpec::parse("quant-i8").expect("valid spec")),
        ..CommsConfig::default()
    };
    for (label, make) in all_strategies() {
        if label == "LocalOnly" {
            continue;
        }
        let (clean, _) = run_sim_light(make(), 2, CommsConfig::default());
        let (coded, _) = run_sim_light(make(), 2, down_i8());
        // FedGTA has no personalized model to send before it has
        // aggregated once.
        let first = usize::from(label == "FedGTA");
        for (r, c) in coded.iter().zip(&clean).skip(first) {
            assert!(
                r.bytes_downloaded_encoded > 0
                    && r.bytes_downloaded_encoded < r.bytes_downloaded_raw / 3,
                "{label} round {}: {} raw broadcast bytes, {} on the wire",
                r.round,
                r.bytes_downloaded_raw,
                r.bytes_downloaded_encoded
            );
            assert_ne!(
                r.mean_loss.to_bits(),
                c.mean_loss.to_bits(),
                "{label} round {}: trained from the server's copy, not the decoded broadcast",
                r.round
            );
        }
    }
}

#[test]
fn chaos_with_error_feedback_replays_bit_identically() {
    // The replay-semantics contract under fire: drops, corruption and
    // crashes hit coded uploads while error feedback carries residuals
    // across rounds — rejected uploads must carry their full delta
    // forward (never double-applied, never lost), crashed clients leave
    // their accumulator untouched, and the whole composition stays a
    // pure function of the fault seed at any thread count.
    let comms = || CommsConfig {
        codec: Some(CodecSpec::parse("topk=16+quant-i8").unwrap()),
        codec_down: Some(CodecSpec::parse("quant-i8").unwrap()),
        codec_sketch: Some(CodecSpec::parse("sketch=7").unwrap()),
        error_feedback: true,
        ..chaos()
    };
    let (a, ev_a) = run_sim(Box::new(FedGta::with_defaults()), 1, 0.8, Some(comms()));
    let (b, ev_b) = run_sim(Box::new(FedGta::with_defaults()), 1, 0.8, Some(comms()));
    let (c, ev_c) = run_sim(Box::new(FedGta::with_defaults()), 4, 0.8, Some(comms()));
    assert_bit_identical(&a, &b, "chaos+EF run-to-run");
    assert_bit_identical(&a, &c, "chaos+EF threads 1 vs 4");
    assert_eq!(ev_a, ev_b, "fault logs differ run-to-run");
    assert_eq!(ev_a, ev_c, "fault logs differ across thread counts");
    assert!(!ev_a.is_empty(), "chaos config produced no fault events");
    // The chaos actually rejected uploads (the EF replay path ran), and
    // rounds still aggregated.
    assert!(
        a.iter().any(|r| r.participants_dropped > 0),
        "no upload was ever rejected — replay semantics untested"
    );
    assert!(a.iter().any(|r| r.participants_completed > 0), "no round ever aggregated");
}

#[test]
fn identity_codec_fedgta_final_parameters_match_plain_channel() {
    // Stronger than record equality: client parameters after the
    // personalized rounds agree bitwise with and without the lossless
    // codec armed.
    let run = |comms: CommsConfig| -> Vec<Vec<f32>> {
        let clients = federation_with(ModelKind::Sgc, 900, 6, 600);
        let mut sim = Simulation::new(
            clients,
            Box::new(FedGta::with_defaults()),
            SimConfig {
                rounds: 3,
                local_epochs: 1,
                participation: 1.0,
                eval_every: 0,
                seed: 900,
                threads: 2,
            },
        )
        .with_comms(comms);
        sim.run();
        sim.clients.iter().map(|c| c.model.params()).collect()
    };
    let plain = run(CommsConfig::default());
    let coded = run(codec_comms("identity"));
    assert_eq!(plain.len(), coded.len());
    for (i, (a, b)) in plain.iter().zip(&coded).enumerate() {
        assert_eq!(a.len(), b.len(), "client {i}: param lengths differ");
        for (j, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "client {i} param {j}: {x} (plain) vs {y} (identity codec)"
            );
        }
    }
}

#[test]
fn chaos_with_quantized_uploads_stays_reproducible() {
    // Contract 2 extended: faults bite the *encoded* frames, and the
    // whole (codec ∘ chaos) composition replays bit-identically from the
    // fault seed at any thread count.
    let comms = || CommsConfig { codec: Some(CodecSpec::parse("quant-i8").unwrap()), ..chaos() };
    let (a, ev_a) = run_sim(Box::new(FedGta::with_defaults()), 1, 0.8, Some(comms()));
    let (b, ev_b) = run_sim(Box::new(FedGta::with_defaults()), 1, 0.8, Some(comms()));
    let (c, ev_c) = run_sim(Box::new(FedGta::with_defaults()), 4, 0.8, Some(comms()));
    assert_bit_identical(&a, &b, "chaos+quant-i8 run-to-run");
    assert_bit_identical(&a, &c, "chaos+quant-i8 threads 1 vs 4");
    assert_eq!(ev_a, ev_b, "fault logs differ run-to-run");
    assert_eq!(ev_a, ev_c, "fault logs differ across thread counts");
    assert!(!ev_a.is_empty(), "chaos config produced no fault events");
    // Compression actually happened on the surviving uploads.
    assert!(
        a.iter()
            .any(|r| r.bytes_uploaded_encoded > 0
                && r.bytes_uploaded_encoded < r.bytes_uploaded_raw / 3),
        "quant-i8 never compressed an accepted round"
    );
}

#[test]
fn quorum_failure_skips_the_round_and_preserves_models() {
    // Contract 3: crash every client and the orchestrator must re-sample,
    // give up, skip every round — zero stats, zero bytes, and the client
    // models never move.
    let clients = federation_with(ModelKind::Sgc, 900, 6, 900);
    let before: Vec<Vec<f32>> = clients.iter().map(|c| c.model.params()).collect();
    let mut sim = Simulation::new(
        clients,
        Box::new(FedAvg::new()),
        SimConfig {
            rounds: 3,
            local_epochs: 1,
            participation: 1.0,
            eval_every: 0,
            seed: 900,
            threads: 2,
        },
    )
    .with_comms(CommsConfig {
        faults: FaultConfig::parse("crash=1.0").unwrap(),
        fault_seed: 5,
        ..CommsConfig::default()
    });
    let records = sim.run();
    assert_eq!(records.len(), 3);
    for r in &records {
        assert_eq!(r.participants_completed, 0, "round {} aggregated", r.round);
        assert!(r.participants_dropped > 0);
        assert_eq!(r.mean_loss, 0.0);
        assert_eq!(r.bytes_uploaded, 0);
    }
    // Crash events were logged for every sampled client of every attempt.
    assert!(sim.fault_events.iter().any(|e| e.kind.name() == "crash"));
    assert!(sim.fault_events.iter().any(|e| e.kind.name() == "resample"));
    let after: Vec<Vec<f32>> = sim.clients.iter().map(|c| c.model.params()).collect();
    for (i, (a, b)) in before.iter().zip(&after).enumerate() {
        assert_eq!(a, b, "client {i}: model moved during skipped rounds");
    }
}
