//! End-to-end observability contract: a traced simulation emits a
//! parseable `fedgta-trace/2` span tree covering
//! `round > { sample, train > client_train×P, aggregate, eval }`, the
//! report aggregator reconstructs rounds/clients/strategies from it, and
//! — the hard invariant — tracing changes **no numeric result** at any
//! thread count.
//!
//! Observability state (level, trace sink, metric registry) is process
//! global, so every test here serializes on one mutex.

use fedgta::FedGta;
use fedgta_fed::round::{CommsConfig, RoundRecord, SimConfig, Simulation};
use fedgta_fed::strategies::test_support::federation_with;
use fedgta_fed::strategies::{FedAvg, RoundCtx, Strategy};
use fedgta_nn::models::ModelKind;
use fedgta_obs::{MemorySink, ObsLevel};
use std::sync::Mutex;

static OBS_LOCK: Mutex<()> = Mutex::new(());

fn run_sim(strategy: Box<dyn Strategy>, threads: usize, rounds: usize) -> Vec<RoundRecord> {
    let clients = federation_with(ModelKind::Sgc, 901, 4, 901);
    let mut sim = Simulation::new(
        clients,
        strategy,
        SimConfig {
            rounds,
            local_epochs: 2,
            participation: 1.0,
            eval_every: 2,
            seed: 901,
            threads,
        },
    );
    sim.run()
}

/// Runs a simulation with tracing armed into an in-memory sink; returns
/// the records and the captured trace text.
fn run_traced(strategy: Box<dyn Strategy>, threads: usize, rounds: usize) -> (Vec<RoundRecord>, String) {
    let sink = MemorySink::new();
    fedgta_obs::init_writer(Box::new(sink.clone())).expect("install sink");
    fedgta_obs::set_level(ObsLevel::Trace);
    let records = run_sim(strategy, threads, rounds);
    fedgta_obs::shutdown();
    fedgta_obs::set_level(ObsLevel::Off);
    fedgta_obs::global().reset();
    (records, sink.contents())
}

fn assert_same_numbers(a: &[RoundRecord], b: &[RoundRecord], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: round counts differ");
    for (ra, rb) in a.iter().zip(b) {
        assert_eq!(
            ra.mean_loss.to_bits(),
            rb.mean_loss.to_bits(),
            "{label} round {}: loss",
            ra.round
        );
        assert_eq!(
            ra.test_acc.map(f64::to_bits),
            rb.test_acc.map(f64::to_bits),
            "{label} round {}: acc",
            ra.round
        );
        assert_eq!(ra.bytes_uploaded, rb.bytes_uploaded, "{label} round {}: up", ra.round);
        assert_eq!(ra.bytes_downloaded, rb.bytes_downloaded, "{label} round {}: down", ra.round);
    }
}

#[test]
fn traced_run_emits_complete_round_span_tree() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (records, trace) = run_traced(Box::new(FedGta::with_defaults()), 2, 4);
    let events = fedgta_obs::parse_trace(&trace).expect("trace parses");
    let summary = fedgta_obs::summarize(&events);

    // One reconstructed round per driver round, strategy name attached.
    assert_eq!(summary.rounds.len(), records.len());
    for (row, rec) in summary.rounds.iter().zip(&records) {
        assert_eq!(row.round as usize, rec.round);
        assert_eq!(row.strategy, "FedGTA");
        assert_eq!(row.participants, 4);
        assert_eq!(row.bytes_up as usize, rec.bytes_uploaded);
        assert_eq!(row.bytes_down as usize, rec.bytes_downloaded);
        assert!(row.total_ns > 0);
        assert!(row.train_ns > 0, "round {} missing train span", rec.round);
        assert!(row.aggregate_ns > 0, "round {} missing aggregate span", rec.round);
        // eval span only where the driver evaluated.
        assert_eq!(row.eval_ns > 0, rec.test_acc.is_some(), "round {}", rec.round);
    }
    // Every client trained every round.
    assert_eq!(summary.clients.len(), 4);
    for c in &summary.clients {
        assert_eq!(c.stats.count, records.len(), "client {}", c.key);
    }
    // All phases appear in the span-name stats.
    let names: Vec<&str> = summary.span_stats.iter().map(|s| s.key.as_str()).collect();
    for expected in ["round", "sample", "train", "client_train", "aggregate", "eval", "lp", "confidence", "moments"] {
        assert!(names.contains(&expected), "missing span name '{expected}' in {names:?}");
    }
    // Eq. 4 is a stage with a value: every client's `H`, every round.
    let confidences: Vec<&fedgta_obs::JsonVal> = events
        .iter()
        .filter_map(|e| match e {
            fedgta_obs::TraceEvent::Span { name, fields, .. } if name == "confidence" => fields.get("h"),
            _ => None,
        })
        .collect();
    assert_eq!(confidences.len(), 4 * records.len());
    assert!(confidences.iter().all(|h| matches!(h, fedgta_obs::JsonVal::Num(h) if *h > 0.0)));
    // Eq. 6/7 is a stage with a decision: the effective ε, the mean set
    // size, the share of pairs at or above ε and the rejections, per round.
    for row in &summary.rounds {
        let d = row.decision.expect("FedGTA's aggregate span carries its decision");
        assert_eq!(d.epsilon as f32, fedgta::FedGtaConfig::default().epsilon);
        assert!((0.0..=1.0).contains(&d.sim_above_eps), "{d:?}");
        // A set is its owner plus every other client at or above ε.
        assert!((d.members_mean - (1.0 + 3.0 * d.sim_above_eps)).abs() < 1e-9, "{d:?}");
        assert_eq!(d.rejected, 0);
    }
    // Recording the decision reads the report; it moves no result bit.
    let untraced = run_sim(Box::new(FedGta::with_defaults()), 2, 4);
    assert_same_numbers(&untraced, &records, "FedGTA untraced vs traced");
    // Strategy rollup and metric flush rows made it into the trace.
    assert_eq!(summary.strategies.len(), 1);
    assert_eq!(summary.strategies[0].key, "FedGTA");
    for name in [
        "comms.upload_bytes",
        "round.client.train_ns",
        "strategy.aggregate_ns",
        "kernel.matmul.flops",
    ] {
        assert!(summary.metric(name).is_some(), "metric flush missing {name}");
    }
    // The pooled Algorithm-1 scratch is a tracked resource peak.
    let scratch = summary.metric("fedgta.metric_scratch.bytes");
    assert!(scratch.is_some_and(|v| v > 0), "{scratch:?}");
    // The report renders without panicking and carries the decisions table.
    let report = fedgta_obs::render_report(&summary);
    assert!(report.contains("FedGTA decisions"), "{report}");
}

#[test]
fn tracing_never_changes_numeric_results_at_any_thread_count() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Baseline: untraced, single-threaded.
    let plain1 = run_sim(Box::new(FedAvg::new()), 1, 4);
    // Traced at 1 and 4 threads: the observability layer must be invisible
    // in every numeric field (the ISSUE's determinism contract).
    let (traced1, _) = run_traced(Box::new(FedAvg::new()), 1, 4);
    let (traced4, trace4) = run_traced(Box::new(FedAvg::new()), 4, 4);
    let plain4 = run_sim(Box::new(FedAvg::new()), 4, 4);
    assert_same_numbers(&plain1, &traced1, "plain1 vs traced1");
    assert_same_numbers(&plain1, &traced4, "plain1 vs traced4");
    assert_same_numbers(&plain1, &plain4, "plain1 vs plain4");
    // The 4-thread trace still reconstructs per-client spans for everyone.
    let events = fedgta_obs::parse_trace(&trace4).expect("trace parses");
    let summary = fedgta_obs::summarize(&events);
    assert_eq!(summary.clients.len(), 4);
}

#[test]
fn metrics_level_accumulates_without_a_sink() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fedgta_obs::global().reset();
    fedgta_obs::set_level(ObsLevel::Metrics);
    let records = run_sim(Box::new(FedAvg::new()), 2, 2);
    fedgta_obs::set_level(ObsLevel::Off);
    let snaps = fedgta_obs::global().snapshot();
    let get = |name: &str| snaps.iter().find(|s| s.name == name).map(|s| s.value);
    let expected_up: u64 = records.iter().map(|r| r.bytes_uploaded as u64).sum();
    let expected_down: u64 = records.iter().map(|r| r.bytes_downloaded as u64).sum();
    assert_eq!(get("comms.upload_bytes"), Some(expected_up));
    assert_eq!(get("comms.download_bytes"), Some(expected_down));
    // Per-client train histogram saw participants × rounds samples.
    let train = snaps
        .iter()
        .find(|s| s.name == "round.client.train_ns")
        .expect("train histogram");
    assert_eq!(train.count, (4 * records.len()) as u64);
    // Kernel and workspace instrumentation fired on the hot path.
    assert!(get("kernel.matmul.flops").unwrap_or(0) > 0);
    assert!(get("spmm.rows").unwrap_or(0) > 0);
    assert!(get("workspace.high_water_bytes").unwrap_or(0) > 0);
    // And the Prometheus snapshot renders them.
    let prom = fedgta_obs::global().render_prometheus();
    assert!(prom.contains("fedgta_comms_upload_bytes"));
    fedgta_obs::global().reset();
}

#[test]
fn a_metered_wire_run_without_stragglers_still_exports_the_straggler_histogram() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fedgta_obs::global().reset();
    fedgta_obs::set_level(ObsLevel::Metrics);
    let clients = federation_with(ModelKind::Sgc, 902, 4, 902);
    let cfg = SimConfig { rounds: 1, local_epochs: 1, ..SimConfig::default() };
    Simulation::new(clients, Box::new(FedAvg::new()), cfg)
        .with_comms(fedgta_fed::round::CommsConfig::default())
        .run();
    fedgta_obs::set_level(ObsLevel::Off);
    // Dashboards read an absent series as "no data", an empty one as
    // "no stragglers": the clean channel must export the latter.
    let snaps = fedgta_obs::global().snapshot();
    let lateness = snaps.iter().find(|s| s.name == "comms.straggler_ms");
    assert_eq!(lateness.map(|s| s.count), Some(0));
    fedgta_obs::global().reset();
}

#[test]
fn the_scratch_gauge_is_the_pooled_scratch() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Everything FedGTA holds between calls is its scratch pool: the gauge
    // reads exactly the pool's bytes, at any worker count.
    for threads in [1, 4] {
        fedgta_obs::global().reset();
        fedgta_obs::set_level(ObsLevel::Metrics);
        let mut clients = federation_with(ModelKind::Gamlp, 905, 4, 905);
        let mut s = FedGta::with_defaults();
        let all: Vec<usize> = (0..clients.len()).collect();
        for _ in 0..2 {
            s.round(&mut clients, &all, &RoundCtx::with_threads(1, threads));
        }
        fedgta_obs::set_level(ObsLevel::Off);
        let bytes = fedgta_obs::global().gauge("fedgta.metric_scratch.bytes").get();
        fedgta_obs::global().reset();
        let pooled = s.objective.pooled_scratch().1;
        assert!(pooled > 0);
        assert_eq!(bytes as usize, pooled, "{threads} threads");
    }
}

#[test]
fn the_clients_gauge_holds_a_decoupled_clients_features_once() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fedgta_obs::global().reset();
    fedgta_obs::set_level(ObsLevel::Metrics);
    let clients = federation_with(ModelKind::Sgc, 903, 4, 903);
    let cfg = SimConfig { rounds: 1, local_epochs: 1, ..SimConfig::default() };
    let mut sim = Simulation::new(clients, Box::new(FedAvg::new()), cfg);
    sim.run();
    fedgta_obs::set_level(ObsLevel::Off);
    let snaps = fedgta_obs::global().snapshot();
    let held = snaps.iter().find(|s| s.name == "fed.clients.bytes").expect("clients gauge").value;
    fedgta_obs::global().reset();
    // The same clients' raw datasets (GAMLP reads raw features) without
    // the mean-aggregation adjacencies a decoupled model's `prepare` drops,
    // plus the parameter vectors, plus the n × f propagated copy an SGC
    // model kept beside its dataset's raw X before the dataset held the
    // copy instead.
    let lean = |c: &fedgta_fed::Client| {
        let mut d = c.data.clone();
        d.adj_mean = fedgta_graph::Csr::empty(d.num_nodes());
        d.adj_mean_t = fedgta_graph::Csr::empty(d.num_nodes());
        d.bytes()
    };
    let raw: usize = federation_with(ModelKind::Gamlp, 903, 4, 903).iter().map(lean).sum();
    let params: usize = sim.clients.iter().map(|c| 4 * c.model.num_params()).sum();
    let n: usize = sim.clients.iter().map(|c| c.data.num_nodes()).sum();
    let (f, cached) = (16, 4 * n * 16);
    assert_eq!(sim.clients[0].data.features.cols(), f);
    assert_eq!(held as usize, raw + params);
    assert_eq!(held as usize + 4 * n * f, raw + cached + params, "one n·f·4 copy fewer");
}

#[test]
fn the_clients_gauge_after_fedgtas_first_round_is_datasets_and_parameters() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fedgta_obs::global().reset();
    fedgta_obs::set_level(ObsLevel::Metrics);
    let clients = federation_with(ModelKind::Sign, 904, 4, 904);
    let cfg = SimConfig { rounds: 1, local_epochs: 1, ..SimConfig::default() };
    let mut sim = Simulation::new(clients, Box::new(FedGta::with_defaults()), cfg);
    sim.run();
    fedgta_obs::set_level(ObsLevel::Off);
    let snaps = fedgta_obs::global().snapshot();
    let held = snaps.iter().find(|s| s.name == "fed.clients.bytes").expect("clients gauge").value;
    fedgta_obs::global().reset();
    // Round 1 trained every client on moments of its own (nothing was
    // broadcast yet); every upload arrived, so each client's next turn
    // starts from its personalized model and a reset, and none kept them.
    let data: usize = sim.clients.iter().map(|c| c.data.bytes()).sum();
    let params: usize = sim.clients.iter().map(|c| 4 * c.model.num_params()).sum();
    assert!(sim.clients.iter().all(|c| c.eval_data.is_none() && c.ef.is_none()));
    assert_eq!(held as usize, data + params);
}

#[test]
fn the_store_gauge_counts_a_slot_buffer_only_where_the_server_keeps_one() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let gauge = |strategy: Box<dyn Strategy>, wire: bool| {
        fedgta_obs::global().reset();
        fedgta_obs::set_level(ObsLevel::Metrics);
        let clients = federation_with(ModelKind::Sgc, 906, 4, 906);
        let cfg = SimConfig { rounds: 2, local_epochs: 1, threads: 1, ..SimConfig::default() };
        let mut sim = Simulation::new(clients, strategy, cfg);
        if wire {
            sim = sim.with_comms(CommsConfig::default());
        }
        sim.run();
        fedgta_obs::set_level(ObsLevel::Off);
        let bytes = fedgta_obs::global().gauge("fed.store.bytes").get() as usize;
        fedgta_obs::global().reset();
        assert_eq!(bytes, sim.strategy.store_bytes());
        (bytes, sim.clients.len(), sim.clients[0].model.num_params())
    };
    // In memory each personalized model is its client's parameters.
    assert_eq!(gauge(Box::new(FedGta::with_defaults()), false).0, 0);
    // FedAvg's one shared slot.
    let (bytes, _, plen) = gauge(Box::new(FedAvg::new()), false);
    assert_eq!(bytes, 4 * plen);
    // On the wire the server keeps every client's slot: what it re-sends
    // after a lost upload and anchors error feedback on.
    let (bytes, n, plen) = gauge(Box::new(FedGta::with_defaults()), true);
    assert_eq!(bytes, n * 4 * plen);
}
