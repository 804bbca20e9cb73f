//! Wire-level trace propagation + flight recorder + live export,
//! end-to-end:
//!
//! 1. the span tree of a **channel-transport** run (client spans
//!    parented through the `TraceContext` carried in FGTM envelopes) is
//!    isomorphic to the **direct-path** tree — the contract a future TCP
//!    transport inherits unchanged;
//! 2. a fault-free run with the flight recorder armed *and* a live
//!    `/metrics` endpoint serving is bit-identical (records and final
//!    model parameters) to a bare run, at 1 and 4 threads;
//! 3. same-fault-seed quorum-failure postmortem dumps are byte-identical
//!    across invocations and thread counts;
//! 4. `/metrics` scraped *while a simulation is running* parses as
//!    Prometheus text with counters, gauges, and cumulative buckets.
//!
//! Observability state is process-global; all tests serialize on one
//! mutex.

use fedgta_fed::faults::FaultConfig;
use fedgta_fed::round::{CommsConfig, RoundRecord, SimConfig, Simulation};
use fedgta_fed::strategies::test_support::federation_with;
use fedgta_fed::strategies::{FedAvg, Strategy};
use fedgta_graph::io::{Envelope, TraceContext};
use fedgta_nn::models::ModelKind;
use fedgta_obs::{MemorySink, ObsLevel};
use std::collections::BTreeMap;
use std::sync::Mutex;

static OBS_LOCK: Mutex<()> = Mutex::new(());

fn build_sim(threads: usize, rounds: usize, comms: Option<CommsConfig>) -> Simulation {
    let clients = federation_with(ModelKind::Sgc, 911, 4, 911);
    let mut sim = Simulation::new(
        clients,
        Box::new(FedAvg::new()) as Box<dyn Strategy>,
        SimConfig {
            rounds,
            local_epochs: 2,
            participation: 1.0,
            eval_every: 2,
            seed: 911,
            threads,
        },
    );
    if let Some(cc) = comms {
        sim = sim.with_comms(cc);
    }
    sim
}

/// Runs with tracing armed into a memory sink; returns (records, trace).
fn run_traced(
    threads: usize,
    rounds: usize,
    comms: Option<CommsConfig>,
) -> (Vec<RoundRecord>, String) {
    let sink = MemorySink::new();
    fedgta_obs::init_writer(Box::new(sink.clone())).expect("install sink");
    fedgta_obs::set_level(ObsLevel::Trace);
    let records = build_sim(threads, rounds, comms).run();
    fedgta_obs::shutdown();
    fedgta_obs::set_level(ObsLevel::Off);
    fedgta_obs::global().reset();
    (records, sink.contents())
}

/// Canonical shape of a trace's span forest: every span becomes
/// `name(sorted child shapes)`, roots sorted — two traces are isomorphic
/// as trees iff their canonical shapes are equal. Ids, timestamps, and
/// sibling order (a thread-race artifact) are erased.
fn canonical_shape(trace: &str) -> String {
    let events = fedgta_obs::parse_trace(trace).expect("trace parses");
    let mut nodes: BTreeMap<u64, (String, u64)> = BTreeMap::new();
    for e in &events {
        if let fedgta_obs::TraceEvent::Span { name, id, parent, .. } = e {
            nodes.insert(*id, (name.clone(), *parent));
        }
    }
    let mut children: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut roots: Vec<u64> = Vec::new();
    for (&id, &(_, parent)) in &nodes {
        if parent != 0 && nodes.contains_key(&parent) {
            children.entry(parent).or_default().push(id);
        } else {
            roots.push(id);
        }
    }
    fn shape(
        id: u64,
        nodes: &BTreeMap<u64, (String, u64)>,
        children: &BTreeMap<u64, Vec<u64>>,
    ) -> String {
        let mut kids: Vec<String> = children
            .get(&id)
            .map(|v| v.iter().map(|&c| shape(c, nodes, children)).collect())
            .unwrap_or_default();
        kids.sort();
        format!("{}({})", nodes[&id].0, kids.join(","))
    }
    let mut tops: Vec<String> = roots.iter().map(|&r| shape(r, &nodes, &children)).collect();
    tops.sort();
    tops.join("\n")
}

fn assert_same_numbers(a: &[RoundRecord], b: &[RoundRecord], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: round counts differ");
    for (ra, rb) in a.iter().zip(b) {
        assert_eq!(ra.mean_loss.to_bits(), rb.mean_loss.to_bits(), "{label} round {}", ra.round);
        assert_eq!(
            ra.test_acc.map(f64::to_bits),
            rb.test_acc.map(f64::to_bits),
            "{label} round {}: acc",
            ra.round
        );
        assert_eq!(ra.bytes_uploaded, rb.bytes_uploaded, "{label} round {}: up", ra.round);
        assert_eq!(
            ra.bytes_uploaded_encoded, rb.bytes_uploaded_encoded,
            "{label} round {}: wire",
            ra.round
        );
    }
}

#[test]
fn channel_span_tree_is_isomorphic_to_direct_tree() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (rec_direct, trace_direct) = run_traced(2, 3, None);
    let (rec_channel, trace_channel) =
        run_traced(2, 3, Some(CommsConfig { ..CommsConfig::default() }));
    // Clean transport is numerically the direct path (byte tallies are
    // metered differently — wire frames carry the loss — so compare the
    // learning numbers, not the accounting)…
    assert_eq!(rec_direct.len(), rec_channel.len());
    for (ra, rb) in rec_direct.iter().zip(&rec_channel) {
        assert_eq!(ra.mean_loss.to_bits(), rb.mean_loss.to_bits(), "round {}", ra.round);
        assert_eq!(ra.test_acc.map(f64::to_bits), rb.test_acc.map(f64::to_bits));
    }
    // …and its span tree — client spans parented through the envelope's
    // TraceContext, not process-local state — has exactly the same shape.
    let shape_direct = canonical_shape(&trace_direct);
    let shape_channel = canonical_shape(&trace_channel);
    assert_eq!(
        shape_direct, shape_channel,
        "channel-transport span tree must be isomorphic to the direct tree"
    );
    // Spot-check the shape itself: each round holds a train span with
    // one client_train per participant.
    assert_eq!(shape_direct.matches("round(").count(), 3);
    assert_eq!(shape_direct.matches("client_train()").count(), 3 * 4);
}

#[test]
fn wire_trace_context_parents_spans_across_threads() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let sink = MemorySink::new();
    fedgta_obs::init_writer(Box::new(sink.clone())).expect("install sink");
    fedgta_obs::set_level(ObsLevel::Trace);
    // Server side: a real span whose id crosses the wire inside the
    // envelope — not through any shared thread state.
    let server_span = fedgta_obs::span_named("server_round");
    let sid = server_span.id();
    assert_ne!(sid, 0);
    let frame = Envelope {
        kind: 1,
        round: 1,
        sender: u32::MAX,
        seq: 0,
        trace: Some(TraceContext { trace_id: fedgta_obs::run_trace_id(), parent_span: sid }),
        payload: Vec::new(),
    }
    .encode();
    // Client side: a fresh thread (fresh span stack) decodes the frame
    // and parents its span under the wire context.
    std::thread::spawn(move || {
        let env = Envelope::decode(&frame).expect("frame decodes");
        let tc = env.trace.expect("trace context survived the wire");
        assert_eq!(tc.trace_id, fedgta_obs::run_trace_id());
        let _s = fedgta_obs::span_under("client_work", tc.parent_span);
    })
    .join()
    .expect("client thread");
    drop(server_span);
    fedgta_obs::shutdown();
    fedgta_obs::set_level(ObsLevel::Off);
    let events = fedgta_obs::parse_trace(&sink.contents()).expect("trace parses");
    let mut client_parent = None;
    for e in &events {
        if let fedgta_obs::TraceEvent::Span { name, parent, .. } = e {
            if name == "client_work" {
                client_parent = Some(*parent);
            }
        }
    }
    assert_eq!(client_parent, Some(sid), "client span parents under the server span by wire id");
}

#[test]
fn recorder_and_live_endpoint_change_no_bits() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fedgta_obs::recorder::disarm();
    let params = |sim: &Simulation| sim.clients[0].model.params();
    // Bare baseline.
    let mut bare = build_sim(1, 3, None);
    let bare_records = bare.run();
    let bare_params = params(&bare);
    // Recorder + live endpoint armed, 1 and 4 threads.
    for threads in [1usize, 4] {
        fedgta_obs::recorder::arm_default();
        fedgta_obs::recorder::reset();
        let server = fedgta_obs::serve::serve("127.0.0.1:0").expect("bind");
        let mut sim = build_sim(threads, 3, None);
        let records = sim.run();
        let p = params(&sim);
        server.stop();
        fedgta_obs::recorder::disarm();
        assert_same_numbers(&bare_records, &records, &format!("bare vs armed@{threads}"));
        assert_eq!(bare_params.len(), p.len());
        for (i, (a, b)) in bare_params.iter().zip(&p).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "param {i} differs at {threads} threads");
        }
    }
}

#[test]
fn quorum_failure_dumps_are_byte_identical_across_threads_and_invocations() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir();
    let comms = || CommsConfig {
        faults: FaultConfig::parse("crash=1.0").expect("spec"),
        fault_seed: 13,
        min_quorum: 2,
        max_resamples: 1,
        ..CommsConfig::default()
    };
    let mut dumps: Vec<Vec<u8>> = Vec::new();
    for (i, threads) in [1usize, 1, 4].iter().enumerate() {
        let pm = dir.join(format!("fedgta-itp-pm-{}-{i}.jsonl", std::process::id()));
        fedgta_obs::recorder::arm_default();
        fedgta_obs::recorder::reset();
        let mut sim = build_sim(*threads, 2, Some(comms())).with_postmortem(pm.clone());
        let records = sim.run();
        fedgta_obs::recorder::disarm();
        // Every round skipped: nothing aggregated, but the run survived.
        assert!(records.iter().all(|r| r.participants_completed == 0));
        assert!(!sim.fault_events.is_empty());
        dumps.push(std::fs::read(&pm).expect("dump written"));
        let _ = std::fs::remove_file(&pm);
    }
    assert_eq!(dumps[0], dumps[1], "same seed, same threads: dumps must be byte-identical");
    assert_eq!(dumps[0], dumps[2], "same seed, different threads: dumps must be byte-identical");
    let text = String::from_utf8(dumps[0].clone()).expect("utf8");
    assert!(text.lines().next().unwrap().contains("\"reason\":\"quorum_fail\""));
    assert!(text.contains("\"fault_seed\":13"));
    assert!(text.contains("\"kind\":\"crash\""));
    assert!(text.contains("\"name\":\"round_skip\""));
    // The dump is a file of the trace schema: every line one known event.
    fedgta_obs::parse_trace(&text).expect("dump reads as a trace-schema file");
}

#[test]
fn rounds_elements_carry_the_round_span_keys() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let sink = MemorySink::new();
    fedgta_obs::init_writer(Box::new(sink.clone())).expect("install sink");
    fedgta_obs::set_level(ObsLevel::Trace);
    let server = fedgta_obs::serve::serve("127.0.0.1:0").expect("bind");
    build_sim(1, 2, None).run();
    let (_, rounds) = fedgta_obs::serve::http_get(server.addr(), "/rounds").expect("scrape");
    server.stop();
    fedgta_obs::shutdown();
    fedgta_obs::set_level(ObsLevel::Off);
    fedgta_obs::global().reset();
    // `[{..},{..}]` of flat objects; no value here holds a brace.
    let elements = rounds.trim_start_matches("[{").trim_end_matches("}]").split("},{");
    let events = fedgta_obs::parse_trace(&sink.contents()).expect("trace parses");
    let spans = events.iter().filter_map(|e| match e {
        fedgta_obs::TraceEvent::Span { name, fields, .. } if name == "round" => Some(fields),
        _ => None,
    });
    let pairs: Vec<_> = elements.zip(spans).collect();
    assert_eq!(pairs.len(), 2);
    for (element, span) in pairs {
        let element = fedgta_obs::parse_flat_object(&format!("{{{element}}}")).expect("parses");
        assert!(element.keys().eq(span.keys()), "{element:?} vs {span:?}");
        assert!(["mean_loss", "test_acc", "bytes_up_raw"].iter().all(|k| span.contains_key(*k)));
    }
}

#[test]
fn live_metrics_scrape_mid_run_is_valid_prometheus_text() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fedgta_obs::global().reset();
    fedgta_obs::set_level(ObsLevel::Metrics);
    let server = fedgta_obs::serve::serve("127.0.0.1:0").expect("bind");
    let addr = server.addr();
    let worker = std::thread::spawn(move || build_sim(2, 6, None).run());
    // Poll until the orchestrator has published at least one round (or
    // the run ends — the scrape assertions hold either way).
    let mut rounds_body = String::new();
    for _ in 0..600 {
        let (_, body) = fedgta_obs::serve::http_get(addr, "/rounds").expect("scrape /rounds");
        if body.contains("\"round\":1") {
            rounds_body = body;
            break;
        }
        if worker.is_finished() {
            rounds_body = fedgta_obs::serve::http_get(addr, "/rounds").expect("final").1;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let (status, metrics) = fedgta_obs::serve::http_get(addr, "/metrics").expect("scrape /metrics");
    let (hstatus, health) = fedgta_obs::serve::http_get(addr, "/healthz").expect("scrape /healthz");
    let records = worker.join().expect("sim thread");
    server.stop();
    fedgta_obs::set_level(ObsLevel::Off);
    fedgta_obs::global().reset();
    assert_eq!(records.len(), 6);
    assert!(rounds_body.contains("\"round\":1"), "/rounds published: {rounds_body}");
    assert!(status.contains("200"), "metrics status: {status}");
    assert!(hstatus.contains("200"));
    let h = fedgta_obs::parse_flat_object(health.trim()).expect("healthz parses");
    assert_eq!(h.get("status").and_then(|v| v.as_str()), Some("ok"));
    // Structural Prometheus check: namespaced TYPE lines with known
    // kinds; histogram buckets cumulative with `le` labels.
    let mut saw_counter = false;
    let mut saw_gauge = false;
    let mut saw_histogram = false;
    let mut bucket_cum: Option<u64> = None;
    for line in metrics.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().expect("name");
            let kind = it.next().expect("kind");
            assert!(name.starts_with("fedgta_"), "namespaced: {line}");
            match kind {
                "counter" => saw_counter = true,
                "histogram" => saw_histogram = true,
                "gauge" => saw_gauge = true,
                other => panic!("unknown kind {other}: {line}"),
            }
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample line");
        let value: f64 = value.parse().expect("numeric value");
        assert!(value >= 0.0);
        if let Some(idx) = series.find('{') {
            assert!(series[..idx].ends_with("_bucket"), "le implies _bucket: {line}");
            let bound = &series[idx + 5..series.len() - 2];
            assert!(bound == "+Inf" || bound.parse::<u64>().is_ok(), "le bound: {line}");
            if let Some(prev) = bucket_cum {
                assert!(value as u64 >= prev, "cumulative monotone: {line}");
            }
            bucket_cum = if bound == "+Inf" { None } else { Some(value as u64) };
        } else {
            bucket_cum = None;
        }
    }
    assert!(saw_counter, "at least one counter in: {metrics}");
    assert!(saw_gauge, "at least one gauge in: {metrics}");
    assert!(saw_histogram, "at least one histogram in: {metrics}");
    assert!(metrics.contains("fedgta_comms_upload_bytes"), "comms counters exported");
}
