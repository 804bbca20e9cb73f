//! Golden bytes of what the observability crate renders: every line of
//! `tests/golden/report.txt` is one rendering over a fixed fixture, pinned
//! by its length and the FNV-1a-64 hash of its bytes —
//! `render_report` over a two-round trace, `render_dump` over a postmortem
//! dump, the folded stacks of the same trace, `render_prometheus` over a
//! private registry and a flight-recorder dump.
//!
//! The trace has what the report's rare paths read: FedGTA decision fields
//! on both `aggregate` spans, both codec legs, every resource-peak gauge
//! but one zero, a NaN `test_acc` (written as `null`), concurrent children
//! that outlast their parent, a span whose parent is unknown, a two-span
//! parent cycle and a span that is its own parent.
//!
//! The flight recorder's ring is process-global, so this test has its own
//! binary and one test function.
//!
//! To re-bless after an intended change:
//! `FEDGTA_GOLDEN_BLESS=1 cargo test --test integration_golden_report`
//! and commit the diff (the header lines starting with `#` are kept).

use fedgta_obs::{recorder, JsonVal, ObsLevel, Registry, TraceEvent};

mod golden;

/// One golden line: a name, then the text's length and hash.
fn pin(name: &str, text: &str) -> String {
    format!("{name} len={} fnv={:016x}", text.len(), golden::fnv1a(text.bytes()))
}

fn span(name: &str, id: u64, parent: u64, dur_ns: u64, fields: &[(&str, JsonVal)]) -> TraceEvent {
    TraceEvent::Span {
        name: name.into(),
        id,
        parent,
        tid: 1 + id % 3,
        ts_ns: id * 1_000,
        dur_ns,
        fields: fields.iter().map(|(k, v)| (k.to_string(), v.clone())).collect(),
    }
}

fn metric(name: &str, kind: &str, value: u64) -> TraceEvent {
    TraceEvent::Metric {
        name: name.into(),
        kind: kind.into(),
        value,
        count: 0,
        p50: 0,
        p95: 0,
        max: 0,
    }
}

fn num(v: f64) -> JsonVal {
    JsonVal::Num(v)
}

/// A two-round FedGTA trace, written through `to_json` and read back.
fn trace() -> Vec<TraceEvent> {
    let client = |c: u64| [("client", num(c as f64))];
    let decision = |eps: f64, members: f64, above: f64, rejected: f64| {
        [
            ("epsilon", num(eps)),
            ("members_mean", num(members)),
            ("sim_above_eps", num(above)),
            ("rejected", num(rejected)),
        ]
    };
    let round = |r: f64, up: f64, completed: f64, dropped: f64, retries: f64, acc: f64| {
        vec![
            ("round", num(r)),
            ("strategy", JsonVal::from("FedGTA")),
            ("bytes_up", num(up)),
            ("bytes_down", num(81_920.0)),
            ("participants", num(3.0)),
            ("completed", num(completed)),
            ("dropped", num(dropped)),
            ("retries", num(retries)),
            ("test_acc", num(acc)),
        ]
    };
    let mut events = vec![TraceEvent::Meta {
        schema: fedgta_obs::TRACE_SCHEMA.into(),
        reason: None,
        round: 0,
        fault_seed: 0,
    }];
    events.extend([
        span("client_train", 3, 2, 2_400_000, &client(0)),
        span("lp", 6, 3, 400_000, &client(0)),
        span("client_train", 4, 2, 3_100_000, &client(1)),
        span("client_train", 5, 2, 700_000, &client(2)),
        span("train", 2, 1, 5_000_000, &[]),
        span("sample", 8, 1, 50_000, &[]),
        span("aggregate", 7, 1, 1_200_000, &decision(0.5, 2.0, 0.5, 0.0)),
        span("eval", 9, 1, 800_000, &[]),
        span("round", 1, 0, 9_000_000, &round(1.0, 40_960.0, 2.0, 1.0, 2.0, f64::NAN)),
        span("client_train", 22, 21, 1_900_000, &client(0)),
        span("client_train", 23, 21, 2_000_000, &client(2)),
        span("client_train", 24, 21, 1_000_000, &client(1)),
        span("train", 21, 20, 4_000_000, &[]),
        span("aggregate", 25, 20, 1_100_000, &decision(0.4375, 8.0 / 3.0, 5.0 / 6.0, 1.0)),
        span("eval", 26, 20, 900_000, &[]),
        span("round", 20, 0, 7_500_000, &round(2.0, 30_000.0, 3.0, 0.0, 0.0, 0.8125)),
        span("cycle", 30, 31, 100, &[]),
        span("cycle", 31, 30, 300, &[]),
        span("loop", 32, 32, 50, &[]),
        span("orphan", 40, 999, 1_000, &[]),
    ]);
    events.extend([
        metric("comms.upload_bytes", "counter", 70_960),
        metric("comms.upload_bytes_raw", "counter", 409_600),
        metric("comms.upload_bytes_encoded", "counter", 102_400),
        metric("comms.download_bytes_raw", "counter", 163_840),
        metric("comms.download_bytes_encoded", "counter", 40_960),
        metric("graph.store.resident_bytes", "gauge", 78_643_200),
        metric("workspace.high_water_bytes", "gauge", 524_288),
        metric("fedgta.metric_scratch.bytes", "gauge", 12_345),
        metric("fed.kits.instances", "gauge", 2),
        metric("fed.kits.bytes", "gauge", 3_145_728),
        metric("fed.clients.bytes", "gauge", 999_999),
        metric("fed.store.bytes", "gauge", 0),
        TraceEvent::Metric {
            name: "round.client.train_ns".into(),
            kind: "histogram".into(),
            value: 11_100_000,
            count: 6,
            p50: 2_097_152,
            p95: 4_194_304,
            max: 3_100_000,
        },
        TraceEvent::End,
    ]);
    let text: String = events.iter().map(|e| e.to_json() + "\n").collect();
    assert!(text.contains("\"test_acc\":null"), "NaN is written as null");
    let (read, damaged) = fedgta_obs::parse_events(&text);
    assert!(damaged.is_empty(), "{damaged:?}");
    read
}

/// A postmortem dump: header, spans and notes, faults and metrics.
fn dump() -> Vec<TraceEvent> {
    let reason = Some("quorum_fail".to_string());
    vec![
        TraceEvent::Meta {
            schema: fedgta_obs::TRACE_SCHEMA.into(),
            reason,
            round: 3,
            fault_seed: 7,
        },
        span("client_train", 0, 0, 0, &[("round", num(3.0)), ("client", num(1.0))]),
        span("round", 0, 0, 0, &[("round", num(2.0))]),
        TraceEvent::Note { name: "round_skip".into(), round: 3, value: 1 },
        TraceEvent::Note { name: "recorder.events".into(), round: 0, value: 12 },
        TraceEvent::Fault { round: 3, client: Some(2), kind: "crash".into(), sim_ms: 0 },
        TraceEvent::Fault { round: 3, client: None, kind: "quorum_fail".into(), sim_ms: 400 },
        metric("comms.retries", "counter", 5),
        TraceEvent::Metric {
            name: "round.client.train_ns".into(),
            kind: "histogram".into(),
            value: 0,
            count: 4,
            p50: 0,
            p95: 0,
            max: 0,
        },
        metric("workspace.high_water_bytes", "gauge", 0),
        TraceEvent::End,
    ]
}

#[test]
fn obs_renderings_match_golden() {
    let events = trace();
    let summary = fedgta_obs::summarize(&events);
    let mut got = vec![pin("render_report", &fedgta_obs::render_report(&summary))];
    got.push(pin("render_dump", &fedgta_obs::render_dump(&dump())));
    got.push(pin("render_folded", &fedgta_obs::render_folded(&summary)));

    fedgta_obs::set_level(ObsLevel::Metrics);
    let registry = Registry::new();
    registry.counter("golden.count").add(42);
    registry.gauge("golden.gauge").set(7);
    let hist = registry.histogram("golden.hist");
    for v in [0, 1, 17, 1_000, 5_000_000] {
        hist.observe(v);
    }
    registry.histogram("golden.empty");
    got.push(pin("render_prometheus", &registry.render_prometheus()));

    // An eight-slot ring given ten events: two are evicted, and the ring's
    // fault is left out for the complete fault log passed beside it.
    recorder::arm(8);
    recorder::reset();
    recorder::record_span_close("round", 1, recorder::NO_CLIENT, 9_000);
    for client in 0..4 {
        recorder::record_span_close("client_train", 2, client, 1_000 + client);
    }
    recorder::record_fault("up-drop", 2, 3, 120);
    recorder::record_note("round.completed", 2, 3);
    recorder::record_span_close("aggregate", 2, recorder::NO_CLIENT, 500);
    recorder::record_note("quorum_fail", 3, 1);
    recorder::record_span_close("round", 3, recorder::NO_CLIENT, 0);
    let fault_log =
        [TraceEvent::Fault { round: 2, client: Some(3), kind: "up-drop".into(), sim_ms: 120 }];
    got.push(pin(
        "dump_string",
        &recorder::dump_string("quorum_fail", 3, 7, Some(&fault_log), &registry),
    ));
    recorder::disarm();
    fedgta_obs::set_level(ObsLevel::Off);

    golden::check("report.txt", &got);
}
