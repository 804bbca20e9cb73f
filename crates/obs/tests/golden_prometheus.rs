//! Golden-file test for the Prometheus text exposition.
//!
//! The `/metrics` endpoint is scraped by external tooling, so its format
//! is a wire contract, not an implementation detail: histograms must be
//! proper cumulative `_bucket{le="..."}` / `_sum` / `_count` series with
//! monotone counts, and `le` bounds must be the *exact* inclusive upper
//! bounds of the log2 grid (`2^i - 1`; bucket 0 holds zeros → `le="0"`).
//! Any intentional change re-records `tests/golden/exposition.prom`.

use fedgta_obs::{set_level, ObsLevel, Registry};

const GOLDEN: &str = include_str!("golden/exposition.prom");

/// Serializes the global-level flips across this binary's tests.
static LEVEL_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn golden_registry() -> Registry {
    let _g = LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let reg = Registry::new();
    set_level(ObsLevel::Metrics);
    reg.counter("comms.upload_bytes").add(12345);
    reg.gauge("graph.store.resident_bytes").set(65536);
    let h = reg.histogram("round.ns");
    for v in [0u64, 1, 3, 17, 1000] {
        h.observe(v);
    }
    set_level(ObsLevel::Off);
    reg
}

#[test]
fn exposition_matches_golden_file() {
    let rendered = golden_registry().render_prometheus();
    assert_eq!(
        rendered, GOLDEN,
        "Prometheus exposition drifted from tests/golden/exposition.prom; \
         if the change is intentional, re-record the golden file"
    );
}

#[test]
fn exposition_is_structurally_valid_prometheus_text() {
    let rendered = golden_registry().render_prometheus();
    let mut bucket_cum: Option<u64> = None;
    for line in rendered.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().expect("TYPE line has a metric name");
            let kind = it.next().expect("TYPE line has a kind");
            assert!(name.starts_with("fedgta_"), "namespaced: {line}");
            assert!(matches!(kind, "counter" | "gauge" | "histogram"), "known kind: {line}");
            continue;
        }
        // Sample line: `name value` or `name{le="bound"} value`.
        let (series, value) = line.rsplit_once(' ').expect("sample line: {line}");
        let value: f64 = value.parse().unwrap_or_else(|_| panic!("numeric value in {line}"));
        assert!(value >= 0.0);
        if let Some(idx) = series.find('{') {
            let labels = &series[idx..];
            assert!(
                labels.starts_with("{le=\"") && labels.ends_with("\"}"),
                "only le labels are emitted: {line}"
            );
            assert!(series[..idx].ends_with("_bucket"), "le implies _bucket: {line}");
            let bound = &labels[5..labels.len() - 2];
            assert!(
                bound == "+Inf" || bound.parse::<u64>().is_ok(),
                "le bound numeric or +Inf: {line}"
            );
            // Cumulative counts never decrease within a series.
            if let Some(prev) = bucket_cum {
                assert!(value as u64 >= prev, "cumulative monotone: {line}");
            }
            bucket_cum = if bound == "+Inf" { None } else { Some(value as u64) };
        } else {
            bucket_cum = None;
        }
    }
}
