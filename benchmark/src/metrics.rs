//! The metric lists (`BENCHMARK.json` repeats them, with the bounds) and
//! the result line.

use crate::json::Json;
use crate::staged::STAGES;

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

fn def(name: &str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
    }
}

/// What a user of the system sees, per workload (untraced run).
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("setup_s", "s", "lower"),
        def("round_ms_min", "ms", "lower"),
        def("run_s", "s", "lower"),
        def("final_acc", "fraction", "higher"),
        def("wire_bytes_per_round", "bytes", "lower"),
        def("peak_rss_mib", "MiB", "lower"),
    ]
}

/// What single layers do, per workload (traced run). Layers are the
/// crates — `data`, `partition`, `graph`, `nn`, `core`, `fed` — plus
/// `process` for what the OS sees and `trace` for the validity of the
/// rest.
pub fn per_layer() -> Vec<MetricDef> {
    let mut v = vec![
        def("data.load_s", "s", "lower"),
        def("partition.split_s", "s", "lower"),
        def("fed.build_clients_s", "s", "lower"),
        def("fed.warmup_s", "s", "lower"),
        def("graph.store.bytes_read", "bytes", "lower"),
        def("graph.store.tile_reads", "count", "lower"),
    ];
    for stage in STAGES {
        v.push(def(&format!("{stage}.ms_p50"), "ms", "lower"));
        v.push(def(&format!("{stage}.share"), "fraction", "lower"));
    }
    v.extend([
        def("core.similarity.ms_p50", "ms", "lower"),
        def("core.aggregate.gbps", "GB/s", "higher"),
        def("core.aggregate.axpy_flops_per_round", "count", "lower"),
        def("core.aggregate.members_mean", "count", "higher"),
        def("nn.matmul.gflops", "GFLOP/s", "higher"),
        def("nn.matmul_tn.gflops", "GFLOP/s", "higher"),
        def("nn.matmul_nt.gflops", "GFLOP/s", "higher"),
        def("graph.spmm.gflops", "GFLOP/s", "higher"),
        def("nn.matmul.flops_per_round", "count", "lower"),
        def("graph.spmm.flops_per_round", "count", "lower"),
        def("fed.round_samples", "count", "higher"),
        def("fed.round_ms_p50", "ms", "lower"),
        def("fed.round_ms_tail", "ms", "lower"),
        def("fed.round_tail_pct", "%", "higher"),
        def("fed.round_ms_min", "ms", "lower"),
        def("fed.round_ms_max", "ms", "lower"),
        def("fed.eval_ms_p50", "ms", "lower"),
        def("fed.rounds_to_acc", "rounds", "lower"),
        def("fed.time_to_acc_s", "s", "lower"),
        def("fed.upload_bytes_raw_per_round", "bytes", "lower"),
        def("fed.upload_bytes_encoded_per_round", "bytes", "lower"),
        def("fed.download_bytes_raw_per_round", "bytes", "lower"),
        def("fed.download_bytes_encoded_per_round", "bytes", "lower"),
        def("fed.codec.wire_reduction", "ratio", "higher"),
        def("fed.retries_per_round", "count", "lower"),
        def("fed.participants_dropped_share", "fraction", "lower"),
        def("fed.rounds_skipped", "count", "lower"),
        def("process.cpu_user_s", "s", "lower"),
        def("process.cpu_sys_s", "s", "lower"),
        def("process.minor_faults", "count", "lower"),
        def("process.voluntary_ctx_switches", "count", "lower"),
        def("process.allocs_per_round", "count", "lower"),
        def("process.alloc_bytes_per_round", "bytes", "lower"),
        def("trace.coverage_pct", "%", "higher"),
        def("trace.overhead_pct", "%", "lower"),
        def("trace.spans", "count", "lower"),
    ]);
    v
}

/// Measured values by metric name, in the order they were set.
#[derive(Default)]
pub struct Values(Vec<(String, f64)>);

impl Values {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.push((name.into(), value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// What one run of a workload, traced or not, hands to the result line.
pub struct Outcome {
    pub values: Values,
    /// One line per correctness check that failed; empty = correct.
    pub failed_checks: Vec<String>,
    /// Sampled client-rounds, and those that never reached an aggregate.
    pub attempted: u64,
    pub failed: u64,
}

/// The result object: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter holding exactly the metrics of `defs`.
///
/// # Panics
///
/// Panics when a value is missing or not finite — a harness bug, and a
/// result line with a hole would be refused anyway.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &Values,
) -> Json {
    assert_eq!(
        values.0.len(),
        defs.len(),
        "a metric was set that the list does not name"
    );
    let metrics = defs.iter().map(|d| {
        let v = values
            .get(&d.name)
            .unwrap_or_else(|| panic!("metric {} was never set", d.name));
        assert!(v.is_finite(), "metric {} is not finite", d.name);
        (
            d.name.clone(),
            Json::obj([("value", Json::Num(v)), ("unit", Json::Str(d.unit.into()))]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}

/// The human-readable table printed before the result line.
pub fn render_table(defs: &[MetricDef], values: &Values) -> String {
    let mut out = String::new();
    for d in defs {
        let v = values.get(&d.name).unwrap_or(f64::NAN);
        out.push_str(&format!("  {:<40} {:>16.6} {}\n", d.name, v, d.unit));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The contract's rule: a name starts with a letter or digit and is
    /// made of at most 64 letters, digits, `_`, `.` and `-`.
    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name.chars().all(ok)
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn names_follow_the_contract() {
        for ok in ["setup_s", "nn.matmul_tn.gflops", "a", "9lives", "x-y.z_0"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            ".hidden",
            "_x",
            "-x",
            "has space",
            "ünï",
            "a/b",
            "a%",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"a".repeat(64)));
    }

    #[test]
    fn every_metric_and_workload_name_is_valid_and_unique() {
        let mut names: Vec<String> = end_to_end()
            .into_iter()
            .chain(per_layer())
            .map(|d| d.name)
            .collect();
        names.extend(crate::workloads::all().iter().map(|w| w.name.to_string()));
        assert!(names.iter().all(|n| valid_name(n)));
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
        assert!(per_layer().len() <= 128);
        assert!(end_to_end()
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == "lower"));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let defs = vec![def("setup_s", "s", "lower"), def("run_s", "s", "lower")];
        let mut values = Values::default();
        values.set("run_s", 2.5);
        values.set("setup_s", 0.25);
        let j = result_json(true, 10, 0, &defs, &values);
        let keys: Vec<&str> = j
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = j.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m[0].0, "setup_s");
        assert_eq!(m[0].1.get("value").unwrap().as_f64(), Some(0.25));
        assert_eq!(m[0].1.get("unit").unwrap().as_str(), Some("s"));
    }

    #[test]
    #[should_panic(expected = "never set")]
    fn a_missing_metric_is_a_bug() {
        let mut values = Values::default();
        values.set("other", 1.0);
        result_json(true, 1, 0, &[def("setup_s", "s", "lower")], &values);
    }
}
