//! Drives the built `benchmark` binary the way the driver does, in
//! `--smoke` mode (3 measured rounds per block), and holds
//! `BENCHMARK.json` to the harness's own metric and workload lists.

use fedgta_benchmark::json::Json;
use fedgta_benchmark::{metrics, workloads};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_benchmark");

fn spec() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("valid JSON")
}

fn run(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .env_remove("FEDGTA_THREADS")
        .output()
        .expect("benchmark binary runs")
}

/// The last stdout line of a successful run, parsed.
fn result_of(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "exit {:?}\n{stdout}\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    Json::parse(stdout.lines().last().expect("a result line")).expect("the last line is JSON")
}

/// Checks the result object against the contract: exactly the four
/// keys, a correct run without failures, exactly `expected`'s metrics.
fn check_result(result: &Json, expected: &[metrics::MetricDef]) {
    let keys: Vec<&str> = result
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert!(result.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
    assert_eq!(result.get("failed").unwrap().as_f64(), Some(0.0));
    let got = result.get("metrics").unwrap().as_obj().unwrap();
    assert_eq!(got.len(), expected.len());
    for ((name, m), def) in got.iter().zip(expected) {
        assert_eq!(name, &def.name);
        assert_eq!(m.get("unit").unwrap().as_str(), Some(def.unit));
        assert!(
            m.get("value").unwrap().as_f64().unwrap().is_finite(),
            "{name}"
        );
    }
}

#[test]
fn every_workload_passes_its_traced_smoke_run() {
    // One process per workload, as the driver runs them; side by side
    // here because smoke timings are not read.
    std::thread::scope(|s| {
        for w in workloads::all() {
            s.spawn(move || {
                let result = result_of(&run(&["--workload", w.name, "--smoke", "--trace", "1"]));
                check_result(&result, &metrics::per_layer());
                let metric = |name: &str| {
                    result
                        .get("metrics")
                        .unwrap()
                        .get(name)
                        .unwrap()
                        .get("value")
                        .unwrap()
                        .as_f64()
                        .unwrap()
                };
                assert!(metric("trace.coverage_pct") >= 95.0, "{}", w.name);
                // Wire stages run on the wire workload and nowhere else.
                assert_eq!(metric("fed.codec_encode.share") > 0.0, w.wire, "{}", w.name);
                assert_eq!(
                    metric("fed.codec.wire_reduction") > 1.0,
                    w.wire,
                    "{}",
                    w.name
                );
                assert_eq!(
                    metric("graph.store.tile_reads") > 0.0,
                    w.name == "sbm1m_sgc_disk",
                    "{}",
                    w.name
                );
            });
        }
    });
}

#[test]
fn an_untraced_smoke_run_prints_the_end_to_end_metrics() {
    let out = run(&["--workload", "cora_gcn_wire", "--smoke", "--seed", "7"]);
    check_result(&result_of(&out), &metrics::end_to_end());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for key in [
        "threads_outer",
        "threads_kernel",
        "nproc",
        "cpu_model",
        "rustc",
        "target_cpu",
        "commit",
    ] {
        assert!(stdout.contains(key), "environment line lacks {key}");
    }
}

#[test]
fn a_conflicting_thread_policy_is_refused() {
    let out = Command::new(BIN)
        .args(["--workload", "cora_gcn_wire", "--smoke"])
        .env("FEDGTA_THREADS", "4")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("FEDGTA_THREADS=4"));
    assert!(out.stdout.is_empty(), "no result may be printed");
    // The pinned value itself is accepted.
    let ok = Command::new(BIN)
        .args(["--workload", "cora_gcn_wire", "--smoke"])
        .env("FEDGTA_THREADS", "1")
        .output()
        .unwrap();
    assert!(ok.status.success());
}

#[test]
fn bad_arguments_exit_with_usage() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload"],
        &["--trace", "1"],
        &["compare", "only-one"],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty());
    }
}

#[test]
fn benchmark_json_lists_what_the_harness_measures() {
    let spec = spec();
    let keys: Vec<&str> = spec
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let listed = |key: &str, fields: &[&str]| -> Vec<Vec<String>> {
        spec.get(key)
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|m| {
                fields
                    .iter()
                    .map(|f| m.get(f).unwrap().as_str().unwrap().to_string())
                    .collect()
            })
            .collect()
    };
    let defs = |d: Vec<metrics::MetricDef>| -> Vec<Vec<String>> {
        d.into_iter()
            .map(|d| vec![d.name, d.unit.to_string(), d.better.to_string()])
            .collect()
    };
    assert_eq!(
        listed("end_to_end", &["name", "unit", "better"]),
        defs(metrics::end_to_end())
    );
    assert_eq!(
        listed("per_layer", &["name", "unit", "better"]),
        defs(metrics::per_layer())
    );
    let workloads: Vec<Vec<String>> = workloads::all()
        .iter()
        .filter(|w| w.listed)
        .map(|w| vec![w.name.to_string(), w.why.to_string()])
        .collect();
    assert_eq!(listed("workloads", &["name", "why"]), workloads);

    for m in spec.get("end_to_end").unwrap().as_arr().unwrap() {
        let bound = m.get("bound").unwrap().as_f64().unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
    }
    assert!(workloads::all()
        .iter()
        .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
}
