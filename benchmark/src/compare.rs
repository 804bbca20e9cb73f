//! `benchmark compare <a.jsonl> <b.jsonl>`: are two sets of runs the same
//! within the bounds `BENCHMARK.json` fixes?
//!
//! Each input is the file `--out` appends to: one JSON object per run,
//! holding the workload name and the result line. `a` is the baseline
//! (the parent commit, or the first set of runs of the same code), `b`
//! the candidate.

use crate::json::Json;
use crate::stats::{median, spread};
use std::collections::BTreeMap;

/// Bound and direction of one end-to-end metric, from `BENCHMARK.json`.
struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn load_bounds(spec: &Json) -> Result<Vec<Bound>, String> {
    let list = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("spec has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?
                .to_string();
            let better = m
                .get("better")
                .and_then(Json::as_str)
                .ok_or("metric without a direction")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without a bound")?;
            Ok(Bound {
                name,
                lower_is_better: better == "lower",
                bound,
            })
        })
        .collect()
}

/// One set of runs: per workload, per metric, the value of every run;
/// plus the operations attempted and failed over all runs.
#[derive(Default)]
struct RunSet {
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    ops: BTreeMap<String, (f64, f64)>,
}

fn load_runs(text: &str) -> Result<RunSet, String> {
    let mut set = RunSet::default();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = Json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let field = |k: &str| rec.get(k).ok_or(format!("line {}: no '{k}'", n + 1));
        if field("trace")?.as_f64() != Some(0.0) {
            continue; // traced runs carry no end-to-end metrics
        }
        let workload = field("workload")?
            .as_str()
            .ok_or("workload is not a string")?
            .to_string();
        let result = field("result")?;
        let num = |k: &str| {
            result
                .get(k)
                .and_then(Json::as_f64)
                .ok_or(format!("line {}: result has no '{k}'", n + 1))
        };
        let ops = set.ops.entry(workload.clone()).or_default();
        ops.0 += num("attempted")?;
        ops.1 += num("failed")?;
        let metrics = result
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("result has no metrics")?;
        let per_metric = set.values.entry(workload).or_default();
        for (name, m) in metrics {
            let v = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or(format!("metric {name} has no value"))?;
            per_metric.entry(name.clone()).or_default().push(v);
        }
    }
    Ok(set)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The run-to-run spread is wider than the bound, so "no worse"
    /// cannot be told from "worse".
    Unresolved,
}

/// The rule of the choosing-metrics guide: `b` is worse when its median
/// is worse than `a`'s by more than `bound` (a share of `a`'s median);
/// when either side's quartile spread exceeds the bound the row is
/// unresolved, unless every run of `b` reads better than every run of `a`.
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let worse_by = if lower_is_better { mb - ma } else { ma - mb };
    let all_better = if lower_is_better {
        b.iter().copied().fold(f64::MIN, f64::max) < a.iter().copied().fold(f64::MAX, f64::min)
    } else {
        b.iter().copied().fold(f64::MAX, f64::min) > a.iter().copied().fold(f64::MIN, f64::max)
    };
    if spread(a).max(spread(b)) > bound && !all_better {
        Verdict::Unresolved
    } else if worse_by > bound * ma.abs() {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Renders the comparison table; the flag says whether anything is
/// worse (a metric beyond its bound, or a larger share of failed
/// operations).
pub fn compare(spec_text: &str, a_text: &str, b_text: &str) -> Result<(String, bool), String> {
    let bounds = load_bounds(&Json::parse(spec_text)?)?;
    let (a, b) = (load_runs(a_text)?, load_runs(b_text)?);
    let mut out = format!(
        "{:<20} {:<22} {:>4} {:>14} {:>14} {:>9} {:>7}  verdict\n",
        "workload", "metric", "runs", "a median", "b median", "delta", "bound"
    );
    let mut any_worse = false;
    for (workload, a_metrics) in &a.values {
        let Some(b_metrics) = b.values.get(workload) else {
            out.push_str(&format!("{workload:<20} missing from b\n"));
            any_worse = true;
            continue;
        };
        for bd in &bounds {
            let (Some(xa), Some(xb)) = (a_metrics.get(&bd.name), b_metrics.get(&bd.name)) else {
                return Err(format!("{workload}: metric {} missing from a run", bd.name));
            };
            let verdict = judge(xa, xb, bd.lower_is_better, bd.bound);
            any_worse |= verdict == Verdict::Worse;
            let (ma, mb) = (median(xa), median(xb));
            out.push_str(&format!(
                "{workload:<20} {:<22} {:>4} {ma:>14.4} {mb:>14.4} {:>+8.2}% {:>6.1}%  {}\n",
                bd.name,
                format!("{}/{}", xa.len(), xb.len()),
                100.0 * (mb - ma) / ma.abs().max(f64::MIN_POSITIVE),
                100.0 * bd.bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                },
            ));
        }
        let share = |ops: &(f64, f64)| ops.1 / ops.0.max(1.0);
        let (fa, fb) = (share(&a.ops[workload]), share(&b.ops[workload]));
        if fb > fa {
            out.push_str(&format!(
                "{workload:<20} failed share rose from {fa:.6} to {fb:.6}: worse\n"
            ));
            any_worse = true;
        }
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_follows_the_bound_and_the_spread() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        // Within the bound either way.
        assert_eq!(
            judge(&a, &[10.5, 10.4, 10.6, 10.5, 10.45], true, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            judge(&a, &[9.0, 9.1, 8.9, 9.0, 9.05], true, 0.10),
            Verdict::Ok
        );
        // 20 % slower against a 10 % bound.
        assert_eq!(
            judge(&a, &[12.0, 12.1, 11.9, 12.0, 12.05], true, 0.10),
            Verdict::Worse
        );
        // The same numbers for a higher-is-better metric: 20 % better.
        assert_eq!(
            judge(&a, &[12.0, 12.1, 11.9, 12.0, 12.05], false, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            judge(&a, &[8.0, 8.1, 7.9, 8.0, 8.05], false, 0.10),
            Verdict::Worse
        );
        // Noisy candidate overlapping the baseline: cannot tell.
        let noisy = [8.0, 14.0, 9.0, 13.0, 10.0];
        assert_eq!(judge(&a, &noisy, true, 0.10), Verdict::Unresolved);
        // Noisy, but every run beats every baseline run.
        assert_eq!(
            judge(&a, &[3.0, 6.0, 4.0, 7.0, 5.0], true, 0.10),
            Verdict::Ok
        );
        // Identical deterministic values, zero bound.
        assert_eq!(judge(&[5.0; 3], &[5.0; 3], true, 0.0), Verdict::Ok);
        assert_eq!(judge(&[5.0; 3], &[5.5; 3], true, 0.0), Verdict::Worse);
    }

    fn run_line(workload: &str, trace: u8, failed: u64, setup: f64) -> String {
        format!(
            "{{\"workload\":\"{workload}\",\"seed\":1,\"trace\":{trace},\"result\":{{\"correct\":true,\"attempted\":100,\"failed\":{failed},\"metrics\":{{\"setup_s\":{{\"value\":{setup},\"unit\":\"s\"}}}}}}}}\n"
        )
    }

    const SPEC: &str =
        r#"{"end_to_end":[{"name":"setup_s","unit":"s","better":"lower","bound":0.25}]}"#;

    #[test]
    fn compare_reads_run_files_and_flags_regressions() {
        let a: String = [1.0, 1.02, 0.98]
            .iter()
            .map(|&s| run_line("w1", 0, 0, s))
            .collect();
        let same: String = [1.01, 0.99, 1.0]
            .iter()
            .map(|&s| run_line("w1", 0, 0, s))
            .collect();
        let (table, worse) = compare(SPEC, &a, &same).unwrap();
        assert!(!worse, "{table}");
        assert!(table.contains("w1") && table.contains("setup_s") && table.contains(" ok"));

        let slow: String = [1.5, 1.52, 1.48]
            .iter()
            .map(|&s| run_line("w1", 0, 0, s))
            .collect();
        let (table, worse) = compare(SPEC, &a, &slow).unwrap();
        assert!(worse && table.contains("worse"), "{table}");

        // More failed operations is worse even when every metric holds.
        let failing: String = [1.0, 1.0, 1.0]
            .iter()
            .map(|&s| run_line("w1", 0, 3, s))
            .collect();
        let (table, worse) = compare(SPEC, &a, &failing).unwrap();
        assert!(worse && table.contains("failed share"), "{table}");

        // Traced runs are skipped; a workload missing from b is flagged.
        let traced_only = run_line("w1", 1, 0, 1.0);
        assert!(compare(SPEC, &a, &traced_only).unwrap().1);
        assert!(compare(SPEC, "not json\n", &a).is_err());
    }
}
