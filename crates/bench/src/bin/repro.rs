//! `repro` — the one entry point to every table, figure and microbenchmark.
//!
//! ```text
//! repro <table1..table6|fig1|fig3..fig6|extensions>   one artefact to stdout
//! repro all            every artefact; rewrites results/<id>.txt, and
//!                      results/claims.{json,md} unless a verdict flipped
//! repro kernels   [--out f.json]
//! repro aggregate [--out f.json]
//! repro comms     [--out f.json] [--dataset d] [--rounds n] [--clients n]
//! repro scale     [--out f.json]
//! ```
//!
//! Quick grids are the default; `--full` selects the paper-scale protocol
//! and the suites' full grids with their acceptance bars. An artefact run
//! judges its claims; a quick one exits non-zero when a verdict differs
//! from the one `results/claims.json` records (`FEDGTA_GOLDEN_BLESS=1 repro
//! all` records the new verdicts instead), a `--full` one is printed and
//! judged but neither compared with that quick-mode record nor written. The counting allocator is installed
//! here, once, for the `allocs` columns of `kernels` and `aggregate`.

use fedgta_bench::alloc::{alloc_count, CountingAlloc};
use fedgta_bench::repro::{self, Artefact, ARTEFACTS};
use fedgta_bench::{aggregate, comms, kernels, scale};
use std::collections::BTreeMap;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const SUITES: [&str; 4] = ["kernels", "aggregate", "comms", "scale"];

fn usage() -> String {
    let ids: Vec<&str> = ARTEFACTS.iter().map(|a| a.id).collect();
    format!("usage: repro <{}|all|{}> [--full] [--out <file>]", ids.join("|"), SUITES.join("|"))
}

fn parsed<T: std::str::FromStr>(
    flags: &BTreeMap<String, String>,
    flag: &str,
) -> Result<Option<T>, String> {
    let parse = |v: &String| v.parse().map_err(|_| format!("cannot parse '{v}' for {flag}"));
    flags.get(flag).map(parse).transpose()
}

/// One microbenchmark suite: table to stdout, JSON to `--out`, then its bars.
fn suite(name: &str, quick: bool, flags: &BTreeMap<String, String>) -> Result<(), String> {
    let emit = |table: String, json: String| -> Result<(), String> {
        print!("{table}");
        if let Some(out) = flags.get("--out") {
            std::fs::write(out, json).map_err(|e| format!("cannot write {out}: {e}"))?;
            println!("wrote {out}");
        }
        Ok(())
    };
    match name {
        "kernels" => {
            let r = kernels::run(quick, Some(alloc_count));
            emit(kernels::render_table(&r), kernels::to_json(&r))?;
            kernels::bars(&r)
        }
        "aggregate" => {
            let r = aggregate::run(quick, Some(alloc_count));
            emit(aggregate::render_table(&r), aggregate::to_json(&r))?;
            aggregate::bars(&r)
        }
        "comms" => {
            let over = comms::Overrides {
                dataset: flags.get("--dataset").cloned(),
                rounds: parsed(flags, "--rounds")?,
                clients: parsed(flags, "--clients")?,
            };
            let r = comms::run(quick, &over);
            emit(comms::render_table(&r), comms::to_json(&r))
        }
        _ => {
            let r = scale::run(quick);
            emit(scale::render_table(&r), scale::to_json(&r))
        }
    }
}

/// Artefacts: text to stdout, verdicts to stderr and against the record.
fn artefacts(chosen: &[&'static Artefact], all: bool, full: bool) -> Result<(), String> {
    let report = repro::run(chosen, full);
    for (_, text) in &report.texts {
        print!("{text}");
    }
    for (_, claim, v) in &report.verdicts {
        eprintln!("[claim] {} {:?}: {}", claim.id, v.holds, v.measured);
    }
    if full {
        return Ok(());
    }
    let write = |name: &str, text: &str| {
        let path = format!("results/{name}");
        std::fs::write(&path, text).map_err(|e| format!("cannot write {path}: {e}"))
    };
    if all {
        std::fs::create_dir_all("results").map_err(|e| format!("cannot create results/: {e}"))?;
        for (id, text) in &report.texts {
            write(&format!("{id}.txt"), text)?;
        }
    }
    let flips = report.flipped(&std::fs::read_to_string("results/claims.json").unwrap_or_default());
    let bless = std::env::var_os("FEDGTA_GOLDEN_BLESS").is_some();
    if !flips.is_empty() && !bless {
        return Err(format!(
            "{} verdict(s) differ from results/claims.json (FEDGTA_GOLDEN_BLESS=1 repro all records them):\n  {}",
            flips.len(),
            flips.join("\n  ")
        ));
    }
    if all {
        write("claims.json", &report.to_json())?;
        write("claims.md", &report.to_markdown())?;
    }
    Ok(())
}

fn run(args: Vec<String>) -> Result<(), String> {
    let mut args = args.into_iter();
    let target = args.next().ok_or_else(usage)?;
    let (mut full, mut flags) = (false, BTreeMap::new());
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => full = true,
            "--out" | "--dataset" | "--rounds" | "--clients" => {
                let value = args.next().ok_or_else(|| format!("{arg} needs a value"))?;
                flags.insert(arg, value);
            }
            other => return Err(format!("unknown argument '{other}'\n{}", usage())),
        }
    }
    if SUITES.contains(&target.as_str()) {
        return suite(&target, !full, &flags);
    }
    if let Some(flag) = flags.keys().next() {
        return Err(format!("{flag} belongs to the suites; '{target}' takes only --full"));
    }
    let chosen: Vec<&'static Artefact> =
        ARTEFACTS.iter().filter(|a| target == "all" || a.id == target).collect();
    if chosen.is_empty() {
        return Err(format!("unknown target '{target}'\n{}", usage()));
    }
    artefacts(&chosen, target == "all", full)
}

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
