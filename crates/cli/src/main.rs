//! `fedgta-cli` — command-line access to the FedGTA reproduction.
//!
//! ```text
//! fedgta-cli datasets
//! fedgta-cli inspect   --dataset cora [--seed 0]
//! fedgta-cli partition --dataset cora --method louvain --clients 10
//! fedgta-cli run       --dataset cora --strategy FedGTA --model gamlp
//!                      [--clients 10] [--rounds 30] [--epochs 3]
//!                      [--split louvain] [--participation 1.0] [--seed 0]
//!                      [--trace-out trace.jsonl]
//!                      [--metrics-out metrics.prom]
//!                      [--serve-metrics 127.0.0.1:9090]
//!                      [--postmortem-out crash.pm.jsonl]
//! fedgta-cli report    trace.jsonl [--folded out.folded]
//! fedgta-cli report    crash.pm.jsonl
//! ```
//!
//! The paper's tables and figures and the four microbenchmark suites are
//! `fedgta-bench`'s `repro` binary, not subcommands here.

mod args;
mod commands;

use args::Args;
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match Args::parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            commands::print_help();
            return ExitCode::FAILURE;
        }
    };
    let result = match parsed.command.as_str() {
        "datasets" => commands::datasets(),
        "inspect" => commands::inspect(&parsed),
        "partition" => commands::partition(&parsed),
        "run" => commands::run(&parsed),
        "report" => commands::report(&parsed),
        "help" | "--help" | "-h" => {
            commands::print_help();
            Ok(())
        }
        other => {
            eprintln!("error: unknown subcommand '{other}'");
            commands::print_help();
            return ExitCode::FAILURE;
        }
    };
    match result.and_then(|()| Ok(parsed.reject_unread()?)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
