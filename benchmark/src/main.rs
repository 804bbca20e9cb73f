//! The FedGTA benchmark: one workload per process, untraced for the
//! end-to-end metrics or traced for the per-layer ones.
//!
//! ```text
//! benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out runs.jsonl]
//! benchmark compare <a.jsonl> <b.jsonl> [--spec BENCHMARK.json]
//! ```
//!
//! The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; everything a reader
//! wants besides (environment, metric table, failed checks) precedes it.
//! See `README.md` for what each metric means and why each workload
//! exists.

use fedgta_benchmark::json::Json;
use fedgta_benchmark::{alloc, compare, env, metrics, run, trace, workloads};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

const DEFAULT_SEED: u64 = 1;
/// Rounds per block under `--smoke`: enough to cross every code path.
const SMOKE_ROUNDS: usize = 3;
/// Blocks an untraced run measures at least: `setup_s` is their median.
/// A smoke run keeps two, the fewest that can disagree on a seed.
const MIN_BLOCKS: usize = 3;
const SMOKE_BLOCKS: usize = 2;

const USAGE: &str = "usage: benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out runs.jsonl]
       benchmark compare <a.jsonl> <b.jsonl> [--spec BENCHMARK.json]";

/// `--key value` flags plus positionals; `--smoke` takes no value.
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
    smoke: bool,
}

impl Args {
    fn parse(argv: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut a = Args {
            positional: Vec::new(),
            flags: Vec::new(),
            smoke: false,
        };
        let mut it = argv;
        while let Some(tok) = it.next() {
            match tok.strip_prefix("--") {
                Some("smoke") => a.smoke = true,
                Some(key) => {
                    let value = it.next().ok_or(format!("--{key} needs a value"))?;
                    a.flags.push((key.to_string(), value));
                }
                None => a.positional.push(tok),
            }
        }
        Ok(a)
    }

    fn flag(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.flag(key) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("cannot parse '{v}' for --{key}")),
            None => Ok(default),
        }
    }
}

fn run_workload(args: &Args) -> Result<bool, String> {
    let name = args.flag("workload").ok_or(USAGE)?;
    let w = workloads::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = workloads::all().iter().map(|w| w.name).collect();
        format!("unknown workload '{name}' (one of: {})", names.join(", "))
    })?;
    let seed: u64 = args.num("seed", DEFAULT_SEED)?;
    let seconds: f64 = args.num("seconds", 40.0)?;
    let traced = match args.num("trace", 0u8)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let (rounds, seconds, min_blocks) = if args.smoke {
        (SMOKE_ROUNDS, 0.0, SMOKE_BLOCKS)
    } else {
        (w.rounds, seconds, MIN_BLOCKS)
    };

    env::pin_threads()?;
    if env::nproc() < w.threads_outer {
        eprintln!(
            "warning: {} wants {} worker threads but only {} CPUs are available; its timings are not comparable",
            w.name,
            w.threads_outer,
            env::nproc()
        );
    }
    // Scratch files (the streamed graph, the span dump) go next to the
    // executable: inside the build directory, so inside the checkout.
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
    let scratch = exe
        .parent()
        .ok_or("executable has no directory")?
        .join("bench-scratch");
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;

    let environment = env::describe(&w);
    println!("workload {}: {}", w.name, w.why);
    println!(
        "seed {seed} trace {} env {}",
        traced as u8,
        environment.render()
    );
    let (defs, outcome) = if traced {
        (
            metrics::per_layer(),
            trace::run_traced(&w, seed, rounds, seconds, &scratch),
        )
    } else {
        (
            metrics::end_to_end(),
            run::run_untraced(&w, seed, rounds, seconds, min_blocks, &scratch),
        )
    };
    print!("{}", metrics::render_table(&defs, &outcome.values));
    for check in &outcome.failed_checks {
        println!("FAILED CHECK {check}");
    }
    let correct = outcome.failed_checks.is_empty();
    let result = metrics::result_json(
        correct,
        outcome.attempted,
        outcome.failed,
        &defs,
        &outcome.values,
    );
    if let Some(path) = args.flag("out") {
        let record = Json::obj([
            ("workload", Json::Str(w.name.into())),
            ("seed", Json::Num(seed as f64)),
            ("trace", Json::Num(traced as u8 as f64)),
            ("env", environment),
            ("result", result.clone()),
        ]);
        use std::io::Write as _;
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{}", record.render()))
            .map_err(|e| format!("cannot append to {path}: {e}"))?;
    }
    println!("{}", result.render());
    Ok(correct)
}

fn run_compare(args: &Args) -> Result<bool, String> {
    let [_, a, b] = args.positional.as_slice() else {
        return Err(USAGE.into());
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    let spec = read(args.flag("spec").unwrap_or("BENCHMARK.json"))?;
    let (table, any_worse) = compare::compare(&spec, &read(a)?, &read(b)?)?;
    print!("{table}");
    Ok(!any_worse)
}

fn main() -> ExitCode {
    let outcome = Args::parse(std::env::args().skip(1)).and_then(|args| {
        if args.positional.first().map(String::as_str) == Some("compare") {
            run_compare(&args)
        } else if args.positional.is_empty() {
            run_workload(&args)
        } else {
            Err(USAGE.into())
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}
