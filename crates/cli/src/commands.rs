//! Subcommand implementations.

use crate::args::Args;
use fedgta_bench::{partition_benchmark, strategy_named, SplitKind, STRATEGY_NAMES};
use fedgta_data::{load_benchmark, Benchmark, SPECS};
use fedgta_fed::client::{build_clients, ClientBuildConfig};
use fedgta_fed::faults::FaultConfig;
use fedgta_fed::round::{best_accuracy, CommsConfig, SimConfig, Simulation};
use fedgta_fed::CodecSpec;
use fedgta_graph::metrics::{degree_stats, edge_homophily};
use fedgta_nn::models::{ModelConfig, ModelKind};
use fedgta_obs::{TraceEvent, TraceSummary};
use std::error::Error;
use std::path::Path;
use std::time::Instant;

type CliResult = Result<(), Box<dyn Error>>;

/// Prints usage.
pub fn print_help() {
    eprintln!(
        "fedgta-cli — federated graph learning with FedGTA

USAGE:
  fedgta-cli datasets
  fedgta-cli inspect   --dataset <name> [--seed N]
  fedgta-cli partition --dataset <name> [--method louvain|metis] [--clients N]
  fedgta-cli run       --dataset <name> [--strategy {}]
                       [--model gcn|sage|sgc|sign|s2gc|gbp|gamlp]
                       [--clients N] [--rounds N] [--epochs N]
                       [--split louvain|metis] [--participation F] [--seed N]
                       [--threads N]           (0 = auto; results are
                                                identical for any value)
                       [--save-params <file>]  (checkpoint of client 0's model)
                       [--trace-out <file.jsonl>]   (structured span trace,
                        schema fedgta-trace/2 — feed to 'report'; arms
                        metrics and spans)
                       [--metrics-out <file.prom>]  (Prometheus text
                        snapshot of the metric registry at exit; arms
                        metrics)
                       [--serve-metrics <addr:port>] (live HTTP endpoint
                        for the duration of the run: /metrics is the
                        Prometheus text exposition — cumulative histogram
                        buckets included — /healthz a JSON liveness probe,
                        /rounds the per-round summaries so far, one object
                        per round with the trace's round-span keys. Arms
                        metrics; port 0 picks a free port, the bound
                        address is printed)
                       [--postmortem-out <file.jsonl>] (black-box dump:
                        on a terminal quorum failure or a panic, write the
                        flight recorder's last events + the deterministic
                        fault log + the metric registry, as a fedgta-trace/2
                        file. Same fault seed ⇒ byte-identical dump; render
                        with 'report')
                       Any flag from --faults to --codec-sketch routes every
                       round over the in-process channel transport (FGTM
                       envelopes + CRC) instead of the direct path; with no
                       fault and no lossy codec both are bit-identical
                       ('--fault-seed 0' alone is a clean channel run).
                       [--faults <spec>]       (fault injection, e.g.
                        'drop=0.1,corrupt=0.05,crash=0.02,delay=20,slow=0.25x4,
                        retries=3,backoff=50' — all decisions derive from
                        --fault-seed, so runs replay bit-identically)
                       [--fault-seed N]        (chaos seed, independent of
                        --seed; default 0)
                       [--deadline MS]         (straggler deadline per round
                        in simulated ms; 0 = wait forever)
                       [--min-quorum N]        (minimum accepted uploads to
                        aggregate a round; below it the round is re-sampled
                        and then skipped; default 1)
                       [--oversample F]        (invite round(k*F) clients,
                        accept the first k arrivals; default 1.0)
                       [--max-resamples N]     (bounded re-sampling attempts
                        after a quorum failure; default 2)
                       [--codec <chain>]       (upload codec chain, '+'-joined:
                        identity, quant-i8, topk[=N] — e.g.
                        'topk=64+quant-i8'. 'none' (default) = plain uploads;
                        lossless chains are bit-identical to plain)
                       [--error-feedback]      (per-client residual accumulator:
                        each round folds the previous round's coding error into
                        the tensor before encoding, so lossy chains converge
                        like plain uploads. Needs a lossy --codec chain)
                       [--codec-down <chain>]  (broadcast codec for the
                        server→client download leg, same chain syntax as
                        --codec; 'none' (default) keeps plain broadcasts
                        byte-identical)
                       [--codec-sketch <chain>] (codec for the auxiliary
                        payload tensors — FedGTA's LP moment statistics —
                        routed separately from the parameter tensor;
                        'sketch[=G]' quantizes per G-sized moment group with
                        shared scale tables. Needs --codec armed)
  fedgta-cli report <file.jsonl> [--folded <file>]
                       (a --trace-out trace as per-round / per-client /
                        per-strategy tables and a per-span table hottest
                        self time first, or a --postmortem-out dump as its
                        timeline; damaged lines are listed, not fatal;
                        --folded writes flamegraph-ready folded stacks)

The paper's tables and figures and the kernels / aggregate / comms / scale
microbenchmarks are `cargo run --release -p fedgta-bench --bin repro -- <target>`.",
        STRATEGY_NAMES.join("|")
    );
}

/// Observability outputs resolved from `--trace-out`, `--metrics-out`
/// and `--serve-metrics`.
struct ObsSetup {
    metrics_out: Option<String>,
    armed: bool,
    server: Option<fedgta_obs::serve::MetricsServer>,
}

/// Reads the observability flags and returns what arms them: the global
/// observability level — the weakest that serves the requested outputs:
/// `Trace` for `--trace-out`, `Metrics` for `--metrics-out` or
/// `--serve-metrics`, else `Off` — and, when requested, the JSONL trace
/// sink and the live `/metrics` endpoint. The flight recorder is always
/// armed for a run — its fixed ring is the black box a postmortem reads —
/// and its spans never touch any numeric result.
fn setup_obs(a: &Args) -> impl FnOnce() -> std::io::Result<ObsSetup> {
    use fedgta_obs::ObsLevel;
    let trace_out = a.str_opt("trace-out").map(str::to_string);
    let metrics_out = a.str_opt("metrics-out").map(str::to_string);
    let serve_addr = a.str_opt("serve-metrics").map(str::to_string);
    let level = if trace_out.is_some() {
        ObsLevel::Trace
    } else if metrics_out.is_some() || serve_addr.is_some() {
        ObsLevel::Metrics
    } else {
        ObsLevel::Off
    };
    move || {
        if let Some(path) = &trace_out {
            fedgta_obs::init_jsonl(Path::new(path))?;
            println!("tracing to {path} (schema {})", fedgta_obs::TRACE_SCHEMA);
        }
        fedgta_obs::set_level(level);
        // The black box: always armed for a run, emptied at takeoff so a
        // dump holds exactly this run's tail.
        fedgta_obs::recorder::arm_default();
        fedgta_obs::recorder::reset();
        let server = match &serve_addr {
            Some(addr) => {
                let s = fedgta_obs::serve::serve(addr)?;
                println!("serving /metrics /healthz /rounds on http://{}", s.addr());
                Some(s)
            }
            None => None,
        };
        Ok(ObsSetup { metrics_out, armed: level != ObsLevel::Off, server })
    }
}

/// Flushes and disarms observability: writes the Prometheus snapshot if
/// requested, closes the trace sink (appending metric records + the end
/// marker), stops the metrics endpoint, disarms the flight recorder, and
/// drops the level back to `Off`.
fn finish_obs(setup: ObsSetup) -> Result<(), Box<dyn Error>> {
    if let Some(path) = &setup.metrics_out {
        std::fs::write(path, fedgta_obs::global().render_prometheus())?;
        println!("wrote metrics snapshot to {path}");
    }
    if let Some(server) = setup.server {
        server.stop();
    }
    fedgta_obs::recorder::disarm();
    if setup.armed {
        fedgta_obs::shutdown();
        fedgta_obs::set_level(fedgta_obs::ObsLevel::Off);
    }
    Ok(())
}

/// `report`: render a `--trace-out` trace as latency/byte tables — the
/// span table sorted by self time — or a `--postmortem-out` dump as its
/// timeline; `--folded <file>` writes the trace's flamegraph-ready folded
/// stacks.
pub fn report(a: &Args) -> CliResult {
    let path = a
        .subcommand
        .as_deref()
        .or_else(|| a.str_opt("trace"))
        .ok_or("report needs a trace or dump file, e.g. 'fedgta-cli report trace.jsonl'")?;
    let text = std::fs::read_to_string(path)?;
    let (events, damaged) = fedgta_obs::parse_events(&text);
    if events.is_empty() {
        return Err(format!("{path}: no readable events ({} damaged lines)", damaged.len()).into());
    }
    let summary = fedgta_obs::summarize(&events);
    print!("{}", render(&events, &summary, &damaged));
    if let Some(out) = a.str_opt("folded") {
        std::fs::write(out, fedgta_obs::render_folded(&summary))?;
        println!("wrote folded stacks to {out} (feed to flamegraph.pl / inferno)");
    }
    Ok(())
}

/// A dump (its header names a `reason`) as a timeline, anything else as
/// the trace's tables — then the damaged lines, if any.
fn render(events: &[TraceEvent], summary: &TraceSummary, damaged: &[String]) -> String {
    let mut out = match events.first() {
        Some(TraceEvent::Meta { reason: Some(_), .. }) => fedgta_obs::render_dump(events),
        _ => fedgta_obs::render_report(summary),
    };
    if !damaged.is_empty() {
        out.push_str(&format!("\ndamaged lines ({}):\n", damaged.len()));
        for l in damaged {
            out.push_str(&format!("  {l}\n"));
        }
    }
    out
}

/// Builds the transport/robustness config from `--faults`, `--fault-seed`,
/// `--deadline`, `--min-quorum`, `--oversample`, `--max-resamples`,
/// `--codec`, `--codec-down`, `--codec-sketch` and `--error-feedback`.
/// The run goes over the channel transport exactly when one of them is
/// given (`--fault-seed 0` alone is a clean channel run); `None` is the
/// direct message path.
fn parse_comms(a: &Args) -> Result<Option<CommsConfig>, Box<dyn Error>> {
    let robust_flags = [
        "faults",
        "fault-seed",
        "deadline",
        "min-quorum",
        "oversample",
        "max-resamples",
        "codec",
        "codec-down",
        "codec-sketch",
        "error-feedback",
    ];
    // `--codec none` is an explicit request for plain uploads, not a
    // robustness flag — it must not move the run onto the channel.
    let channel = robust_flags.iter().any(|k| {
        a.str_opt(k).is_some_and(|v| {
            let explicit_off = (matches!(*k, "codec" | "codec-down" | "codec-sketch")
                && v == "none")
                || (*k == "error-feedback" && v == "false");
            !explicit_off
        })
    });
    let parse_chain = |flag: &str| -> Result<Option<CodecSpec>, Box<dyn Error>> {
        match a.str_opt(flag) {
            None | Some("none") => Ok(None),
            Some(spec) => Ok(Some(CodecSpec::parse(spec)?)),
        }
    };
    let codec = parse_chain("codec")?;
    let codec_down = parse_chain("codec-down")?;
    let codec_sketch = parse_chain("codec-sketch")?;
    let error_feedback = a.bool_flag("error-feedback")?;
    if error_feedback && codec.as_ref().is_none_or(|c| c.is_lossless()) {
        return Err("--error-feedback needs a lossy --codec chain (it folds coding error)".into());
    }
    if codec_sketch.is_some() && codec.is_none() {
        return Err("--codec-sketch needs a --codec chain for the model tensor".into());
    }
    if !channel {
        return Ok(None);
    }
    let faults = match a.str_opt("faults") {
        Some(spec) => FaultConfig::parse(spec)?,
        None => FaultConfig::default(),
    };
    let defaults = CommsConfig::default();
    let comms = CommsConfig {
        faults,
        fault_seed: a.num_or("fault-seed", defaults.fault_seed)?,
        deadline_ms: a.num_or("deadline", defaults.deadline_ms)?,
        min_quorum: a.num_or("min-quorum", defaults.min_quorum)?,
        oversample: a.num_or("oversample", defaults.oversample)?,
        max_resamples: a.num_or("max-resamples", defaults.max_resamples)?,
        codec,
        codec_down,
        codec_sketch,
        error_feedback,
    };
    // `validate` names the field, and `--oversample` sets `oversample`.
    comms.validate().map_err(|e| format!("--{e}"))?;
    Ok(Some(comms))
}

fn parse_split(s: &str) -> Result<SplitKind, String> {
    match s.to_ascii_lowercase().as_str() {
        "louvain" => Ok(SplitKind::Louvain),
        "metis" => Ok(SplitKind::Metis),
        other => Err(format!("unknown split '{other}' (louvain|metis)")),
    }
}

fn parse_model(s: &str) -> Result<ModelKind, String> {
    match s.to_ascii_lowercase().as_str() {
        "gcn" => Ok(ModelKind::Gcn),
        "sage" => Ok(ModelKind::Sage),
        "sgc" => Ok(ModelKind::Sgc),
        "sign" => Ok(ModelKind::Sign),
        "s2gc" => Ok(ModelKind::S2gc),
        "gbp" => Ok(ModelKind::Gbp),
        "gamlp" => Ok(ModelKind::Gamlp),
        other => Err(format!("unknown model '{other}' (gcn|sage|sgc|sign|s2gc|gbp|gamlp)")),
    }
}

/// Loads `name` to split among `clients`, refusing a count no split can
/// meet: none, or more clients than the graph has nodes. The first is
/// refused before anything loads.
fn load_for_split(name: &str, seed: u64, clients: usize) -> Result<Benchmark, Box<dyn Error>> {
    if clients == 0 {
        return Err("--clients must be at least 1".into());
    }
    let b = load_benchmark(name, seed)?;
    let nodes = b.graph.num_nodes();
    if clients > nodes {
        return Err(format!(
            "--clients {clients} exceeds the {nodes} nodes of {name}: each client needs one"
        )
        .into());
    }
    Ok(b)
}

/// `datasets`: list the catalog.
pub fn datasets() -> CliResult {
    println!(
        "{:<18} {:>9} {:>6} {:>8} {:>8}  task",
        "name", "nodes", "feats", "classes", "avg-deg"
    );
    for s in SPECS {
        println!(
            "{:<18} {:>9} {:>6} {:>8} {:>8.1}  {:?}",
            s.name, s.nodes, s.features, s.classes, s.avg_degree, s.task
        );
    }
    Ok(())
}

/// `inspect`: generate and print structural statistics.
pub fn inspect(a: &Args) -> CliResult {
    let name = a.str_opt("dataset").ok_or("missing --dataset")?;
    let seed = a.num_or("seed", 0u64)?;
    let b = load_benchmark(name, seed)?;
    let deg = degree_stats(&b.graph);
    println!("dataset   : {name} (seed {seed})");
    println!("nodes     : {}", b.graph.num_nodes());
    println!("edges     : {}", b.graph.num_edges() / 2);
    println!("classes   : {}", b.num_classes);
    println!("features  : {}", b.features.cols());
    println!("degree    : min {} / mean {:.1} / max {}", deg.min, deg.mean, deg.max);
    println!("homophily : {:.3}", edge_homophily(&b.graph, &b.labels));
    println!(
        "split     : {} train / {} val / {} test",
        b.split.train.len(),
        b.split.val.len(),
        b.split.test.len()
    );
    Ok(())
}

/// `partition`: split and report per-client statistics.
pub fn partition(a: &Args) -> CliResult {
    let name = a.str_opt("dataset").ok_or("missing --dataset")?;
    let seed = a.num_or("seed", 0u64)?;
    let clients = a.num_or("clients", 10usize)?;
    let split = parse_split(&a.str_or("method", "louvain"))?;
    let b = load_for_split(name, seed, clients)?;
    let t = Instant::now();
    let parts = partition_benchmark(&b, split, clients, seed);
    let split_s = t.elapsed().as_secs_f64();
    let cut = parts.edge_cut(&b.graph);
    println!(
        "{} split of {name}: {} clients, edge cut {cut} ({:.1}% of edges) in {split_s:.2} s",
        split.name(),
        parts.num_parts,
        100.0 * cut as f64 / (b.graph.num_edges() / 2).max(1) as f64,
    );
    let q = parts.quality(&b.graph, &b.labels);
    println!(
        "quality: cut ratio {:.3}, imbalance {:.2}, mean label skew {:.2}",
        q.cut_ratio, q.imbalance, q.mean_label_skew
    );
    let members = parts.members();
    println!("{:<8} {:>7} {:>10}  top-class share", "client", "nodes", "classes");
    for (i, ids) in members.iter().enumerate() {
        let mut counts = vec![0usize; b.num_classes];
        for &v in ids {
            counts[b.labels[v as usize] as usize] += 1;
        }
        let present = counts.iter().filter(|&&c| c > 0).count();
        let top = *counts.iter().max().unwrap_or(&0);
        println!(
            "{:<8} {:>7} {:>10}  {:.2}",
            i,
            ids.len(),
            present,
            top as f64 / ids.len().max(1) as f64
        );
    }
    Ok(())
}

/// `run`: a full federated experiment.
pub fn run(a: &Args) -> CliResult {
    let name = a.str_opt("dataset").ok_or("missing --dataset")?;
    let seed = a.num_or("seed", 0u64)?;
    let clients_n = a.num_or("clients", 10usize)?;
    let rounds = a.num_or("rounds", 30usize)?;
    let config = SimConfig {
        rounds,
        local_epochs: a.num_or("epochs", 3usize)?,
        participation: a.num_or("participation", 1.0f64)?,
        eval_every: 5.min(rounds),
        seed,
        threads: a.num_or("threads", 0usize)?,
    };
    // `validate` names the field, and each flag sets the field of its name.
    config.validate().map_err(|e| format!("--{e}"))?;
    let split = parse_split(&a.str_or("split", "louvain"))?;
    let model = parse_model(&a.str_or("model", "gamlp"))?;
    let strategy_name = a.str_or("strategy", "FedGTA");
    let strategy = strategy_named(&strategy_name).ok_or_else(|| {
        let known = STRATEGY_NAMES.join("|");
        format!("unknown strategy '{strategy_name}' ({known}, each also as FedGL+X or FedSage++X)")
    })?;
    let halo = strategy.halo_views(model).map_err(|why| {
        format!("'{strategy_name}' cannot run on --model {}: {why}", model.name())
    })?;
    let comms = parse_comms(a)?;
    let arm_obs = setup_obs(a);
    let pm_path = a.str_opt("postmortem-out").map(std::path::PathBuf::from);
    let save_params = a.str_opt("save-params");
    a.reject_unread()?;

    let b = load_for_split(name, seed, clients_n)?;
    let parts = partition_benchmark(&b, split, clients_n, seed);
    let build = ClientBuildConfig::paper(ModelConfig::paper(model, 32, seed), halo);
    let clients = build_clients(&b, &parts, &build);
    let obs = arm_obs()?;
    println!(
        "running {} on {name}: {} clients ({} split), {rounds} rounds × {} epochs, participation {}, {} threads",
        strategy.name(),
        clients.len(),
        split.name(),
        config.local_epochs,
        config.participation,
        fedgta_graph::par::resolve_threads(Some(config.threads)),
    );
    if let Some(cc) = &comms {
        println!(
            "transport: channel (fault seed {}, deadline {} ms, quorum ≥ {}, oversample {:.2}, faults: drop {} corrupt {} crash {} delay {} ms)",
            cc.fault_seed,
            cc.deadline_ms,
            cc.min_quorum,
            cc.oversample,
            cc.faults.drop,
            cc.faults.corrupt,
            cc.faults.crash,
            cc.faults.delay_ms,
        );
        if let Some(spec) = &cc.codec {
            println!(
                "codec: {} ({})",
                spec.name(),
                if spec.is_lossless() {
                    "lossless — bit-identical to plain uploads"
                } else {
                    "lossy"
                },
            );
        }
    }
    let mut sim = Simulation::new(clients, strategy, config);
    if let Some(cc) = comms.clone() {
        sim = sim.with_comms(cc);
    }
    if let Some(p) = &pm_path {
        sim = sim.with_postmortem(p.clone());
        fedgta_obs::recorder::install_panic_dump(p.clone());
    }
    let records = sim.run();
    println!(
        "{:>5} {:>9} {:>7} {:>4} {:>5} {:>4} {:>9} {:>9} {:>9} {:>9} {:>10} {:>10}",
        "round",
        "loss",
        "acc",
        "ok",
        "drop",
        "rty",
        "round_s",
        "train_s",
        "agg_s",
        "eval_s",
        "up",
        "down"
    );
    for r in &records {
        if let Some(acc) = r.test_acc {
            println!(
                "{:>5} {:>9.4} {:>6.1}% {:>4} {:>5} {:>4} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>10} {:>10}",
                r.round,
                r.mean_loss,
                100.0 * acc,
                r.participants_completed,
                r.participants_dropped,
                r.retries,
                r.elapsed_s,
                r.train_s,
                r.aggregate_s,
                r.eval_s,
                r.bytes_uploaded,
                r.bytes_downloaded,
            );
        }
    }
    let total_s: f64 = records.last().map_or(0.0, |r| r.cumulative_s);
    println!(
        "best test accuracy: {:.2}%  ({total_s:.1}s training+aggregation over {} rounds)",
        100.0 * best_accuracy(&records),
        records.len()
    );
    if comms.is_some() {
        let completed: usize = records.iter().map(|r| r.participants_completed).sum();
        let dropped: usize = records.iter().map(|r| r.participants_dropped).sum();
        let retries: u64 = records.iter().map(|r| r.retries).sum();
        let skipped = records.iter().filter(|r| r.participants_completed == 0).count();
        let mut by_kind = std::collections::BTreeMap::new();
        for e in &sim.fault_events {
            *by_kind.entry(e.kind.name()).or_insert(0usize) += 1;
        }
        let breakdown = if by_kind.is_empty() {
            "none".to_string()
        } else {
            by_kind.iter().map(|(k, n)| format!("{k} {n}")).collect::<Vec<_>>().join(", ")
        };
        println!(
            "comms: {completed} uploads accepted, {dropped} participants lost, {retries} retries, {skipped} rounds skipped; fault events: {} ({breakdown})",
            sim.fault_events.len(),
        );
        if skipped > 0 {
            if let Some(p) = &pm_path {
                println!(
                    "postmortem dump written to {} (render with 'fedgta-cli report {}')",
                    p.display(),
                    p.display()
                );
            }
        }
        if comms.as_ref().is_some_and(|cc| cc.codec.is_some()) {
            let raw: u64 = records.iter().map(|r| r.bytes_uploaded_raw as u64).sum();
            let enc: u64 = records.iter().map(|r| r.bytes_uploaded_encoded as u64).sum();
            let ef = if comms.as_ref().is_some_and(|cc| cc.error_feedback) {
                " (error feedback on)"
            } else {
                ""
            };
            println!(
                "codec: {raw} raw upload bytes → {enc} on the wire ({:.2}x reduction){ef}",
                raw as f64 / (enc.max(1)) as f64,
            );
        }
        if comms.as_ref().is_some_and(|cc| cc.codec_down.is_some()) {
            let raw: u64 = records.iter().map(|r| r.bytes_downloaded_raw as u64).sum();
            let enc: u64 = records.iter().map(|r| r.bytes_downloaded_encoded as u64).sum();
            println!(
                "codec-down: {raw} raw broadcast bytes → {enc} on the wire ({:.2}x reduction)",
                raw as f64 / (enc.max(1)) as f64,
            );
        }
    }
    finish_obs(obs)?;
    if let Some(path) = save_params {
        let mut f = std::fs::File::create(path)?;
        fedgta_nn::io::save_params(&mut f, &sim.clients[0].model.params())?;
        println!("saved client-0 model parameters to {path}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedgta_fed::fgl_models::FedSagePlus;

    fn args(words: &[&str]) -> Args {
        Args::parse(words.iter().map(|s| s.to_string())).unwrap()
    }

    /// `run` tests share the process-global observability level and trace
    /// sink; serialize them so an armed trace never sees another test's
    /// spans.
    static RUN_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn parsers_accept_known_values() {
        assert_eq!(parse_split("Louvain").unwrap(), SplitKind::Louvain);
        assert_eq!(parse_split("metis").unwrap(), SplitKind::Metis);
        assert!(parse_split("random").is_err());
        assert_eq!(parse_model("GCN").unwrap(), ModelKind::Gcn);
        assert!(parse_model("transformer").is_err());
    }

    #[test]
    fn datasets_listing_works() {
        datasets().unwrap();
    }

    #[test]
    fn inspect_requires_dataset() {
        let a = args(&["inspect"]);
        assert!(inspect(&a).is_err());
    }

    #[test]
    fn inspect_cora_succeeds() {
        let a = args(&["inspect", "--dataset", "cora"]);
        inspect(&a).unwrap();
    }

    #[test]
    fn partition_reports() {
        let a = args(&["partition", "--dataset", "cora", "--clients", "4", "--method", "metis"]);
        partition(&a).unwrap();
    }

    #[test]
    fn an_unknown_strategy_is_an_error_before_anything_loads() {
        let a = args(&["run", "--dataset", "no-such-dataset", "--strategy", "Nope"]);
        let err = run(&a).unwrap_err().to_string();
        assert!(err.starts_with("unknown strategy 'Nope'") && err.contains("FedGTA"), "{err}");
    }

    #[test]
    fn tiny_run_completes() {
        let _g = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let a = args(&[
            "run",
            "--dataset",
            "cora",
            "--strategy",
            "FedAvg",
            "--model",
            "sgc",
            "--rounds",
            "2",
            "--clients",
            "4",
        ]);
        run(&a).unwrap();
    }

    #[test]
    fn traced_run_then_report_round_trips() {
        let _g = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let path =
            std::env::temp_dir().join(format!("fedgta-cli-trace-{}.jsonl", std::process::id()));
        let p = path.to_string_lossy().to_string();
        let a = args(&[
            "run",
            "--dataset",
            "cora",
            "--strategy",
            "FedAvg",
            "--model",
            "sgc",
            "--rounds",
            "2",
            "--clients",
            "4",
            "--trace-out",
            &p,
        ]);
        run(&a).unwrap();
        // The trace parses under the current schema and has rounds.
        let text = std::fs::read_to_string(&path).unwrap();
        let events = fedgta_obs::parse_trace(&text).unwrap();
        let summary = fedgta_obs::summarize(&events);
        assert_eq!(summary.rounds.len(), 2);
        assert!(summary.rounds.iter().all(|r| r.bytes_up > 0));
        // And the report command renders it, with folded stacks.
        let folded =
            std::env::temp_dir().join(format!("fedgta-cli-folded-{}.txt", std::process::id()));
        let fp = folded.to_string_lossy().to_string();
        let r = args(&["report", &p, "--folded", &fp]);
        report(&r).unwrap();
        r.reject_unread().unwrap();
        let stacks = std::fs::read_to_string(&folded).unwrap();
        assert!(
            stacks.lines().any(|l| l.starts_with("round") && l.contains(' ')),
            "folded stacks have round-rooted paths: {stacks}"
        );
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&folded);
    }

    #[test]
    fn quorum_failure_writes_deterministic_postmortem() {
        let _g = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir();
        let mut dumps = Vec::new();
        // Every client crashes every round: quorum is unreachable, every
        // round skips, and the dump must come out byte-identical across
        // invocations (same fault seed).
        for i in 0..2 {
            let pm = dir.join(format!("fedgta-cli-pm-{}-{i}.jsonl", std::process::id()));
            let p = pm.to_string_lossy().to_string();
            let a = args(&[
                "run",
                "--dataset",
                "cora",
                "--strategy",
                "FedAvg",
                "--model",
                "sgc",
                "--rounds",
                "2",
                "--clients",
                "4",
                "--faults",
                "crash=1.0",
                "--fault-seed",
                "7",
                "--min-quorum",
                "2",
                "--max-resamples",
                "1",
                "--postmortem-out",
                &p,
            ]);
            run(&a).unwrap();
            dumps.push(std::fs::read(&pm).unwrap());
            // `report` renders it as a timeline.
            let (events, damaged) =
                fedgta_obs::parse_events(std::str::from_utf8(&dumps[i]).unwrap());
            let rendered = render(&events, &fedgta_obs::summarize(&events), &damaged);
            assert!(rendered.contains("reason=quorum_fail"), "{rendered}");
            assert!(rendered.contains("crash"));
            assert!(damaged.is_empty(), "{damaged:?}");
            report(&args(&["report", &p])).unwrap();
            let _ = std::fs::remove_file(&pm);
        }
        assert_eq!(dumps[0], dumps[1], "same-seed postmortem dumps must be byte-identical");
        let text = String::from_utf8(dumps[0].clone()).unwrap();
        assert!(text.lines().next().unwrap().contains("\"fault_seed\":7"));
        assert!(text.contains("\"name\":\"round_skip\""));
        assert!(text.contains("\"name\":\"quorum_fail\""));
    }

    #[test]
    fn serve_metrics_run_binds_and_stops() {
        let _g = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Port 0: the OS picks a free port, the run serves for its
        // duration and must release everything on the way out.
        let a = args(&[
            "run",
            "--dataset",
            "cora",
            "--strategy",
            "FedAvg",
            "--model",
            "sgc",
            "--rounds",
            "1",
            "--clients",
            "4",
            "--serve-metrics",
            "127.0.0.1:0",
        ]);
        run(&a).unwrap();
        assert!(!fedgta_obs::serve::rounds_armed(), "endpoint disarmed after the run");
    }

    #[test]
    fn report_lists_the_damaged_lines_of_a_cut_trace_or_dump() {
        let _g = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let path =
            std::env::temp_dir().join(format!("fedgta-cli-cut-{}.jsonl", std::process::id()));
        let p = path.to_string_lossy().to_string();
        run(&args(&[
            "run",
            "--dataset",
            "cora",
            "--strategy",
            "FedAvg",
            "--model",
            "sgc",
            "--rounds",
            "2",
            "--clients",
            "4",
            "--trace-out",
            &p,
        ]))
        .unwrap();
        // A run killed mid-write: the file ends inside a line.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.truncate(text.len() - 40);
        std::fs::write(&path, &text).unwrap();
        report(&args(&["report", &p])).unwrap();
        let (events, damaged) = fedgta_obs::parse_events(&text);
        assert_eq!(damaged.len(), 1, "{damaged:?}");
        let rendered = render(&events, &fedgta_obs::summarize(&events), &damaged);
        assert!(rendered.contains("per-round breakdown") && rendered.contains("damaged lines (1)"));
        let _ = std::fs::remove_file(&path);
        // A damaged dump still renders as its timeline.
        let dump =
            "{\"ev\":\"meta\",\"schema\":\"fedgta-trace/2\",\"reason\":\"panic\"}\nnot json\n";
        let (events, damaged) = fedgta_obs::parse_events(dump);
        let rendered = render(&events, &fedgta_obs::summarize(&events), &damaged);
        assert!(rendered.contains("postmortem: reason=panic round=0"), "{rendered}");
        assert!(rendered.contains("damaged lines (1)"));
    }

    #[test]
    fn comms_flags_parse_and_validate() {
        // No robustness flags → direct path, no config.
        assert!(parse_comms(&args(&["run"])).unwrap().is_none());
        // Any robustness flag moves the run onto the channel.
        let cc = parse_comms(&args(&["run", "--faults", "drop=0.2,delay=10", "--min-quorum", "2"]))
            .unwrap()
            .unwrap();
        assert_eq!(cc.faults.drop, 0.2);
        assert_eq!(cc.faults.delay_ms, 10);
        assert_eq!(cc.min_quorum, 2);
        // The fault seed alone is the clean channel.
        let clean = parse_comms(&args(&["run", "--fault-seed", "0"])).unwrap().unwrap();
        assert_eq!(clean.faults.drop, 0.0);
        // Malformed specs are rejected.
        assert!(parse_comms(&args(&["run", "--faults", "drop=2.0"])).is_err());
    }

    #[test]
    fn codec_flags_parse_and_validate() {
        // --codec alone moves the run onto the channel.
        let cc = parse_comms(&args(&["run", "--codec", "quant-i8"])).unwrap().unwrap();
        assert_eq!(cc.codec.as_ref().unwrap().name(), "quant-i8");
        let cc = parse_comms(&args(&["run", "--codec", "topk=32+quant-i8"])).unwrap().unwrap();
        assert_eq!(cc.codec.as_ref().unwrap().name(), "topk=32+quant-i8");
        // 'none' means plain uploads and leaves the run on the direct path;
        // beside another channel flag it arms no codec.
        assert!(parse_comms(&args(&["run", "--codec", "none"])).unwrap().is_none());
        let cc =
            parse_comms(&args(&["run", "--fault-seed", "0", "--codec", "none"])).unwrap().unwrap();
        assert!(cc.codec.is_none());
        // Invalid chains are rejected.
        assert!(parse_comms(&args(&["run", "--codec", "zip"])).is_err());
        assert!(parse_comms(&args(&["run", "--codec", "quant-i8+quant-f16"])).is_err());
    }

    #[test]
    fn coded_run_completes() {
        let _g = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let a = args(&[
            "run",
            "--dataset",
            "cora",
            "--strategy",
            "FedGTA",
            "--model",
            "sgc",
            "--rounds",
            "2",
            "--clients",
            "4",
            "--codec",
            "topk=64+quant-i8",
        ]);
        run(&a).unwrap();
    }

    #[test]
    fn faulted_run_completes() {
        let _g = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let a = args(&[
            "run",
            "--dataset",
            "cora",
            "--strategy",
            "FedAvg",
            "--model",
            "sgc",
            "--rounds",
            "2",
            "--clients",
            "4",
            "--faults",
            "drop=0.2,corrupt=0.1,crash=0.1,delay=20",
            "--fault-seed",
            "7",
            "--deadline",
            "500",
        ]);
        run(&a).unwrap();
    }

    #[test]
    fn report_refuses_the_retired_profile_flag() {
        // The span table carries self time, so nothing reads `--profile`.
        let path =
            std::env::temp_dir().join(format!("fedgta-cli-profile-{}.jsonl", std::process::id()));
        let trace = "{\"ev\":\"meta\",\"schema\":\"fedgta-trace/2\"}\n{\"ev\":\"span\",\"name\":\"round\",\"id\":1}\n";
        std::fs::write(&path, trace).unwrap();
        let a = args(&["report", &path.to_string_lossy(), "--profile", "5"]);
        report(&a).unwrap();
        assert_eq!(a.reject_unread().unwrap_err(), "'report' does not take --profile");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn report_requires_a_path() {
        let a = args(&["report"]);
        assert!(report(&a).is_err());
    }

    #[test]
    fn run_refuses_flags_it_never_reads() {
        // `--round` (for `--rounds`) used to run the 30-round default;
        // `--codec-arg` was retired for `topk=N`, `--obs` and `--transport`
        // for what the output and channel flags imply. All fail before any
        // work, naming the flag.
        let retired = [
            &["--obs", "trace"][..],
            &["--transport", "channel"],
            &["--codec", "topk", "--codec-arg", "k=8"],
        ];
        for extra in [&["--round", "1"][..]].into_iter().chain(retired) {
            let mut words = vec!["run", "--dataset", "cora", "--model", "sgc", "--clients", "2"];
            words.extend_from_slice(extra);
            let err = run(&args(&words)).unwrap_err().to_string();
            assert!(err.contains(&format!("does not take {}", extra[extra.len() - 2])), "{err}");
        }
    }

    #[test]
    fn run_refuses_degenerate_values_before_anything_loads() {
        // Each used to run as something else: a participation outside
        // (0, 1] as one client or all, an oversample below 1 as 1, zero
        // rounds as a run that never evaluated.
        let bad = [
            ("participation", &["nan", "-0.5", "0", "7"][..]),
            ("oversample", &["nan", "0.2", "inf"]),
            ("rounds", &["0"]),
        ];
        for (flag, values) in bad {
            for value in values {
                let words = ["run", "--dataset", "no-such-dataset", &format!("--{flag}"), value];
                let err = run(&args(&words)).unwrap_err().to_string();
                assert!(err.starts_with(&format!("--{flag} must")), "--{flag} {value}: {err}");
            }
        }
        // The ends of the valid ranges pass; the run fails at the dataset.
        let ends = ["--participation", "1", "--oversample", "1", "--rounds", "1"];
        let err = run(&args(&[&["run", "--dataset", "no-such-dataset"][..], &ends].concat()));
        assert!(err.unwrap_err().to_string().starts_with("unknown dataset"));
    }

    #[test]
    fn zero_clients_are_refused_before_anything_loads() {
        // `partition_benchmark` panicked on it (`ZeroParts`).
        for command in [partition, run] {
            let err = command(&args(&["x", "--dataset", "no-such-dataset", "--clients", "0"]));
            assert_eq!(err.unwrap_err().to_string(), "--clients must be at least 1");
        }
    }

    #[test]
    fn more_clients_than_nodes_are_refused() {
        // `partition_benchmark` panicked on it (`TooManyParts`).
        for command in [partition, run] {
            let err = command(&args(&["x", "--dataset", "cora", "--clients", "5000"]));
            let want = "--clients 5000 exceeds the 2708 nodes of cora: each client needs one";
            assert_eq!(err.unwrap_err().to_string(), want);
        }
    }

    #[test]
    fn run_refuses_fedsage_on_a_propagating_backbone_before_anything_loads() {
        for model in ["gcn", "sgc", "sign", "s2gc", "gbp"] {
            let words = [
                "run",
                "--dataset",
                "no-such-dataset",
                "--strategy",
                "FedSage++FedAvg",
                "--model",
                model,
            ];
            let err = run(&args(&words)).unwrap_err().to_string();
            assert!(err.ends_with(FedSagePlus::NEEDS_RAW_FEATURES), "{model}: {err}");
        }
        // SAGE and GAMLP pass the check and fail only at the missing dataset.
        for model in ["sage", "gamlp"] {
            let words = [
                "run",
                "--dataset",
                "no-such-dataset",
                "--strategy",
                "FedSage++FedAvg",
                "--model",
                model,
            ];
            let err = run(&args(&words)).unwrap_err().to_string();
            assert!(!err.contains("FedSage+ needs"), "{model}: {err}");
        }
    }

    #[test]
    fn run_saves_checkpoint_when_asked() {
        let _g = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let path =
            std::env::temp_dir().join(format!("fedgta-cli-ckpt-{}.fgtp", std::process::id()));
        let p = path.to_string_lossy().to_string();
        let a = args(&[
            "run",
            "--dataset",
            "cora",
            "--strategy",
            "FedAvg",
            "--model",
            "sgc",
            "--rounds",
            "1",
            "--clients",
            "4",
            "--save-params",
            &p,
        ]);
        run(&a).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert!(bytes.starts_with(b"FGTP"));
        let _ = std::fs::remove_file(&path);
    }
}
