//! Upload-codec communication benchmark: the bytes-vs-accuracy Pareto
//! sweep behind `BENCH_COMMS.json` (`repro comms`).
//!
//! Each cell arms one communication configuration — an upload codec
//! chain, optionally error feedback, a download (broadcast) codec, or a
//! moment-sketch codec for FedGTA's auxiliary tensors — on one strategy
//! over a 10-client federation and runs the full transport round
//! (fault-free, so every upload is metered on the real wire path). Per
//! cell the sweep records:
//!
//! - **wire_reduction** — `Σ bytes_raw / Σ bytes_encoded`, the honest
//!   end-to-end upload-byte ratio. The coded frame still carries the
//!   scalar fields (loss, confidence, `n_train`) and per-tensor codec
//!   metadata, so pure `quant-i8` lands just under the 4.0× value ratio
//!   (~3.98× at cora scale); chains with top-k sparsification clear it
//!   by a wide margin.
//! - **down_reduction** — the same ratio for the broadcast leg when a
//!   download codec is armed (`null` otherwise — plain broadcasts never
//!   become wire bytes).
//! - **value_compression** — the analytic bits-per-value ratio of the
//!   quantizer alone (32/8 = 4.0 for `quant-i8`), `null` for chains
//!   whose ratio depends on tensor shape (top-k).
//! - **best_acc / acc_delta_pp** — best global test accuracy and its
//!   delta (percentage points) against the plain-upload baseline of the
//!   same strategy.
//!
//! Every cell is run at 1 and 4 worker threads and hard-asserts
//! bit-identical records; lossless cells additionally assert their
//! loss/accuracy trajectories are bitwise equal to the plain baseline,
//! and error-feedback cells assert they beat their bare-codec twin's
//! accuracy (the whole point of carrying the residual).

use crate::format::{json_f64, json_fixed, json_opt, json_rows, json_str, Table};
use crate::runner::{make_strategy, partition_benchmark, SplitKind};
use fedgta_data::load_benchmark;
use fedgta_fed::client::{build_clients, ClientBuildConfig};
use fedgta_fed::round::{best_accuracy, CommsConfig, RoundRecord, SimConfig, Simulation};
use fedgta_fed::CodecSpec;
use fedgta_nn::models::{ModelConfig, ModelKind};

/// One benched cell: a `(strategy, comms configuration)` pair.
#[derive(Debug, Clone)]
pub struct CommsResult {
    /// Strategy name.
    pub strategy: String,
    /// Canonical cell label: the upload chain, then `+ef`, ` down=…`,
    /// ` sketch=…` as armed (`"none"` = plain uploads).
    pub codec: String,
    /// Whether the whole configuration is lossless end to end.
    pub lossless: bool,
    /// Error feedback armed on the upload leg.
    pub error_feedback: bool,
    /// Total raw upload bytes across all rounds (plain encoding of the
    /// same payloads, metered on the wire path).
    pub bytes_raw: u64,
    /// Total encoded upload bytes actually framed.
    pub bytes_encoded: u64,
    /// `bytes_raw / bytes_encoded`.
    pub wire_reduction: f64,
    /// Total raw broadcast bytes (0 unless a download codec is armed).
    pub bytes_down_raw: u64,
    /// Total encoded broadcast bytes actually framed.
    pub bytes_down_encoded: u64,
    /// `bytes_down_raw / bytes_down_encoded` (`None` with no download
    /// codec).
    pub down_reduction: Option<f64>,
    /// Analytic bits-per-value ratio of the quantizer (`None` when the
    /// chain's ratio is shape-dependent, e.g. top-k).
    pub value_compression: Option<f64>,
    /// Best global test accuracy over the run.
    pub best_acc: f64,
    /// `100·(best_acc − baseline_best_acc)` vs the same strategy's
    /// plain-upload cell.
    pub acc_delta_pp: f64,
    /// 1-thread vs 4-thread records bitwise equal (hard-asserted).
    pub bit_identical_threads: bool,
    /// For lossless configurations: trajectory bitwise equal to the
    /// plain cell (`None` for lossy cells, where equality is not a
    /// contract).
    pub matches_plain: Option<bool>,
}

/// The full report.
#[derive(Debug, Clone)]
pub struct CommsReport {
    /// `"quick"` or `"full"`.
    pub mode: &'static str,
    /// Dataset the sweep ran on.
    pub dataset: String,
    /// Communication rounds per cell.
    pub rounds: usize,
    /// All cells, grouped by strategy in sweep order.
    pub results: Vec<CommsResult>,
}

/// The codec chains the sweep covers (plain baseline first).
pub const CODECS: &[&str] = &["none", "identity", "quant-i8", "topk=64", "topk=64+quant-i8"];

/// One sweep cell's communication configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Upload codec chain (`None` = plain uploads).
    pub codec: Option<&'static str>,
    /// Error feedback on the upload leg.
    pub ef: bool,
    /// Download (broadcast) codec chain.
    pub down: Option<&'static str>,
    /// Sketch codec chain for auxiliary payload tensors.
    pub sketch: Option<&'static str>,
}

impl Cell {
    const fn plain(codec: Option<&'static str>) -> Self {
        Self { codec, ef: false, down: None, sketch: None }
    }

    /// The bare-upload twin of an error-feedback cell.
    const fn without_ef(self) -> Self {
        Self { ef: false, ..self }
    }

    fn label(&self) -> String {
        let mut s = self.codec.map_or_else(|| "none".to_string(), spec_name);
        if self.ef {
            s.push_str("+ef");
        }
        if let Some(d) = self.down {
            s.push_str(&format!(" down={}", spec_name(d)));
        }
        if let Some(k) = self.sketch {
            s.push_str(&format!(" aux={}", spec_name(k)));
        }
        s
    }

    fn lossless(&self) -> bool {
        let chain_lossless = |c: Option<&str>| {
            c.is_none_or(|c| CodecSpec::parse(c).expect("valid codec spec").is_lossless())
        };
        !self.ef
            && chain_lossless(self.codec)
            && chain_lossless(self.down)
            && chain_lossless(self.sketch)
    }
}

fn spec_name(chain: &str) -> String {
    CodecSpec::parse(chain).expect("valid codec spec").name()
}

/// Overrides for the sweep's dataset/size knobs (`repro comms` flags;
/// `None` keeps the mode's default).
#[derive(Debug, Clone, Default)]
pub struct Overrides {
    /// Dataset name (`cora` default; `citeseer`/`pubmed` also ship).
    pub dataset: Option<String>,
    /// Communication rounds per cell.
    pub rounds: Option<usize>,
    /// Federation size.
    pub clients: Option<usize>,
}

struct Grid {
    strategies: Vec<&'static str>,
    cells: Vec<Cell>,
    dataset: String,
    rounds: usize,
    epochs: usize,
    clients: usize,
    fedgta_extra: Vec<Cell>,
}

impl Grid {
    fn new(quick: bool, over: &Overrides) -> Self {
        let mut g = if quick {
            Self {
                strategies: vec!["FedGTA"],
                cells: vec![
                    Cell::plain(None),
                    Cell::plain(Some("quant-i8")),
                    Cell::plain(Some("topk=64")),
                    Cell::plain(Some("topk=64+quant-i8")),
                    Cell { ef: true, ..Cell::plain(Some("topk=64+quant-i8")) },
                ],
                dataset: "cora".to_string(),
                rounds: 3,
                epochs: 1,
                clients: 6,
                fedgta_extra: Vec::new(),
            }
        } else {
            let mut cells: Vec<Cell> =
                CODECS.iter().map(|c| Cell::plain((*c != "none").then_some(*c))).collect();
            cells.push(Cell { ef: true, ..Cell::plain(Some("topk=64")) });
            cells.push(Cell { ef: true, ..Cell::plain(Some("topk=64+quant-i8")) });
            Self {
                strategies: vec!["FedAvg", "FedGTA"],
                cells,
                dataset: "cora".to_string(),
                rounds: 20,
                epochs: 2,
                clients: 10,
                // FedGTA-only rows: the download leg (FedGTA broadcasts
                // per-client personalized models — the interesting case)
                // and the moment-sketch codec (only FedGTA uploads
                // auxiliary tensors).
                fedgta_extra: vec![
                    Cell { down: Some("quant-i8"), ..Cell::plain(None) },
                    Cell { sketch: Some("sketch=7"), ..Cell::plain(Some("quant-i8")) },
                    // The headline Pareto point: sparsified+quantized
                    // parameters with error feedback, moments routed
                    // through the sketch codec so similarity weights
                    // stay faithful.
                    Cell {
                        ef: true,
                        sketch: Some("sketch=7"),
                        ..Cell::plain(Some("topk=64+quant-i8"))
                    },
                ],
            }
        };
        if let Some(d) = &over.dataset {
            g.dataset = d.clone();
        }
        if let Some(r) = over.rounds {
            g.rounds = r.max(1);
        }
        if let Some(c) = over.clients {
            g.clients = c.max(2);
        }
        g
    }
}

/// Runs one `(strategy, cell, threads)` simulation over the transport
/// path and returns its records. Fault-free `CommsConfig`, so every
/// scheduled upload is delivered and metered.
fn run_sim(grid: &Grid, strategy: &str, cell: Cell, threads: usize) -> Vec<RoundRecord> {
    let seed = 7u64;
    let bench = load_benchmark(&grid.dataset, seed).expect("known dataset");
    let parts = partition_benchmark(&bench, SplitKind::Louvain, grid.clients, seed);
    let model = ModelConfig::paper(ModelKind::Sgc, 32, seed);
    let clients = build_clients(&bench, &parts, &ClientBuildConfig::paper(model, false));
    let parse = |c: Option<&str>| c.map(|c| CodecSpec::parse(c).expect("valid codec spec"));
    let mut sim = Simulation::new(
        clients,
        make_strategy(strategy),
        SimConfig {
            rounds: grid.rounds,
            local_epochs: grid.epochs,
            participation: 1.0,
            eval_every: 1,
            seed,
            threads,
        },
    )
    .with_comms(CommsConfig {
        codec: parse(cell.codec),
        codec_down: parse(cell.down),
        codec_sketch: parse(cell.sketch),
        error_feedback: cell.ef,
        ..CommsConfig::default()
    });
    sim.run()
}

/// Bitwise equality of the fields the determinism contract covers
/// (loss/accuracy bit patterns, participation, every byte counter —
/// both wire legs).
fn records_identical(a: &[RoundRecord], b: &[RoundRecord]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.round == y.round
                && x.mean_loss.to_bits() == y.mean_loss.to_bits()
                && x.test_acc.map(f64::to_bits) == y.test_acc.map(f64::to_bits)
                && x.bytes_uploaded == y.bytes_uploaded
                && x.bytes_uploaded_raw == y.bytes_uploaded_raw
                && x.bytes_uploaded_encoded == y.bytes_uploaded_encoded
                && x.bytes_downloaded_raw == y.bytes_downloaded_raw
                && x.bytes_downloaded_encoded == y.bytes_downloaded_encoded
                && x.participants_completed == y.participants_completed
                && x.participants_dropped == y.participants_dropped
        })
}

/// Learning-trajectory equality only (loss/accuracy bits) — what a
/// lossless configuration owes the plain baseline.
fn trajectories_identical(a: &[RoundRecord], b: &[RoundRecord]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.mean_loss.to_bits() == y.mean_loss.to_bits()
                && x.test_acc.map(f64::to_bits) == y.test_acc.map(f64::to_bits)
        })
}

/// Analytic bits-per-value ratio when the chain is a bare quantizer.
fn value_compression(cell: &Cell) -> Option<f64> {
    if cell.ef || cell.down.is_some() || cell.sketch.is_some() {
        return None;
    }
    match cell.codec {
        None | Some("identity") => Some(1.0),
        Some("quant-i8") => Some(4.0),
        _ => None,
    }
}

/// Runs the sweep (`quick` is the CI smoke grid) with the
/// `--dataset/--rounds/--clients` overrides applied.
pub fn run(quick: bool, over: &Overrides) -> CommsReport {
    let grid = Grid::new(quick, over);
    let mut results = Vec::new();
    for strategy in &grid.strategies {
        let mut baseline: Option<(Vec<RoundRecord>, f64)> = None;
        // Accuracy of each bare cell, so an error-feedback twin can be
        // held to "beats the bare codec".
        let mut bare_acc: Vec<(Cell, f64)> = Vec::new();
        let mut cells = grid.cells.clone();
        if *strategy == "FedGTA" {
            cells.extend(grid.fedgta_extra.iter().copied());
        }
        for cell in cells {
            let label = cell.label();
            let lossless = cell.lossless();
            let r1 = run_sim(&grid, strategy, cell, 1);
            let r4 = run_sim(&grid, strategy, cell, 4);
            let bit_identical_threads = records_identical(&r1, &r4);
            assert!(
                bit_identical_threads,
                "{strategy} × {label}: 1-thread and 4-thread records differ bitwise"
            );
            let best = best_accuracy(&r1);
            let matches_plain = match (&baseline, lossless) {
                (Some((base, _)), true) => {
                    let same = trajectories_identical(&r1, base);
                    assert!(
                        same,
                        "{strategy} × {label}: lossless configuration diverged from plain uploads"
                    );
                    Some(same)
                }
                _ => None,
            };
            if cell.ef {
                // The point of the residual: error feedback must recover
                // accuracy its bare codec threw away. A contract of the
                // committed grid sizes only — at override-shrunk round
                // counts the residual may not have had time to bite, so
                // warn instead of aborting a what-if sweep.
                if let Some((_, bare)) = bare_acc.iter().find(|(c, _)| *c == cell.without_ef()) {
                    let default_size = over.rounds.is_none() && over.clients.is_none();
                    if default_size {
                        assert!(
                            best > *bare,
                            "{strategy} × {label}: error feedback ({best:.4}) \
                             does not beat the bare codec ({bare:.4})"
                        );
                    } else if best <= *bare {
                        eprintln!(
                            "warning: {strategy} × {label}: error feedback ({best:.4}) \
                             does not beat the bare codec ({bare:.4}) at overridden sweep size"
                        );
                    }
                }
            } else {
                bare_acc.push((cell, best));
            }
            let acc_delta_pp = match &baseline {
                Some((_, base_best)) => 100.0 * (best - base_best),
                None => 0.0,
            };
            let bytes_raw: u64 = r1.iter().map(|r| r.bytes_uploaded_raw as u64).sum();
            let bytes_encoded: u64 = r1.iter().map(|r| r.bytes_uploaded_encoded as u64).sum();
            let bytes_down_raw: u64 = r1.iter().map(|r| r.bytes_downloaded_raw as u64).sum();
            let bytes_down_encoded: u64 =
                r1.iter().map(|r| r.bytes_downloaded_encoded as u64).sum();
            results.push(CommsResult {
                strategy: strategy.to_string(),
                codec: label,
                lossless,
                error_feedback: cell.ef,
                bytes_raw,
                bytes_encoded,
                wire_reduction: bytes_raw as f64 / bytes_encoded as f64,
                bytes_down_raw,
                bytes_down_encoded,
                down_reduction: (bytes_down_encoded > 0)
                    .then(|| bytes_down_raw as f64 / bytes_down_encoded as f64),
                value_compression: value_compression(&cell),
                best_acc: best,
                acc_delta_pp,
                bit_identical_threads,
                matches_plain,
            });
            if baseline.is_none() {
                baseline = Some((r1, best));
            }
        }
    }
    CommsReport {
        mode: if quick { "quick" } else { "full" },
        dataset: grid.dataset,
        rounds: grid.rounds,
        results,
    }
}

/// Hand-rolled JSON via the [`crate::format`] helpers (escaped strings,
/// NaN/Inf as `null`).
pub fn to_json(r: &CommsReport) -> String {
    let mut s = String::with_capacity(4096);
    s.push_str("{\n");
    s.push_str(&format!("  \"mode\": {},\n", json_str(r.mode)));
    s.push_str(&format!("  \"dataset\": {},\n", json_str(&r.dataset)));
    s.push_str(&format!("  \"rounds\": {},\n", r.rounds));
    json_rows(&mut s, "results", &r.results, |c| {
        [
            ("strategy", json_str(&c.strategy)),
            ("codec", json_str(&c.codec)),
            ("lossless", c.lossless.to_string()),
            ("error_feedback", c.error_feedback.to_string()),
            ("bytes_raw", c.bytes_raw.to_string()),
            ("bytes_encoded", c.bytes_encoded.to_string()),
            ("wire_reduction", json_fixed(c.wire_reduction, 3)),
            ("bytes_down_raw", c.bytes_down_raw.to_string()),
            ("bytes_down_encoded", c.bytes_down_encoded.to_string()),
            ("down_reduction", json_opt(c.down_reduction.map(|v| json_fixed(v, 3)))),
            ("value_compression", json_opt(c.value_compression.map(|v| json_fixed(v, 1)))),
            ("best_acc", json_f64(c.best_acc)),
            ("acc_delta_pp", json_fixed(c.acc_delta_pp, 2)),
            ("bit_identical_threads", c.bit_identical_threads.to_string()),
            ("matches_plain", json_opt(c.matches_plain)),
        ]
    });
    s.push_str("\n}\n");
    s
}

/// Plain-text Pareto table for terminal output.
pub fn render_table(r: &CommsReport) -> String {
    let mut t = Table::new(&[
        "strategy", "codec", "raw KiB", "enc KiB", "wire x", "down x", "value x", "best acc",
        "Δpp", "1t=4t",
    ]);
    for c in &r.results {
        t.row(vec![
            c.strategy.clone(),
            c.codec.clone(),
            format!("{:.1}", c.bytes_raw as f64 / 1024.0),
            format!("{:.1}", c.bytes_encoded as f64 / 1024.0),
            format!("{:.2}", c.wire_reduction),
            c.down_reduction.map_or_else(|| "-".to_string(), |v| format!("{v:.2}")),
            c.value_compression.map_or_else(|| "-".to_string(), |v| format!("{v:.1}")),
            format!("{:.3}", c.best_acc),
            format!("{:+.2}", c.acc_delta_pp),
            if c.bit_identical_threads { "yes" } else { "NO" }.to_string(),
        ]);
    }
    format!("comms bench ({} mode, {} rounds on {})\n{}", r.mode, r.rounds, r.dataset, t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_meters_compression_and_stays_deterministic() {
        let r = run(true, &Overrides::default());
        assert_eq!(r.results.len(), 5);
        let plain = &r.results[0];
        assert_eq!(plain.codec, "none");
        // Plain uploads: encoded path IS the raw path.
        assert_eq!(plain.bytes_raw, plain.bytes_encoded);
        let i8c = &r.results[1];
        assert_eq!(i8c.codec, "quant-i8");
        assert!(i8c.wire_reduction > 3.5, "quant-i8 wire reduction {}", i8c.wire_reduction);
        let chain = &r.results[3];
        assert!(chain.wire_reduction > i8c.wire_reduction, "topk chain should beat bare quant-i8");
        // The EF twin keeps the chain's wire reduction (residual folding
        // changes the values, not the framing) and run() hard-asserted
        // it beats the bare chain's accuracy.
        let ef = &r.results[4];
        assert!(ef.error_feedback);
        assert_eq!(ef.codec, "topk=64+quant-i8+ef");
        assert!(
            ef.wire_reduction > i8c.wire_reduction,
            "EF chain wire reduction {}",
            ef.wire_reduction
        );
        assert!(ef.best_acc > chain.best_acc, "EF must beat bare top-k");
        assert!(r.results.iter().all(|c| c.bit_identical_threads));
        let json = to_json(&r);
        assert!(json.contains("\"wire_reduction\""));
        assert!(json.contains("\"down_reduction\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let table = render_table(&r);
        assert!(table.contains("quant-i8"));
    }
}
