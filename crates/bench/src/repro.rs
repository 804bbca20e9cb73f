//! The `repro` driver: a table is data, and one loop runs it.
//!
//! A [`TableSpec`] is rows × columns of [`CellSpec`]s plus the formatter
//! its cells share; [`run_table`] renders it as text and records every
//! number as a [`Cell`](crate::claims::Cell). An [`Artefact`] — one of the
//! paper's tables or figures — is a sequence of parts (grids from
//! [`crate::tables`], the four measurements that are not grids from
//! [`crate::artefacts`]) and the [`Claim`]s that read its cells. [`run`]
//! produces a [`Report`]: `results/<id>.txt`, `results/claims.json` and
//! `results/claims.md` are the three renderings of a quick-mode one — the
//! record CI reruns; a `--full` run is printed and judged, not recorded.

use crate::claims::{Cells, Claim, Deviation, Verdict};
use crate::format::{fmt_pm, json_f64, json_str, Table};
use crate::plot::{render_chart, Series};
use crate::runner::{run_experiment, run_global, ExperimentResult, ExperimentSpec};
use crate::{artefacts, tables};
use fedgta_fed::round::RoundRecord;

/// How a table turns one experiment into text and cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellFmt {
    /// `mean±std` of the best test accuracy, in percent.
    MeanStd,
    /// Mean best test accuracy, one decimal.
    Mean,
    /// Wall-clock seconds per round.
    SecPerRound,
    /// Run 0's accuracy at this many evenly spaced rounds, then the best.
    Rounds(usize),
    /// Run 0's `accuracy@seconds` at this many evenly spaced rounds, then
    /// its final accuracy and total seconds.
    Clock(usize),
}

impl CellFmt {
    /// Table columns one experiment fills.
    pub fn width(self) -> usize {
        match self {
            CellFmt::Rounds(n) => n + 1,
            CellFmt::Clock(n) => n + 2,
            _ => 1,
        }
    }

    /// A result with no history behind it (the centralized reference).
    fn scalar(self, mean: f64, std: f64) -> String {
        match self {
            CellFmt::MeanStd => fmt_pm(mean, std),
            _ => format!("{:.1}", 100.0 * mean),
        }
    }

    /// `(text, mean, std, wall_clock)` per column.
    fn render(self, e: &ExperimentSpec, r: &ExperimentResult) -> Vec<(String, f64, f64, bool)> {
        let hist = &r.histories[0];
        let acc = |rec: &RoundRecord| rec.test_acc.unwrap_or(0.0);
        let at = |n: usize| (1..=n).map(move |i| &hist[i * hist.len() / n - 1]);
        let last = hist.last().expect("at least one round");
        match self {
            CellFmt::MeanStd | CellFmt::Mean => {
                vec![(self.scalar(r.mean, r.std), r.mean, r.std, false)]
            }
            CellFmt::SecPerRound => {
                let s = last.cumulative_s / e.rounds as f64;
                vec![(format!("{s:.2}"), s, 0.0, true)]
            }
            CellFmt::Rounds(n) => at(n)
                .map(|rec| (self.scalar(acc(rec), 0.0), acc(rec), 0.0, false))
                .chain([(self.scalar(r.mean, r.std), r.mean, r.std, false)])
                .collect(),
            CellFmt::Clock(n) => at(n)
                .map(|rec| {
                    (
                        format!("{:.1}@{:.0}s", 100.0 * acc(rec), rec.cumulative_s),
                        acc(rec),
                        0.0,
                        false,
                    )
                })
                .chain([
                    (self.scalar(acc(last), 0.0), acc(last), 0.0, false),
                    (format!("{:.1}", last.cumulative_s), last.cumulative_s, 0.0, true),
                ])
                .collect(),
        }
    }
}

/// One cell of a table.
#[derive(Debug, Clone)]
pub enum CellSpec {
    /// A literal (`skip`, `OOM*`, `-`): one column, no number.
    Text(&'static str),
    /// A federated experiment.
    Run(ExperimentSpec),
    /// The same spec's model trained centrally ([`run_global`]): one column.
    Global(ExperimentSpec),
}

/// One row: its labels and the cells after them.
#[derive(Debug, Clone)]
pub struct RowSpec {
    /// Leading label columns.
    pub labels: Vec<String>,
    /// The cells, left to right.
    pub cells: Vec<CellSpec>,
}

impl RowSpec {
    /// A row from its labels and cells.
    pub fn new(labels: &[&str], cells: impl IntoIterator<Item = CellSpec>) -> Self {
        Self {
            labels: labels.iter().map(|s| s.to_string()).collect(),
            cells: cells.into_iter().collect(),
        }
    }

    /// Columns the row fills under `fmt`.
    pub fn width(&self, fmt: CellFmt) -> usize {
        let cells =
            self.cells.iter().map(|c| if matches!(c, CellSpec::Run(_)) { fmt.width() } else { 1 });
        self.labels.len() + cells.sum::<usize>()
    }
}

/// One table of an artefact.
#[derive(Debug, Clone)]
pub struct TableSpec {
    /// The `table` key of its cells.
    pub id: &'static str,
    /// Prefix of its row keys, for tables printed once per dataset or knob.
    pub group: String,
    /// Text before the table.
    pub before: String,
    /// Column headers; the ones after the labels are the cells' `col` keys.
    pub header: Vec<String>,
    /// The rows.
    pub rows: Vec<RowSpec>,
    /// The formatter every `Run` cell shares.
    pub fmt: CellFmt,
    /// Height of the ASCII chart of run 0's accuracy curves, if one follows.
    pub chart: Option<usize>,
    /// Text after the table.
    pub after: String,
}

impl TableSpec {
    /// The key of `row`'s cells.
    pub fn row_key(&self, row: &RowSpec) -> String {
        let parts = std::iter::once(&self.group).chain(&row.labels).filter(|s| !s.is_empty());
        parts.map(String::as_str).collect::<Vec<_>>().join("|")
    }
}

/// Runs every cell of `spec`, appending its text to `out` and its numbers
/// to `cells`.
pub fn run_table(spec: &TableSpec, out: &mut String, cells: &mut Cells) {
    let header: Vec<&str> = spec.header.iter().map(String::as_str).collect();
    let mut table = Table::new(&header);
    let mut series = Vec::new();
    for row in &spec.rows {
        let key = spec.row_key(row);
        let mut texts = row.labels.clone();
        for cell in &row.cells {
            let (runs, rendered) = match cell {
                CellSpec::Text(s) => {
                    texts.push(s.to_string());
                    continue;
                }
                CellSpec::Global(e) => {
                    let r = run_global(e);
                    (e.runs, vec![(spec.fmt.scalar(r.mean, r.std), r.mean, r.std, false)])
                }
                CellSpec::Run(e) => {
                    let r = run_experiment(e);
                    if spec.chart.is_some() {
                        let clock = matches!(spec.fmt, CellFmt::Clock(_));
                        let x = |rec: &RoundRecord| {
                            if clock {
                                rec.cumulative_s
                            } else {
                                rec.round as f64
                            }
                        };
                        let points = r.histories[0]
                            .iter()
                            .filter_map(|rec| Some((x(rec), 100.0 * rec.test_acc?)));
                        series.push(Series {
                            name: e.strategy.label.to_string(),
                            points: points.collect(),
                        });
                    }
                    (e.runs, spec.fmt.render(e, &r))
                }
            };
            for (text, mean, std, wall_clock) in rendered {
                let col = &spec.header[texts.len()];
                eprintln!("[{}] {key} {col} -> {text}", spec.id);
                cells.push(spec.id, &key, col, mean, std, runs, wall_clock);
                texts.push(text);
            }
        }
        table.row(texts);
    }
    out.push_str(&spec.before);
    out.push_str(&table.render());
    if let Some(height) = spec.chart {
        out.push_str(&format!("\n{}\n", render_chart(&series, 70, height)));
    }
    out.push_str(&spec.after);
}

/// One piece of an artefact.
pub enum Part {
    /// Tables run by [`run_table`]; the argument is `--full`.
    Grid(fn(bool) -> Vec<TableSpec>),
    /// A measurement that is not a grid of experiments.
    Custom(fn(bool, &mut String, &mut Cells)),
}

/// One of the paper's tables or figures.
pub struct Artefact {
    /// `repro <id>`, `results/<id>.txt`.
    pub id: &'static str,
    /// What it prints, in order.
    pub parts: &'static [Part],
    /// The claims that read its cells.
    pub claims: &'static [Claim],
}

/// Every artefact `repro all` regenerates, in EXPERIMENTS.md order.
pub const ARTEFACTS: &[Artefact] = &[
    Artefact { id: "table1", parts: &[Part::Custom(artefacts::table1)], claims: artefacts::TABLE1 },
    Artefact { id: "table2", parts: &[Part::Custom(artefacts::table2)], claims: artefacts::TABLE2 },
    Artefact { id: "table3", parts: &[Part::Grid(tables::table3)], claims: tables::TABLE3 },
    Artefact { id: "table4", parts: &[Part::Grid(tables::table4)], claims: tables::TABLE4 },
    Artefact { id: "table5", parts: &[Part::Grid(tables::table5)], claims: tables::TABLE5 },
    Artefact {
        id: "table6",
        parts: &[Part::Grid(tables::table6), Part::Grid(tables::sweep)],
        claims: tables::TABLE6,
    },
    Artefact {
        id: "fig1",
        parts: &[Part::Custom(artefacts::fig1a), Part::Grid(tables::fig1b)],
        claims: tables::FIG1,
    },
    Artefact { id: "fig3", parts: &[Part::Custom(artefacts::fig3)], claims: artefacts::FIG3 },
    Artefact { id: "fig4", parts: &[Part::Grid(tables::fig4)], claims: tables::FIG4 },
    Artefact { id: "fig5", parts: &[Part::Grid(tables::fig5)], claims: tables::FIG5 },
    Artefact { id: "fig6", parts: &[Part::Grid(tables::fig6)], claims: tables::FIG6 },
    Artefact { id: "extensions", parts: &[Part::Grid(tables::extensions)], claims: &[] },
];

/// What a `repro` run produced.
pub struct Report {
    /// Each artefact's text, what `results/<id>.txt` holds.
    pub texts: Vec<(&'static str, String)>,
    /// Every cell.
    pub cells: Cells,
    /// Each claim's verdict, with the artefact it belongs to.
    pub verdicts: Vec<(&'static str, &'static Claim, Verdict)>,
}

/// Runs `artefacts` and judges their claims.
pub fn run(artefacts: &[&'static Artefact], full: bool) -> Report {
    let mut report = Report { texts: Vec::new(), cells: Cells::default(), verdicts: Vec::new() };
    for a in artefacts {
        let mut text = String::new();
        for part in a.parts {
            match part {
                Part::Grid(specs) => {
                    specs(full).iter().for_each(|s| run_table(s, &mut text, &mut report.cells))
                }
                Part::Custom(f) => f(full, &mut text, &mut report.cells),
            }
        }
        report.texts.push((a.id, text));
        report.verdicts.extend(a.claims.iter().map(|c| (a.id, c, (c.check)(&report.cells))));
    }
    report
}

fn deviation_of(id: &str) -> Option<usize> {
    tables::DEVIATIONS.iter().position(|d| d.0.contains(&id)).map(|i| i + 1)
}

fn holds_str(holds: Option<bool>) -> String {
    holds.map_or("null".to_string(), |h| h.to_string())
}

impl Report {
    /// `results/claims.json`: one cell and one claim per line, floats in
    /// round-trip formatting so two runs can be diffed bit for bit.
    pub fn to_json(&self) -> String {
        let cells = self.cells.0.iter().map(|c| {
            format!(
                "    {{\"table\": {}, \"row\": {}, \"col\": {}, \"mean\": {}, \"std\": {}, \"runs\": {}, \"wall_clock\": {}}}",
                json_str(&c.table), json_str(&c.row), json_str(&c.col), json_f64(c.mean), json_f64(c.std), c.runs, c.wall_clock
            )
        });
        let claims = self.verdicts.iter().map(|(artefact, c, v)| {
            format!(
                "    {{\"id\": {}, \"artefact\": {}, \"holds\": {}, \"deviation\": {}, \"paper\": {}, \"measured\": {}}}",
                json_str(c.id),
                json_str(artefact),
                holds_str(v.holds),
                deviation_of(c.id).map_or("null".to_string(), |d| d.to_string()),
                json_str(c.paper),
                json_str(&v.measured)
            )
        });
        format!(
            "{{\n  \"cells\": [\n{}\n  ],\n  \"claims\": [\n{}\n  ]\n}}\n",
            cells.collect::<Vec<_>>().join(",\n"),
            claims.collect::<Vec<_>>().join(",\n")
        )
    }

    /// `results/claims.md`: the paper-vs-measured table and the numbered
    /// deviations.
    pub fn to_markdown(&self) -> String {
        let mut s = "# Claims — paper vs. measured (quick mode)\n\nGenerated by `repro all`; do not edit. Cells: \
                     `results/claims.json`, raw tables: `results/<artefact>.txt`.\n\n\
                     | claim | artefact | paper | measured | verdict | deviation |\n|---|---|---|---|---|---|\n"
            .to_string();
        for (artefact, c, v) in &self.verdicts {
            let verdict = match v.holds {
                Some(true) => "✓",
                Some(false) => "✗",
                None => "not judged",
            };
            let deviation = deviation_of(c.id).map_or("—".to_string(), |d| format!("#{d}"));
            s.push_str(&format!(
                "| `{}` | {artefact} | {} | {} | {verdict} | {deviation} |\n",
                c.id, c.paper, v.measured
            ));
        }
        s.push_str("\n## Deviations\n\nWhere the tip disagrees with the paper. Recorded, not yet explained (ROADMAP item 1c).\n\n");
        for (i, Deviation(claims, what)) in tables::DEVIATIONS.iter().enumerate() {
            s.push_str(&format!("{}. {what} (`{}`)\n", i + 1, claims.join("`, `")));
        }
        s
    }

    /// The claims whose verdict differs from the one `committed` (an
    /// earlier [`Report::to_json`]) records, one line each.
    pub fn flipped(&self, committed: &str) -> Vec<String> {
        let recorded: Vec<(String, Option<bool>)> = committed
            .lines()
            .filter_map(|l| {
                fedgta_obs::trace::parse_flat_object(l.trim().trim_end_matches(',')).ok()
            })
            .filter_map(|o| {
                Some((
                    o.get("id")?.as_str()?.to_string(),
                    o.get("holds")?.as_f64().map(|h| h != 0.0),
                ))
            })
            .collect();
        let mut flips = Vec::new();
        for (_, c, v) in &self.verdicts {
            let was = recorded.iter().find(|(id, _)| id == c.id).map(|r| r.1);
            if was != Some(v.holds) {
                let was = was.map_or("nothing".to_string(), holds_str);
                flips.push(format!(
                    "{}: recorded {was}, measured {} — {}",
                    c.id,
                    holds_str(v.holds),
                    v.measured
                ));
            }
        }
        flips
    }
}
