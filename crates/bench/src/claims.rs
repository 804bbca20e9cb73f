//! Cells and claims: every number a table prints is a [`Cell`], every
//! sentence EXPERIMENTS.md used to tick is a [`Claim`] — a predicate over
//! the cells, judged with the ± the run itself measured.
//!
//! "`a` is ahead of `b`" means `a.mean ≥ b.mean − σ` with σ the larger of
//! the two measured standard deviations ([`ahead`]); every ordering claim
//! uses that one reading. Wall-clock cells are recorded but never judged:
//! [`Cells::get`] and [`Cells::of`] do not return them.

use crate::format::fmt_pm;

/// One measured number of one table.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Table id (`table3`, `fig4`, `sweep`, …).
    pub table: String,
    /// Row key: the table's group and the row's labels joined by `|`.
    pub row: String,
    /// Column header.
    pub col: String,
    /// Mean over runs (a fraction for accuracies).
    pub mean: f64,
    /// Population standard deviation over runs.
    pub std: f64,
    /// Runs behind the mean.
    pub runs: usize,
    /// Whether the value is a timing, which moves run to run.
    pub wall_clock: bool,
}

/// Every cell of a `repro` run, in table order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Cells(pub Vec<Cell>);

/// What a claim's predicate found.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// `None` when the claim is about wall-clock cells and is not judged.
    pub holds: Option<bool>,
    /// The cells the verdict rests on, for `claims.md`.
    pub measured: String,
}

/// One of the paper's statements as a predicate over cells.
pub struct Claim {
    /// Stable id, `<artefact>.<what>`.
    pub id: &'static str,
    /// The paper's statement.
    pub paper: &'static str,
    /// The predicate.
    pub check: fn(&Cells) -> Verdict,
}

/// `h` is not below `r` by more than one measured σ.
pub fn ahead(h: &Cell, r: &Cell) -> bool {
    h.mean >= r.mean - h.std.max(r.std)
}

/// Within 2 pp plus one measured σ of each other.
pub fn near(h: &Cell, r: &Cell) -> bool {
    (h.mean - r.mean).abs() <= 0.02 + h.std.max(r.std)
}

fn is_row(row: &str, name: &str) -> bool {
    row.strip_suffix(name).is_some_and(|g| g.is_empty() || g.ends_with('|'))
}

fn pm(c: &Cell) -> String {
    fmt_pm(c.mean, c.std)
}

impl Cells {
    /// Records one cell.
    #[allow(clippy::too_many_arguments)]
    pub fn push(
        &mut self,
        table: &str,
        row: &str,
        col: &str,
        mean: f64,
        std: f64,
        runs: usize,
        wall_clock: bool,
    ) {
        let (table, row, col) = (table.to_string(), row.to_string(), col.to_string());
        self.0.push(Cell { table, row, col, mean, std, runs, wall_clock });
    }

    /// The judged cells of `table`.
    pub fn of<'a>(&'a self, table: &'a str) -> impl Iterator<Item = &'a Cell> {
        self.0.iter().filter(move |c| c.table == table && !c.wall_clock)
    }

    /// One judged cell.
    pub fn get(&self, table: &str, row: &str, col: &str) -> Option<&Cell> {
        self.0.iter().find(|c| c.table == table && c.row == row && c.col == col && !c.wall_clock)
    }

    /// In every group of `table` (and only column `col`, if given) the row
    /// `hero` satisfies `rule` against each of the group's `rivals`.
    pub fn compare(
        &self,
        table: &str,
        hero: &str,
        rivals: &[&str],
        col: Option<&str>,
        rule: fn(&Cell, &Cell) -> bool,
    ) -> Verdict {
        let mut holds = true;
        let mut measured = Vec::new();
        for h in self.of(table).filter(|c| is_row(&c.row, hero) && col.is_none_or(|k| c.col == k)) {
            let group = &h.row[..h.row.len() - hero.len()];
            let mut found: Vec<&Cell> = rivals
                .iter()
                .filter_map(|r| self.get(table, &format!("{group}{r}"), &h.col))
                .collect();
            found.sort_by(|a, b| b.mean.total_cmp(&a.mean));
            let Some(shown) = found.iter().find(|r| !rule(h, r)).or(found.first()) else {
                continue;
            };
            let ok = rule(h, shown);
            holds &= ok;
            measured.push(format!(
                "{} {}: {} vs {} {}{}",
                h.row.replace('|', " "),
                h.col,
                pm(h),
                shown.row[group.len()..].replace('|', " "),
                pm(shown),
                if ok { "" } else { " ✗" }
            ));
        }
        Verdict { holds: Some(holds && !measured.is_empty()), measured: measured.join("; ") }
    }

    /// No row of `table` prints its group's `anchor` row's `mean±std` in
    /// every column — a baseline that does never exercised its mechanism.
    pub fn no_twin(&self, table: &str, anchor: &str) -> Verdict {
        let mut rows: Vec<&str> = self.of(table).map(|c| c.row.as_str()).collect();
        rows.dedup();
        let twins: Vec<String> = rows
            .iter()
            .filter(|row| !is_row(row, anchor))
            .filter(|row| {
                let group = row.rfind('|').map_or("", |i| &row[..=i]);
                self.of(table).filter(|c| c.row == **row).all(|c| {
                    self.get(table, &format!("{group}{anchor}"), &c.col)
                        .is_some_and(|a| pm(a) == pm(c))
                })
            })
            .map(|row| row.replace('|', " "))
            .collect();
        let anchors = rows.iter().filter(|row| is_row(row, anchor)).count();
        Verdict {
            holds: Some(twins.is_empty() && anchors > 0),
            measured: if twins.is_empty() {
                format!(
                    "no row equals {anchor} in every cell ({} rows, {anchors} groups)",
                    rows.len()
                )
            } else {
                format!("identical to {anchor} in every cell: {}", twins.join(", "))
            },
        }
    }
}

/// A claim about timings: recorded, not judged.
pub fn unjudged(_: &Cells) -> Verdict {
    Verdict { holds: None, measured: "wall-clock cells only — recorded, not judged".to_string() }
}

/// A known disagreement with the paper at the tip: the ids of the claims
/// that fail because of it and one line on what the run shows. The number
/// is the entry's position, from 1; none is explained yet (ROADMAP 1c).
pub struct Deviation(pub &'static [&'static str], pub &'static str);
