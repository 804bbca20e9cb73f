//! The `repro` driver without the training: every claim predicate against
//! a hand-built passing and failing fixture, every `TableSpec` checked for
//! shape, one tiny table run twice, and the binary's argument handling.

use fedgta_bench::claims::{Cells, Verdict};
use fedgta_bench::repro::{
    run_table, Artefact, CellFmt, CellSpec, Part, Report, RowSpec, TableSpec, ARTEFACTS,
};
use fedgta_bench::tables::DEVIATIONS;
use fedgta_bench::{make_strategy, ExperimentSpec, StrategySpec};
use fedgta_data::SPECS;
use fedgta_nn::models::ModelKind;
use std::collections::BTreeSet;

/// Cells of one table column: `(row, mean)` each, σ = 1 pp, two runs.
fn column(table: &str, col: &str, rows: &[(&str, f64)]) -> Cells {
    let mut cells = Cells::default();
    for (row, mean) in rows {
        cells.push(table, row, col, *mean, 0.01, 2, false);
    }
    cells
}

fn check(id: &str, cells: &Cells) -> Verdict {
    let claim = ARTEFACTS
        .iter()
        .flat_map(|a| a.claims)
        .find(|c| c.id == id)
        .unwrap_or_else(|| panic!("no claim {id}"));
    (claim.check)(cells)
}

/// `(claim, table, column, rows that satisfy it, rows that break it)`.
type Fixture = (
    &'static str,
    &'static str,
    &'static str,
    &'static [(&'static str, f64)],
    &'static [(&'static str, f64)],
);

const FIXTURES: &[Fixture] = &[
    (
        "t1.upload-601-vs-10856-floats",
        "table1/upload",
        "floats",
        &[("model weights (all strategies)", 10856.0), ("FedGTA extras (k=5, K=3, c=40)", 601.0)],
        &[("model weights (all strategies)", 10856.0), ("FedGTA extras (k=5, K=3, c=40)", 801.0)],
    ),
    (
        "t3.global-on-top",
        "table3",
        "cora",
        &[("GCN|Global", 0.80), ("GCN|FedAvg", 0.70), ("GCN|FedGTA", 0.75)],
        &[("GCN|Global", 0.70), ("GCN|FedAvg", 0.70), ("GCN|FedGTA", 0.75)],
    ),
    (
        "t3.fedgta-best",
        "table3",
        "cora",
        &[("GAMLP|FedGTA", 0.75), ("GAMLP|FedAvg", 0.70), ("GAMLP|GCFL+", 0.755)],
        &[("GAMLP|FedGTA", 0.75), ("GAMLP|FedAvg", 0.70), ("GAMLP|GCFL+", 0.78)],
    ),
    (
        "t3.cv-baselines-near-fedavg",
        "table3",
        "cora",
        &[("GCN|FedAvg", 0.70), ("GCN|FedProx", 0.71), ("GCN|MOON", 0.68), ("GCN|FedDC", 0.725)],
        &[("GCN|FedAvg", 0.70), ("GCN|FedProx", 0.71), ("GCN|MOON", 0.68), ("GCN|FedDC", 0.60)],
    ),
    (
        "t3.fgl-models-competitive",
        "table3",
        "cora",
        &[("GCN|FedAvg", 0.70), ("FedGL|FedAvg", 0.72), ("FedSage|FedAvg", 0.695)],
        &[("GCN|FedAvg", 0.70), ("FedGL|FedAvg", 0.72), ("FedSage|FedAvg", 0.50)],
    ),
    (
        "t3.no-baseline-equals-fedavg-in-every-cell",
        "table3",
        "cora",
        &[("GCN|FedAvg", 0.70), ("GCN|GCFL+", 0.71), ("GAMLP|FedAvg", 0.6), ("GAMLP|GCFL+", 0.70)],
        &[("GCN|FedAvg", 0.70), ("GCN|GCFL+", 0.71), ("GAMLP|FedAvg", 0.6), ("GAMLP|GCFL+", 0.6)],
    ),
    (
        "t4.fedgta-first",
        "table4",
        "flickr",
        &[("SIGN|FedGTA", 0.40), ("SIGN|Scaffold", 0.405)],
        &[("SIGN|FedGTA", 0.40), ("SIGN|Scaffold", 0.42)],
    ),
    (
        "t4.no-baseline-equals-fedavg-in-every-cell",
        "table4",
        "flickr",
        &[("S2GC|FedAvg", 0.38), ("S2GC|GCFL+", 0.39)],
        &[("S2GC|FedAvg", 0.38), ("S2GC|GCFL+", 0.38)],
    ),
    (
        "t5.fedgta-inner-best",
        "table5",
        "flickr",
        &[
            ("FedGL|FedGTA", 0.50),
            ("FedGL|FedAvg", 0.505),
            ("FedSage+|FedGTA", 0.42),
            ("FedSage+|MOON", 0.40),
        ],
        &[
            ("FedGL|FedGTA", 0.48),
            ("FedGL|FedAvg", 0.505),
            ("FedSage+|FedGTA", 0.42),
            ("FedSage+|MOON", 0.40),
        ],
    ),
    (
        "t5.no-baseline-equals-fedavg-in-every-cell",
        "table5",
        "flickr",
        &[("FedGL|FedAvg", 0.50), ("FedGL|MOON", 0.49)],
        &[("FedGL|FedAvg", 0.50), ("FedGL|MOON", 0.50)],
    ),
    (
        "t6.full-ge-ablations",
        "table6",
        "amazon-photo (Metis)",
        &[("SGC|FedGTA", 0.92), ("SGC|w/o Mom.", 0.91), ("SGC|w/o Conf.", 0.925)],
        &[("SGC|FedGTA", 0.88), ("SGC|w/o Mom.", 0.92), ("SGC|w/o Conf.", 0.91)],
    ),
    (
        "t6.gbp-collapses-without-moments",
        "table6",
        "amazon-photo (Louvain)",
        &[("GBP|FedGTA", 0.86), ("GBP|w/o Mom.", 0.43), ("SGC|FedGTA", 0.9), ("SGC|w/o Mom.", 0.9)],
        &[
            ("GBP|FedGTA", 0.86),
            ("GBP|w/o Mom.", 0.855),
            ("SGC|FedGTA", 0.9),
            ("SGC|w/o Mom.", 0.5),
        ],
    ),
    (
        "sweep.resolves",
        "sweep",
        "acc",
        &[("K|1", 0.70), ("K|3", 0.74), ("epsilon|0", 0.74), ("epsilon|0.99", 0.71)],
        &[("K|1", 0.747), ("K|3", 0.748), ("epsilon|0", 0.74), ("epsilon|0.99", 0.71)],
    ),
    (
        "f1.louvain-skew",
        "fig1a",
        "top-class share",
        &[("Louvain", 0.53), ("Metis", 0.50), ("uniform", 0.14)],
        &[("Louvain", 0.45), ("Metis", 0.50), ("uniform", 0.14)],
    ),
    (
        "f1.global-on-top",
        "fig1b",
        "best",
        &[("Global", 0.75), ("Local", 0.73), ("FedGTA", 0.72)],
        &[("Global", 0.70), ("Local", 0.73), ("FedGTA", 0.72)],
    ),
    (
        "f1.fedgta-above-federated-baselines",
        "fig1b",
        "best",
        &[("FedGTA", 0.72), ("FedDC", 0.67), ("Local", 0.73)],
        &[("FedGTA", 0.62), ("FedDC", 0.67), ("Local", 0.73)],
    ),
    (
        "f1.fedavg-above-local",
        "fig1b",
        "best",
        &[("FedAvg", 0.72), ("Local", 0.70)],
        &[("FedAvg", 0.65), ("Local", 0.73)],
    ),
    (
        "f4.fedgta-highest-final",
        "fig4",
        "final acc",
        &[
            ("flickr|FedGTA", 0.44),
            ("flickr|FedDC", 0.40),
            ("ogbn-arxiv|FedGTA", 0.94),
            ("ogbn-arxiv|FedDC", 0.945),
        ],
        &[
            ("flickr|FedGTA", 0.44),
            ("flickr|FedDC", 0.40),
            ("ogbn-arxiv|FedGTA", 0.91),
            ("ogbn-arxiv|FedDC", 0.947),
        ],
    ),
    (
        "f4.no-baseline-equals-fedavg-in-every-cell",
        "fig4",
        "final acc",
        &[("flickr|FedAvg", 0.40), ("flickr|GCFL+", 0.41)],
        &[("flickr|FedAvg", 0.40), ("flickr|GCFL+", 0.40)],
    ),
    (
        "f6.fedgta-robust-at-10pct",
        "fig6",
        "10%",
        &[("ogbn-arxiv|FedGTA", 0.62), ("ogbn-arxiv|FedDC", 0.42)],
        &[("ogbn-arxiv|FedGTA", 0.32), ("ogbn-arxiv|FedDC", 0.42)],
    ),
    (
        "f6.no-baseline-equals-fedavg-in-every-cell",
        "fig6",
        "10%",
        &[("ogbn-arxiv|FedAvg", 0.37), ("ogbn-arxiv|MOON", 0.36)],
        &[("ogbn-arxiv|FedAvg", 0.37), ("ogbn-arxiv|MOON", 0.37)],
    ),
];

#[test]
fn every_claim_has_a_passing_and_a_failing_fixture() {
    for (id, table, col, pass, fail) in FIXTURES {
        let (good, bad) =
            (check(id, &column(table, col, pass)), check(id, &column(table, col, fail)));
        assert_eq!(good.holds, Some(true), "{id} passing fixture: {}", good.measured);
        assert_eq!(bad.holds, Some(false), "{id} failing fixture: {}", bad.measured);
        assert_eq!(check(id, &Cells::default()).holds, Some(false), "{id} holds over no cells");
    }
    // Table 2 reads the catalog: every count on spec, then one node short.
    let table2 = |nodes: usize| {
        let spec = &SPECS[0];
        let mut cells = Cells::default();
        for (col, n) in
            [("#Nodes", nodes), ("#Features", spec.features), ("#Classes", spec.classes)]
        {
            cells.push("table2", spec.name, col, n as f64, 0.0, 1, false);
        }
        check("t2.counts-match-spec", &cells).holds
    };
    assert_eq!((table2(SPECS[0].nodes), table2(SPECS[0].nodes - 1)), (Some(true), Some(false)));
    // Fig. 3: a member at 0.62 and an outsider at 0.41 straddle ε = 0.5;
    // an outsider at 0.55 should have been a member.
    let fig3 = |outsider: f64| {
        let mut cells = Cells::default();
        for (col, value) in
            [("epsilon", 0.5), ("least similar member", 0.62), ("most similar outsider", outsider)]
        {
            cells.push("fig3", "report", col, value, 0.0, 1, false);
        }
        check("f3.sets-are-pairs-above-eps", &cells).holds
    };
    assert_eq!((fig3(0.41), fig3(0.55)), (Some(true), Some(false)));
    assert_eq!(check("f3.sets-are-pairs-above-eps", &Cells::default()).holds, Some(false));
    // Timings are never judged, and never reach a predicate.
    assert_eq!(check("f5.cost-flat-in-clients", &Cells::default()).holds, None);
    let mut timed = column("fig1b", "best", &[("FedAvg", 0.72)]);
    timed.push("fig1b", "Local", "best", 0.9, 0.0, 1, true);
    assert_eq!(timed.get("fig1b", "Local", "best"), None);
    assert_eq!(timed.of("fig1b").count(), 1);

    let ids: BTreeSet<&str> = ARTEFACTS.iter().flat_map(|a| a.claims).map(|c| c.id).collect();
    let covered: BTreeSet<&str> = FIXTURES
        .iter()
        .map(|f| f.0)
        .chain(["t2.counts-match-spec", "f3.sets-are-pairs-above-eps", "f5.cost-flat-in-clients"])
        .collect();
    assert_eq!(ids, covered, "claims and fixtures must match one to one");
    for id in DEVIATIONS.iter().flat_map(|d| d.0) {
        assert!(ids.contains(id), "deviation names unknown claim {id}");
    }
}

fn grids(a: &Artefact) -> impl Iterator<Item = TableSpec> + '_ {
    let specs = |full| {
        a.parts.iter().flat_map(move |p| if let Part::Grid(f) = p { f(full) } else { Vec::new() })
    };
    specs(false).chain(specs(true))
}

#[test]
fn every_table_spec_is_well_formed() {
    for a in ARTEFACTS {
        for full in [false, true] {
            let mut keys = BTreeSet::new();
            for part in a.parts {
                let Part::Grid(specs) = part else { continue };
                for t in specs(full) {
                    for row in &t.rows {
                        assert_eq!(
                            row.width(t.fmt),
                            t.header.len(),
                            "{} row {:?}",
                            t.id,
                            row.labels
                        );
                        for col in &t.header[row.labels.len()..] {
                            assert!(
                                keys.insert((t.id, t.row_key(row), col.clone())),
                                "{}: duplicate cell {} / {col}",
                                t.id,
                                t.row_key(row)
                            );
                        }
                    }
                }
            }
        }
        for t in grids(a) {
            for cell in t.rows.iter().flat_map(|r| &r.cells) {
                let (CellSpec::Run(e) | CellSpec::Global(e)) = cell else { continue };
                assert!(
                    !(e.strategy.make)().name().is_empty(),
                    "{}: {} builds",
                    t.id,
                    e.strategy.label
                );
                assert!(
                    SPECS.iter().any(|s| s.name == e.dataset),
                    "{}: unknown dataset {}",
                    t.id,
                    e.dataset
                );
                assert!(e.runs > 0 && e.rounds > 0 && e.clients > 0);
            }
        }
    }
    assert!(
        ARTEFACTS.iter().flat_map(grids).count() >= 2 * 14,
        "quick and full grids of every table"
    );
}

fn tiny_table() -> TableSpec {
    let spec = |strategy| ExperimentSpec {
        clients: 4,
        rounds: 2,
        runs: 2,
        ..ExperimentSpec::new("cora", ModelKind::Sgc, strategy)
    };
    let fedavg = StrategySpec { label: "FedAvg", make: || make_strategy("FedAvg") };
    let fedgta = StrategySpec { label: "FedGTA", make: || make_strategy("FedGTA") };
    TableSpec {
        id: "tiny",
        group: "g".into(),
        before: "three cells\n\n".into(),
        header: vec!["strategy".into(), "cora".into()],
        rows: vec![
            RowSpec::new(&["Global"], [CellSpec::Global(spec(fedavg))]),
            RowSpec::new(&["FedAvg"], [CellSpec::Run(spec(fedavg))]),
            RowSpec::new(&["FedGTA"], [CellSpec::Run(spec(fedgta))]),
        ],
        fmt: CellFmt::MeanStd,
        chart: None,
        after: String::new(),
    }
}

#[test]
fn a_table_run_twice_is_byte_identical_in_text_and_json() {
    let run = || {
        let (mut text, mut cells) = (String::new(), Cells::default());
        run_table(&tiny_table(), &mut text, &mut cells);
        let json = Report { texts: Vec::new(), cells, verdicts: Vec::new() }.to_json();
        (text, json)
    };
    let (first, second) = (run(), run());
    assert_eq!(first, second);
    assert!(first.0.starts_with("three cells\n\n| strategy | cora"), "{}", first.0);
    assert_eq!(first.1.matches("\"table\": \"tiny\"").count(), 3);
    assert!(first.1.contains("\"row\": \"g|FedGTA\", \"col\": \"cora\""), "{}", first.1);
}

#[test]
fn a_flipped_or_missing_verdict_is_reported_against_the_record() {
    let (artefact, claim) = ARTEFACTS.iter().find_map(|a| Some((a.id, a.claims.first()?))).unwrap();
    let verdict = Verdict { holds: Some(true), measured: "fixture ± 0.1".into() };
    let report = Report {
        texts: Vec::new(),
        cells: Cells::default(),
        verdicts: vec![(artefact, claim, verdict)],
    };
    let json = report.to_json();
    assert_eq!(report.flipped(&json), Vec::<String>::new());
    let flipped = report.flipped(&json.replace("\"holds\": true", "\"holds\": false"));
    assert!(flipped.len() == 1 && flipped[0].starts_with(claim.id), "{flipped:?}");
    assert_eq!(report.flipped("").len(), 1, "a claim with no record counts as flipped");
    assert!(report.to_markdown().contains(claim.id));
}

#[test]
fn rejects_an_unknown_target_naming_the_valid_ones() {
    let repro = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().unwrap()
    };
    for args in [
        &["nope"][..],
        &[],
        &["table2", "--test"],
        &["kernels", "--mode", "quick"],
        &["table2", "--out", "x"],
    ] {
        let out = repro(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success() && out.stdout.is_empty(), "{args:?}: {err}");
        if args.len() < 2 {
            for valid in ["table3", "fig6", "extensions", "all", "kernels", "scale"] {
                assert!(err.contains(valid), "{args:?} should name {valid}: {err}");
            }
        }
    }
}
