//! The four artefacts that are not grids of experiments — Table 1's
//! complexity measurements, Table 2's dataset statistics, the client ×
//! class heat-map of Fig. 1(a) / 3(a) and Fig. 3(b)'s aggregation report —
//! each appending its text and cells like [`crate::repro::run_table`] does,
//! and the claims that read them.

use crate::claims::{Cells, Claim, Verdict};
use crate::format::Table;
use crate::runner::{partition_benchmark, SplitKind};
use fedgta::aggregate::{personalized_aggregate, AggregateOptions, ClientUpload};
use fedgta::{
    label_propagation, local_smoothing_confidence, mixed_moments, FedGta, FedGtaConfig,
    SimilarityKind,
};
use fedgta_data::{generate_from_spec, load_benchmark, Benchmark, DatasetSpec, Task, SPECS};
use fedgta_fed::client::{build_clients, ClientBuildConfig};
use fedgta_fed::eval::global_test_accuracy;
use fedgta_fed::strategies::{RoundCtx, Row, Strategy};
use fedgta_graph::metrics::{degree_stats, edge_homophily};
use fedgta_nn::models::{ModelConfig, ModelKind};
use fedgta_nn::Matrix;
use fedgta_obs::timed;
use fedgta_partition::Partition;

/// Appends a table of measurements: `labels` head the text columns (the
/// first is the row key), `cols` the numeric ones with their decimals, and
/// each row is its texts and then one value per numeric column — a cell.
fn push_table(
    id: &str,
    wall_clock: bool,
    labels: &[&str],
    cols: &[(&str, usize)],
    rows: Vec<(Vec<String>, Vec<f64>)>,
    out: &mut String,
    cells: &mut Cells,
) {
    let header: Vec<&str> = labels.iter().copied().chain(cols.iter().map(|c| c.0)).collect();
    let mut table = Table::new(&header);
    for (mut texts, values) in rows {
        let key = texts[0].clone();
        for (&(col, decimals), value) in cols.iter().zip(values) {
            cells.push(id, &key, col, value, 0.0, 1, wall_clock);
            texts.push(format!("{value:.decimals$}"));
        }
        table.row(texts);
    }
    out.push_str(&table.render());
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Table 1 — the complexity analysis, measured: FedGTA's client-side
/// metric cost against subgraph size (`O(k·m·c)`, training-independent),
/// upload floats (`O(f²)` parameters against `O(kKc)` extras), server time
/// against participants (`O(N)` against `O(N + NkKc)`), and the paper's
/// §4.5 per-backbone inference times. Everything but the upload is timing.
pub fn table1(full: bool, out: &mut String, cells: &mut Cells) {
    let cfg = FedGtaConfig::default();
    let probe = |nodes| DatasetSpec {
        name: "scale",
        nodes,
        features: 32,
        classes: 8,
        avg_degree: 10.0,
        train_frac: 0.5,
        val_frac: 0.2,
        test_frac: 0.3,
        task: Task::Transductive,
        blocks_per_class: 2,
        homophily: 0.8,
        description: "scaling probe",
    };
    let sizes: &[usize] = if full { &[1000, 4000, 16000, 64000] } else { &[1000, 4000, 16000] };
    let rows = sizes.iter().map(|&n| {
        let data = generate_from_spec(&probe(n), 0).to_dataset();
        let soft = Matrix::from_vec(n, 8, vec![1.0 / 8.0; n * 8]);
        let (_, ns) = timed("table1.client_metrics", || {
            let steps = label_propagation(&data.adj_norm, &soft, cfg.k_lp, cfg.alpha);
            let _h = local_smoothing_confidence(steps.last().unwrap(), &data.degrees_hat);
            let _m = mixed_moments(&steps, cfg.moment_order, cfg.moment_kind);
        });
        let edges = data.adj_norm.num_edges();
        (vec![n.to_string(), edges.to_string()], vec![ms(ns), ns as f64 / edges as f64])
    });
    out.push_str("Table 1 (client side) — FedGTA metric computation vs subgraph size\n\n");
    let cols = [("LP+moments+conf (ms)", 2), ("per-edge (ns)", 1)];
    push_table(
        "table1/client",
        true,
        &["n (nodes)", "m (edges)"],
        &cols,
        rows.collect(),
        out,
        cells,
    );

    let (f, hidden, c) = (128usize, 64usize, 40usize);
    let params = f * hidden + hidden + hidden * c + c;
    let sketch = cfg.k_lp * cfg.moment_order * c;
    let floats = |label: String, n: usize| (vec![label], vec![n as f64, 4.0 * n as f64]);
    let rows = vec![
        floats("model weights (all strategies)".into(), params),
        floats(
            format!("FedGTA extras (k={}, K={}, c={c})", cfg.k_lp, cfg.moment_order),
            sketch + 1,
        ),
    ];
    out.push_str("\nTable 1 (upload) — bytes per client upload\n\n");
    push_table(
        "table1/upload",
        false,
        &["component"],
        &[("floats", 0), ("bytes", 0)],
        rows,
        out,
        cells,
    );

    let participants: &[usize] = if full { &[10, 50, 100, 500] } else { &[10, 50, 100] };
    let rows = participants.iter().map(|&n| {
        let all: Vec<Vec<f32>> =
            (0..n).map(|i| (0..params).map(|j| ((i * j) % 97) as f32 / 97.0).collect()).collect();
        let sketches: Vec<Vec<f32>> =
            (0..n).map(|i| (0..sketch).map(|j| ((i + j) % 13) as f32 / 13.0).collect()).collect();
        let (_, fedavg) = timed("table1.fedavg_aggregate", || {
            let p: Vec<&[f32]> = all.iter().map(|p| p.as_slice()).collect();
            let mut global = Vec::new();
            Row::average((0..n).map(|i| (i, 1.0))).apply(&p, &mut global);
            global
        });
        let uploads: Vec<ClientUpload<'_>> = (0..n)
            .map(|i| ClientUpload {
                params: &all[i],
                confidence: 1.0 + i as f64,
                moments: &sketches[i],
                n_train: 10,
            })
            .collect();
        let options = AggregateOptions {
            epsilon: 0.5,
            epsilon_quantile: None,
            similarity: SimilarityKind::Cosine,
            use_moments: true,
            use_confidence: true,
        };
        let (_, gta) =
            timed("table1.fedgta_aggregate", || personalized_aggregate(&uploads, &options));
        (vec![n.to_string()], vec![ms(fedavg), ms(gta)])
    });
    out.push_str("\nTable 1 (server side) — aggregation time vs participants\n\n");
    let cols = [("FedAvg-style avg (ms)", 2), ("FedGTA personalized (ms)", 2)];
    push_table("table1/server", true, &["N"], &cols, rows.collect(), out, cells);
    out.push_str(
        "\nNote: FedGTA's personalized pass computes N aggregates + an N×N similarity, so it is O(N) heavier than one \
         FedAvg average but stays millisecond-scale at N=500 — matching the paper's O(N + NkKc) bound.\n",
    );

    let dataset = if full { "ogbn-arxiv" } else { "pubmed" };
    let bench = load_benchmark(dataset, 0).expect("catalog dataset");
    let parts = partition_benchmark(&bench, SplitKind::Louvain, 10, 0);
    let rows = ModelKind::all().map(|kind| {
        let mut clients = build_clients(
            &bench,
            &parts,
            &ClientBuildConfig::paper(ModelConfig::paper(kind, 64, 0), false),
        );
        // Cold includes GAMLP's one-time hop precompute (the decoupled
        // family propagated at client build); warm is the steady state.
        let seconds = ["table1.inference_cold", "table1.inference_warm"].map(|span| {
            let (_, ns) =
                timed(span, || clients.iter_mut().for_each(|c| drop(c.model.predict(&c.data))));
            ns as f64 / 1e9
        });
        (vec![kind.name().to_string()], seconds.to_vec())
    });
    out.push_str(&format!(
        "\nTable 1 (inference) — federation-wide inference seconds on {dataset}, 10-client Louvain split\n\n"
    ));
    push_table(
        "table1/inference",
        true,
        &["model"],
        &[("cold (s)", 3), ("warm (s)", 3)],
        rows.into(),
        out,
        cells,
    );
}

/// Table 1's claim; its other three parts are timings.
pub const TABLE1: &[Claim] = &[Claim {
    id: "t1.upload-601-vs-10856-floats",
    paper: "FedGTA's upload adds O(kKc) floats to the O(f²) model weights — 601 to 10 856 at k=5, K=3, c=40",
    check: |c| {
        let floats = |row| c.get("table1/upload", row, "floats").map_or(f64::NAN, |x| x.mean);
        let (weights, extras) = (floats("model weights (all strategies)"), floats("FedGTA extras (k=5, K=3, c=40)"));
        Verdict {
            holds: Some(weights == 10856.0 && extras == 601.0),
            measured: format!("{extras} extra floats on {weights} ({:.1} %)", 100.0 * extras / weights),
        }
    },
}];

/// Table 2 — the generated stand-ins' statistics next to their specs
/// (DESIGN.md §3); quick mode skips the two largest graphs.
pub fn table2(full: bool, out: &mut String, cells: &mut Cells) {
    let header = [
        "Dataset",
        "#Nodes",
        "#Features",
        "#Edges",
        "#Classes",
        "#Train/Val/Test",
        "#Task",
        "AvgDeg",
        "Homophily",
    ];
    let mut table = Table::new(&header);
    for spec in
        SPECS.iter().filter(|s| full || !["ogbn-papers100m", "ogbn-products"].contains(&s.name))
    {
        let b = load_benchmark(spec.name, 0).expect("catalog dataset");
        let counts =
            [b.graph.num_nodes(), b.features.cols(), b.graph.num_edges() / 2, b.num_classes];
        for (col, n) in header[1..5].iter().zip(counts) {
            cells.push("table2", spec.name, col, n as f64, 0.0, 1, false);
        }
        let mut row = vec![spec.name.to_string()];
        row.extend(counts.map(|n| n.to_string()));
        row.extend([
            format!("{}/{}/{}", b.split.train.len(), b.split.val.len(), b.split.test.len()),
            format!("{:?}", spec.task),
            format!("{:.1}", degree_stats(&b.graph).mean),
            format!("{:.2}", edge_homophily(&b.graph, &b.labels)),
        ]);
        table.row(row);
    }
    out.push_str("Table 2 — synthetic stand-in dataset statistics (seed 0)\n\n");
    out.push_str(&table.render());
}

/// Table 2's claim.
pub const TABLE2: &[Claim] = &[Claim {
    id: "t2.counts-match-spec",
    paper: "The stand-ins match their catalog specs' node, feature and class counts",
    check: |c| {
        let mut rows: Vec<&str> = c.of("table2").map(|x| x.row.as_str()).collect();
        rows.dedup();
        let off: Vec<&str> = (rows.iter().copied())
            .filter(|row| {
                let spec =
                    SPECS.iter().find(|s| s.name == *row).expect("table2 rows are catalog names");
                [("#Nodes", spec.nodes), ("#Features", spec.features), ("#Classes", spec.classes)]
                    .iter()
                    .any(|(col, want)| {
                        c.get("table2", row, col).is_none_or(|x| x.mean != *want as f64)
                    })
            })
            .collect();
        Verdict {
            holds: Some(off.is_empty() && !rows.is_empty()),
            measured: if off.is_empty() {
                format!("{} datasets match", rows.len())
            } else {
                format!("off spec: {}", off.join(", "))
            },
        }
    },
}];

/// The client × class node-count table of Fig. 1(a) / 3(a); returns each
/// client's share of nodes in its largest class.
fn label_heatmap(bench: &Benchmark, parts: &Partition, out: &mut String) -> Vec<f64> {
    let classes = bench.num_classes;
    let mut counts = vec![vec![0usize; classes]; parts.num_parts];
    for (v, &p) in parts.parts.iter().enumerate() {
        counts[p as usize][bench.labels[v] as usize] += 1;
    }
    let header: Vec<String> = std::iter::once("client".to_string())
        .chain((0..classes).map(|j| format!("class{j}")))
        .collect();
    let mut table = Table::new(&header.iter().map(String::as_str).collect::<Vec<_>>());
    for (i, row) in counts.iter().enumerate() {
        table.row(std::iter::once(i).chain(row.iter().copied()).map(|x| x.to_string()).collect());
    }
    out.push_str(&table.render());
    let share = |row: &Vec<usize>| {
        *row.iter().max().unwrap_or(&0) as f64 / row.iter().sum::<usize>().max(1) as f64
    };
    counts.iter().map(share).collect()
}

/// Fig. 1(a) — node counts per client × class under the Louvain and Metis
/// 10-client splits of Cora (`f1.louvain-skew` is with Fig. 1(b)'s claims).
pub fn fig1a(_full: bool, out: &mut String, cells: &mut Cells) {
    let bench = load_benchmark("cora", 0).expect("cora");
    let uniform = 1.0 / bench.num_classes as f64;
    for split in [SplitKind::Louvain, SplitKind::Metis] {
        out.push_str(&format!(
            "\nFig. 1(a) — node counts per client × class, Cora, {} split\n\n",
            split.name()
        ));
        let shares = label_heatmap(&bench, &partition_benchmark(&bench, split, 10, 0), out);
        let mean = shares.iter().sum::<f64>() / shares.len() as f64;
        out.push_str(&format!(
            "mean top-class share per client: {mean:.2} (uniform would be {uniform:.2})\n"
        ));
        cells.push("fig1a", split.name(), "top-class share", mean, 0.0, 1, false);
    }
    cells.push("fig1a", "uniform", "top-class share", uniform, 0.0, 1, false);
}

/// Fig. 3 — FedGTA's server-side aggregation on Amazon-Photo, Louvain 10
/// clients: (a) each client's label distribution, (b) the
/// [`AggregationReport`](fedgta::AggregationReport) of the best round —
/// similarity matrix, aggregation sets `Iᵢ` and Eq. 7 weights.
pub fn fig3(full: bool, out: &mut String, cells: &mut Cells) {
    let rounds = if full { 60 } else { 15 };
    let bench = load_benchmark("amazon-photo", 1).expect("amazon-photo");
    let parts = partition_benchmark(&bench, SplitKind::Louvain, 10, 1);
    out.push_str("Fig. 3(a) — label distribution per client, Amazon-Photo, Louvain 10 clients\n\n");
    label_heatmap(&bench, &parts, out);

    let mut clients = build_clients(
        &bench,
        &parts,
        &ClientBuildConfig::paper(ModelConfig::paper(ModelKind::Gamlp, 32, 1), false),
    );
    let mut strategy = FedGta::with_defaults();
    let all: Vec<usize> = (0..clients.len()).collect();
    let mut best = (0f64, None);
    for round in 1..=rounds {
        strategy.round(&mut clients, &all, &RoundCtx::plain(3));
        let acc = global_test_accuracy(&mut clients);
        eprintln!("[fig3] round {round}: acc {acc:.3}");
        if acc > best.0 {
            best = (acc, strategy.objective.last_report().cloned());
        }
    }
    let (acc, report) = (best.0, best.1.expect("at least one round"));
    out.push_str(&format!(
        "\nFig. 3(b) — aggregation report of the best round (acc {:.1}%)\n\n",
        100.0 * acc
    ));
    out.push_str("similarity matrix (cosine over moment sketches):\n");
    for row in &report.similarity {
        out.push_str(&format!(
            "  [{}]\n",
            row.iter().map(|v| format!("{v:+.2}")).collect::<Vec<_>>().join(" ")
        ));
    }
    out.push_str("\naggregation sets and confidence weights:\n");
    for (i, e) in report.entries.iter().enumerate() {
        let members: Vec<String> =
            e.members.iter().zip(&e.weights).map(|(m, w)| format!("{m}:{w:.2}")).collect();
        out.push_str(&format!("  client {i}: I = {{{}}}\n", members.join(", ")));
    }
    // What Eq. 6 must separate: over all clients, the least similar member
    // of a set from the most similar client left out of one.
    let (n, report) = (report.entries.len(), &report);
    let sims = |inside: bool| {
        let pairs = (0..n).flat_map(|i| (0..n).map(move |j| (i, j)));
        pairs
            .filter(move |(i, j)| report.entries[*i].members.contains(j) == inside)
            .map(|(i, j)| report.similarity[i][j] as f64)
    };
    for (col, value) in [
        ("epsilon", report.epsilon as f64),
        ("least similar member", sims(true).fold(f64::INFINITY, f64::min)),
        ("most similar outsider", sims(false).fold(f64::NEG_INFINITY, f64::max)),
    ] {
        cells.push("fig3", "report", col, value, 0.0, 1, false);
    }
}

/// Fig. 3's claim.
pub const FIG3: &[Claim] = &[Claim {
    id: "f3.sets-are-pairs-above-eps",
    paper: "Each client aggregates exactly with the clients whose moment similarity reaches ε",
    check: |c| {
        let get = |col| c.get("fig3", "report", col).map_or(f64::NAN, |x| x.mean);
        let (eps, lo, hi) =
            (get("epsilon"), get("least similar member"), get("most similar outsider"));
        Verdict {
            holds: Some(lo >= eps && hi < eps),
            measured: format!(
                "least similar member {lo:.2} ≥ ε = {eps} > most similar outsider {hi:.2}"
            ),
        }
    },
}];
