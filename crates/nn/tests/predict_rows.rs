//! `GraphModel::predict_rows_into` against `predict`, by `to_bits`: row `r`
//! of the output is row `rows[r]` of the full forward for every backbone —
//! the coupled ones through the default (full forward, then select) and the
//! decoupled family + GAMLP through their row-separable overrides, whose
//! pieces (batch 16 here, so every non-trivial row set spans several) must
//! not show in a single bit. And the decoupled family's `predict_into`,
//! itself run by pieces over the dataset `prepare` propagated, against the
//! one-GEMM-per-layer forward over `combine(hop_features(X))` it replaced.

use fedgta_graph::EdgeList;
use fedgta_nn::models::precompute::{combine, hop_features};
use fedgta_nn::models::{build_model, DecoupledModel, ModelConfig, ModelKind, PrecomputeKind};
use fedgta_nn::ops::softmax_rows_inplace;
use fedgta_nn::{Adam, GraphDataset, GraphModel, Matrix, Mlp, TrainHooks, Workspace};

const CLASSES: usize = 5;

/// A ring with chords over the first `n` of 90 nodes. Nodes are split
/// train / val / test by `i % 5`; `train_only` drops the val and test
/// nodes' split membership, like the training view of an inductive client.
fn dataset(n: usize, train_only: bool) -> GraphDataset {
    let mut el = EdgeList::new(n);
    for i in 0..n as u32 {
        el.push_undirected(i, (i + 1) % n as u32).unwrap();
        if i % 3 == 0 {
            el.push_undirected(i, (i * 7 + 11) % n as u32).unwrap();
        }
    }
    let features = Matrix::from_vec(
        n,
        6,
        (0..n * 6).map(|i| ((i as u64 * 2654435761 % 997) as f32 / 498.5) - 1.0).collect(),
    );
    let labels: Vec<u32> = (0..n as u32).map(|i| (i * 3 + i / 7) % CLASSES as u32).collect();
    let split = |keep: fn(u32) -> bool| (0..n as u32).filter(|&i| keep(i)).collect::<Vec<u32>>();
    let train = split(|i| i % 5 < 3);
    let (val, test) = if train_only {
        (Vec::new(), Vec::new())
    } else {
        (split(|i| i % 5 == 3), split(|i| i % 5 == 4))
    };
    GraphDataset::new(&el.to_csr(), features, labels, CLASSES, train, val, test)
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn requested_rows_equal_the_same_rows_of_the_full_forward_bitwise() {
    // Transductive: train and score on one view. Inductive: train on the
    // 60-node training view, score on the 90-node evaluation view (each
    // prepared for the model, as a client's two views are).
    let transductive = dataset(90, false);
    let (train_view, eval_view) = (dataset(60, true), dataset(90, false));
    for kind in ModelKind::all() {
        let cfg = ModelConfig {
            kind,
            hidden: 12,
            layers: 2,
            k: 2,
            batch_size: 16,
            seed: 3,
            ..ModelConfig::default()
        };
        for (train, score) in [(&transductive, &transductive), (&train_view, &eval_view)] {
            let mut model = build_model(&cfg, train.num_features(), CLASSES);
            let (train, score) = (&model.prepare(train.clone()), &model.prepare(score.clone()));
            let mut opt = Adam::new(0.02, 5e-4);
            for _ in 0..2 {
                model.train_epoch(train, &mut opt, &mut TrainHooks::none());
            }
            let full = model.predict(score);
            let all: Vec<u32> = (0..score.num_nodes() as u32).collect();
            let unsorted_with_duplicate = vec![71, 4, 88, 4, 0, 33, 89, 17, 52];
            let row_sets: [&[u32]; 4] = [&[], &all, &score.test_nodes, &unsorted_with_duplicate];
            // One reused output buffer: a stale shape must not leak through.
            let mut out = Matrix::zeros(3, 2);
            for rows in row_sets {
                model.predict_rows_into(score, rows, &mut out);
                assert_eq!(out.shape(), (rows.len(), CLASSES), "{kind:?}");
                assert_eq!(
                    bits(&out),
                    bits(&full.gather_rows(rows)),
                    "{kind:?}, {} rows",
                    rows.len()
                );
            }
            // Scoring rows must leave the model able to do the full forward.
            assert_eq!(bits(&model.predict(score)), bits(&full), "{kind:?}");
        }
    }
}

#[test]
fn pieced_predict_into_equals_the_whole_forward_and_pools_nothing_n_sized() {
    const PIECE: usize = 16;
    let kinds = [
        (ModelKind::Sgc, PrecomputeKind::Sgc),
        (ModelKind::Sign, PrecomputeKind::Sign),
        (ModelKind::S2gc, PrecomputeKind::S2gc),
        (ModelKind::Gbp, PrecomputeKind::Gbp { beta: 0.5 }),
    ];
    for (kind, pre) in kinds {
        for n in [PIECE - 1, PIECE, PIECE + 1, 3 * PIECE + 5] {
            let cfg = ModelConfig {
                kind,
                hidden: 12,
                layers: 2,
                k: 2,
                batch_size: PIECE,
                beta: 0.5,
                seed: 5,
                ..ModelConfig::default()
            };
            // Every node trains, so a piece is min(PIECE, n) rows.
            let mut raw = dataset(n, true);
            raw.train_nodes = (0..n as u32).collect();
            let mut model = DecoupledModel::new(&cfg, raw.num_features(), CLASSES);
            // Non-zero biases too; no training, so the workspace holds
            // only what inference leaves in it.
            let params: Vec<f32> = (0..model.num_params())
                .map(|i| ((i as u64 * 2246822519 % 1009) as f32 / 504.5) - 1.0)
                .collect();
            model.set_params(&params);

            // The body `predict_into` had before: the head over all rows
            // of the readable propagation at once, softmax in place.
            let combined = combine(pre, &hop_features(&raw.adj_norm, &raw.features, cfg.k));
            let data = model.prepare(raw);
            let mut head = Mlp::new(&[combined.cols(), cfg.hidden, CLASSES], 0.0, 0);
            head.set_params(&params);
            let mut whole = head.infer_ws(combined.view(), &mut Workspace::new());
            softmax_rows_inplace(&mut whole);

            // A stale, wrongly-shaped output, twice (cold, then warm).
            let mut out = Matrix::zeros(3, 2);
            for _ in 0..2 {
                model.predict_into(&data, &mut out);
                assert_eq!(out.shape(), (n, CLASSES), "{kind:?} n = {n}");
                assert_eq!(bits(&out), bits(&whole), "{kind:?} n = {n}");
            }
            // Nothing wider than a piece of the widest layer stays pooled:
            // no n-row logits, hidden activation, or swapped-in `out`.
            let mut arena = Workspace::new();
            model.swap_workspace(&mut arena);
            let largest = arena.largest_pooled();
            assert!(
                largest <= PIECE.min(n) * cfg.hidden,
                "{kind:?} n = {n}: {largest} floats pooled"
            );
            if n > 3 * PIECE {
                assert!(largest < n * CLASSES, "{kind:?}: an n·|Y| buffer is pooled");
            }
        }
    }
}
