//! Property-based tests for FedGTA's mathematical invariants.

// Index-style loops mirror the paper's subscript notation (`agg[i][j]`,
// `params[m][j]`); iterator rewrites would obscure the math being checked.
#![allow(clippy::needless_range_loop)]

use fedgta::aggregate::{
    personalized_aggregate, personalized_aggregate_into, personalized_rows, AggregateOptions,
    ClientUpload,
};
use fedgta::{
    label_propagation, local_smoothing_confidence, mixed_moments, moment_similarity,
    similarity_matrix_threads, MomentKind, SimilarityKind,
};
use fedgta_graph::{normalized_adjacency, Csr, EdgeList, NormKind};
use fedgta_nn::ops::softmax_rows;
use fedgta_nn::Matrix;
use proptest::prelude::*;

/// Classes of the class-relabelling relation's federations.
const C: usize = 5;

/// Moment order `K` of the class-relabelling relation.
const K: usize = 3;

/// `m` with column `j` moved to column `pi[j]`.
fn permute_columns(m: &Matrix, pi: &[usize]) -> Matrix {
    let mut out = Matrix::zeros(m.rows(), m.cols());
    for i in 0..m.rows() {
        for (j, &v) in m.row(i).iter().enumerate() {
            out.set(i, pi[j], v);
        }
    }
    out
}

/// A sketch (`k·K` blocks of `|Y|` classes) with each block's class `j`
/// moved to `pi[j]`.
fn permute_sketch(sketch: &[f32], pi: &[usize]) -> Vec<f32> {
    let mut out = vec![0f32; sketch.len()];
    for (block, moved) in sketch.chunks(pi.len()).zip(out.chunks_mut(pi.len())) {
        for (j, &v) in block.iter().enumerate() {
            moved[pi[j]] = v;
        }
    }
    out
}

fn norm(v: &[f32]) -> f64 {
    v.iter().map(|&x| (x as f64).powi(2)).sum::<f64>().sqrt()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Random symmetric graph + row-stochastic soft labels over it.
fn arb_graph_labels(max_n: usize, classes: usize) -> impl Strategy<Value = (Csr, Matrix)> {
    (3usize..=max_n).prop_flat_map(move |n| {
        (
            proptest::collection::vec((0..n as u32, 0..n as u32), 0..3 * n),
            proptest::collection::vec(-2.0f32..2.0, n * classes),
        )
            .prop_map(move |(edges, logits)| {
                let mut el = EdgeList::new(n);
                for (u, v) in edges {
                    if u != v {
                        el.push_undirected(u, v).unwrap();
                    }
                }
                let adj = normalized_adjacency(&el.to_csr(), NormKind::Symmetric);
                let soft = softmax_rows(&Matrix::from_vec(n, classes, logits));
                (adj, soft)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lp_keeps_values_in_unit_interval((adj, soft) in arb_graph_labels(20, 4)) {
        // α·Ŷ⁰ + (1−α)·ÃŶ: Ã rows have L1 mass ≤ 1 under symmetric
        // normalization on values in [0,1], so every step stays in [0,1].
        let steps = label_propagation(&adj, &soft, 5, 0.5);
        prop_assert_eq!(steps.len(), 5);
        for s in &steps {
            for &v in s.as_slice() {
                prop_assert!((-1e-5..=1.0 + 1e-5).contains(&v), "value {}", v);
            }
        }
    }

    #[test]
    fn confidence_nonnegative_and_monotone_in_degrees((adj, soft) in arb_graph_labels(15, 3)) {
        let steps = label_propagation(&adj, &soft, 3, 0.5);
        let last = steps.last().unwrap();
        let deg1 = vec![1.0f32; last.rows()];
        let deg2 = vec![2.0f32; last.rows()];
        let h1 = local_smoothing_confidence(last, &deg1);
        let h2 = local_smoothing_confidence(last, &deg2);
        prop_assert!(h1 >= -1e-9, "h1 = {}", h1);
        prop_assert!((h2 - 2.0 * h1).abs() < 1e-6 * h1.abs().max(1.0));
    }

    #[test]
    fn moments_have_exact_layout((adj, soft) in arb_graph_labels(12, 5), order in 1usize..5) {
        let steps = label_propagation(&adj, &soft, 4, 0.5);
        for kind in [MomentKind::Central, MomentKind::Raw] {
            let m = mixed_moments(&steps, order, kind);
            prop_assert_eq!(m.len(), 4 * order * 5);
            prop_assert!(m.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn moments_are_permutation_invariant_over_nodes((adj, soft) in arb_graph_labels(12, 3)) {
        // Moments are expectations over nodes: reversing row order of the
        // step matrices must not change them.
        let steps = label_propagation(&adj, &soft, 2, 0.5);
        let reversed: Vec<Matrix> = steps
            .iter()
            .map(|s| {
                let idx: Vec<u32> = (0..s.rows() as u32).rev().collect();
                s.gather_rows(&idx)
            })
            .collect();
        let a = mixed_moments(&steps, 3, MomentKind::Central);
        let b = mixed_moments(&reversed, 3, MomentKind::Central);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn similarity_is_symmetric_bounded(
        a in proptest::collection::vec(-3.0f32..3.0, 12),
        b in proptest::collection::vec(-3.0f32..3.0, 12),
    ) {
        for kind in [SimilarityKind::Cosine, SimilarityKind::InverseL2] {
            let ab = moment_similarity(&a, &b, kind);
            let ba = moment_similarity(&b, &a, kind);
            prop_assert!((ab - ba).abs() < 1e-6);
            prop_assert!((-1.0 - 1e-6..=1.0 + 1e-6).contains(&ab), "{:?} -> {}", kind, ab);
            let aa = moment_similarity(&a, &a, kind);
            prop_assert!(ab <= aa + 1e-6, "self-similarity not maximal");
        }
    }

    #[test]
    fn aggregation_is_convex_and_self_inclusive(
        n in 2usize..6,
        plen in 1usize..5,
        eps in 0.0f32..1.0,
        seed in 0u64..1000,
    ) {
        // Deterministic pseudo-random uploads.
        let val = |i: usize, j: usize, salt: u64| -> f32 {
            (((i as u64 * 31 + j as u64 * 7 + salt + seed) % 1000) as f32 / 500.0) - 1.0
        };
        let params: Vec<Vec<f32>> = (0..n).map(|i| (0..plen).map(|j| val(i, j, 1)).collect()).collect();
        let sketches: Vec<Vec<f32>> = (0..n).map(|i| (0..6).map(|j| val(i, j, 2)).collect()).collect();
        let ups: Vec<ClientUpload<'_>> = (0..n)
            .map(|i| ClientUpload {
                params: &params[i],
                confidence: 0.5 + i as f64,
                moments: &sketches[i],
                n_train: 1 + i,
            })
            .collect();
        let (agg, report) = personalized_aggregate(
            &ups,
            &AggregateOptions {
                epsilon: eps,
                epsilon_quantile: None,
                similarity: SimilarityKind::Cosine,
                use_moments: true,
                use_confidence: true,
            },
        );
        for i in 0..n {
            // Self is always a member; weights form a distribution.
            prop_assert!(report.entries[i].members.contains(&i));
            let wsum: f32 = report.entries[i].weights.iter().sum();
            prop_assert!((wsum - 1.0).abs() < 1e-4);
            // Convexity: every aggregated coordinate lies within the
            // member params' min..max envelope.
            for j in 0..plen {
                let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
                for &m in &report.entries[i].members {
                    lo = lo.min(params[m][j]);
                    hi = hi.max(params[m][j]);
                }
                prop_assert!(
                    agg[i][j] >= lo - 1e-4 && agg[i][j] <= hi + 1e-4,
                    "coordinate {} of client {} escaped its convex hull",
                    j, i
                );
            }
        }
    }

    #[test]
    fn similarity_matrix_bit_identical_at_any_thread_count(
        n in 2usize..8,
        dim in 1usize..16,
        vals in proptest::collection::vec(-3.0f32..3.0, 8 * 16),
    ) {
        let sketches: Vec<&[f32]> = (0..n).map(|i| &vals[i * dim..(i + 1) * dim]).collect();
        for kind in [SimilarityKind::Cosine, SimilarityKind::InverseL2] {
            let serial = similarity_matrix_threads(&sketches, kind, 1);
            for threads in [2usize, 4] {
                let par = similarity_matrix_threads(&sketches, kind, threads);
                for (rs, rp) in serial.iter().zip(&par) {
                    for (a, b) in rs.iter().zip(rp) {
                        prop_assert_eq!(a.to_bits(), b.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_aggregate_bit_identical_to_serial(
        n in 2usize..7,
        plen in 1usize..40,
        eps in -0.5f32..1.0,
        use_conf in any::<bool>(),
        seed in 0u64..1000,
    ) {
        // Random member structure via pseudo-random sketches + ε, random
        // weights via confidence/n_train — the whole Eq. 6–7 path must be
        // bit-identical at every thread count.
        let val = |i: usize, j: usize, salt: u64| -> f32 {
            (((i as u64 * 31 + j as u64 * 7 + salt + seed) % 1000) as f32 / 500.0) - 1.0
        };
        let params: Vec<Vec<f32>> =
            (0..n).map(|i| (0..plen).map(|j| val(i, j, 1)).collect()).collect();
        let sketches: Vec<Vec<f32>> =
            (0..n).map(|i| (0..6).map(|j| val(i, j, 2)).collect()).collect();
        let ups: Vec<ClientUpload<'_>> = (0..n)
            .map(|i| ClientUpload {
                params: &params[i],
                confidence: 0.25 + ((seed + i as u64) % 7) as f64,
                moments: &sketches[i],
                n_train: 1 + (i * 3) % 5,
            })
            .collect();
        let opts = AggregateOptions {
            epsilon: eps,
            epsilon_quantile: None,
            similarity: SimilarityKind::Cosine,
            use_moments: true,
            use_confidence: use_conf,
        };
        let mut serial = Vec::new();
        let ref_report = personalized_aggregate_into(&ups, &opts, 1, &mut serial);
        for threads in [2usize, 4] {
            // Stale, wrongly-sized output buffers must be handled too.
            let mut out = vec![vec![9.0f32; plen + 3]; n + 2];
            let report = personalized_aggregate_into(&ups, &opts, threads, &mut out);
            prop_assert_eq!(out.len(), n);
            for (rs, rp) in serial.iter().zip(&out) {
                prop_assert_eq!(rs.len(), rp.len());
                for (a, b) in rs.iter().zip(rp) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            for (es, ep) in ref_report.entries.iter().zip(&report.entries) {
                prop_assert_eq!(&es.members, &ep.members);
                for (a, b) in es.weights.iter().zip(&ep.weights) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    #[test]
    fn epsilon_one_means_near_isolation(
        n in 2usize..5,
        seed in 0u64..500,
    ) {
        // With ε slightly above 1 nothing can match (cosine ≤ 1), so each
        // client aggregates alone and gets its own params back.
        let val = |i: usize, j: usize| -> f32 {
            (((i as u64 * 13 + j as u64 * 3 + seed) % 100) as f32 / 50.0) - 1.0
        };
        let params: Vec<Vec<f32>> = (0..n).map(|i| (0..4).map(|j| val(i, j)).collect()).collect();
        let sketches: Vec<Vec<f32>> = (0..n).map(|i| (0..4).map(|j| val(i, j + 9)).collect()).collect();
        let ups: Vec<ClientUpload<'_>> = (0..n)
            .map(|i| ClientUpload {
                params: &params[i],
                confidence: 1.0,
                moments: &sketches[i],
                n_train: 5,
            })
            .collect();
        let (agg, _) = personalized_aggregate(
            &ups,
            &AggregateOptions {
                epsilon: 1.0 + 1e-6,
                epsilon_quantile: None,
                similarity: SimilarityKind::Cosine,
                use_moments: true,
                use_confidence: true,
            },
        );
        for i in 0..n {
            for j in 0..4 {
                prop_assert!((agg[i][j] - params[i][j]).abs() < 1e-6);
            }
        }
    }

    /// Class relabelling (ROADMAP item 25). LP and the raw moments act
    /// class by class, so permuting `Ŷ⁰`'s columns by π permutes every LP
    /// step and every raw moment block by π, bit for bit. The central
    /// moments subtract the per-node mean, which sums the classes in
    /// another order: each moves by at most `2·K·|Y|` f32 epsilons, as
    /// `|ŷ − μ| ≤ 1`. Eq. 4 sums the classes too, so `H` moves by at most
    /// `4·|Y|` f64 epsilons relative (its summands are non-negative). An
    /// Eq. 6 similarity moves by at most twice the sketches' relative
    /// perturbations, and every ε-selected set stays the same where no
    /// similarity lies within that bound of ε.
    #[test]
    fn class_relabelling_permutes_lp_and_moments(
        clients in proptest::collection::vec(arb_graph_labels(12, C), 2..5),
        keys in proptest::collection::vec(0u32..1000, C),
        eps in -0.5f32..1.0,
    ) {
        let mut pi: Vec<usize> = (0..C).collect();
        pi.sort_by_key(|&j| keys[j]);
        let moment_tol = 2.0 * (K * C) as f32 * f32::EPSILON;
        let mut sketches = Vec::new();
        let mut moved = Vec::new();
        let mut hs = Vec::new();
        for (adj, soft) in &clients {
            let steps = label_propagation(adj, soft, 3, 0.5);
            let permuted = label_propagation(adj, &permute_columns(soft, &pi), 3, 0.5);
            for (s, p) in steps.iter().zip(&permuted) {
                prop_assert_eq!(bits(permute_columns(s, &pi).as_slice()), bits(p.as_slice()));
            }
            let raw = mixed_moments(&steps, K, MomentKind::Raw);
            let raw_moved = mixed_moments(&permuted, K, MomentKind::Raw);
            prop_assert_eq!(bits(&permute_sketch(&raw, &pi)), bits(&raw_moved));
            let central = mixed_moments(&steps, K, MomentKind::Central);
            let central_moved = mixed_moments(&permuted, K, MomentKind::Central);
            for (a, b) in permute_sketch(&central, &pi).iter().zip(&central_moved) {
                prop_assert!((a - b).abs() <= moment_tol, "central moment {} vs {}", a, b);
            }
            let degrees: Vec<f32> = (0..adj.num_nodes()).map(|i| (1 + i % 3) as f32).collect();
            let h = local_smoothing_confidence(steps.last().unwrap(), &degrees);
            let h_moved = local_smoothing_confidence(permuted.last().unwrap(), &degrees);
            prop_assert!(
                (h - h_moved).abs() <= 4.0 * C as f64 * f64::EPSILON * h.abs(),
                "H {} vs {}", h, h_moved
            );
            sketches.push(central);
            moved.push(central_moved);
            hs.push(h);
        }
        // How far each sketch moved, relative to its norm.
        let shift: Vec<f64> = sketches
            .iter()
            .zip(&moved)
            .map(|(s, m)| {
                let d: Vec<f32> = permute_sketch(s, &pi).iter().zip(m).map(|(a, b)| a - b).collect();
                norm(&d) / norm(s).max(f64::MIN_POSITIVE)
            })
            .collect();
        let a: Vec<&[f32]> = sketches.iter().map(Vec::as_slice).collect();
        let b: Vec<&[f32]> = moved.iter().map(Vec::as_slice).collect();
        let n = a.len();
        // A sketch too small for its cosine to mean anything is left out.
        let tiny = |i: usize| norm(a[i]) < 1e-3 || norm(b[i]) < 1e-3;
        let bound = |i: usize, j: usize| 2.0 * (shift[i] + shift[j]) + 1e-6;
        let opts = AggregateOptions {
            epsilon: eps,
            epsilon_quantile: None,
            similarity: SimilarityKind::Cosine,
            use_moments: true,
            use_confidence: true,
        };
        for threads in [1usize, 4] {
            let before = personalized_rows(&a, &hs, &opts, threads);
            let after = personalized_rows(&b, &hs, &opts, threads);
            for i in 0..n {
                let mut tie = false;
                for j in 0..n {
                    if tiny(i) || tiny(j) {
                        tie = true;
                        continue;
                    }
                    let (x, y) = (before.similarity[i][j] as f64, after.similarity[i][j] as f64);
                    prop_assert!((x - y).abs() <= bound(i, j), "sim[{}][{}] {} vs {}", i, j, x, y);
                    tie |= (x - eps as f64).abs() <= bound(i, j);
                }
                if !tie {
                    prop_assert_eq!(&before.entries[i].members, &after.entries[i].members);
                }
            }
        }
    }

    /// Identical sketches (ROADMAP item 25). When every participant
    /// uploads the same non-zero sketch, every similarity is 1 up to
    /// rounding, above any ε < 1, so every receiver's set is every
    /// participant and every row is the same `H`-weighted average.
    #[test]
    fn identical_sketches_give_every_receiver_one_h_weighted_average(
        n in 2usize..7,
        dim in 1usize..24,
        vals in proptest::collection::vec(-3.0f32..3.0, 24),
        hs in proptest::collection::vec(0.1f64..5.0, 7),
        eps in -0.5f32..0.999,
    ) {
        let sketch = &vals[..dim];
        prop_assume!(norm(sketch) > 1e-3);
        let sketches = vec![sketch; n];
        let sources = &hs[..n];
        let total: f64 = sources.iter().sum();
        let want: Vec<u32> = sources.iter().map(|&h| ((h / total) as f32).to_bits()).collect();
        for similarity in [SimilarityKind::Cosine, SimilarityKind::InverseL2] {
            let opts = AggregateOptions {
                epsilon: eps,
                epsilon_quantile: None,
                similarity,
                use_moments: true,
                use_confidence: true,
            };
            for threads in [1usize, 4] {
                let report = personalized_rows(&sketches, sources, &opts, threads);
                for row in &report.entries {
                    prop_assert_eq!(&row.members, &(0..n).collect::<Vec<_>>());
                    prop_assert_eq!(&bits(&row.weights), &want);
                }
            }
        }
    }
}
