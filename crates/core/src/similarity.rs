//! Moment-sketch similarity (paper Eq. 6).
//!
//! The paper uses cosine similarity over the flattened moment sketches and
//! notes it "can be replaced with any reasonable metric"; a negative-L2
//! variant is provided for the ablation benches.

/// Which similarity to apply to moment sketches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimilarityKind {
    /// Cosine similarity (paper default), range `[-1, 1]`.
    Cosine,
    /// `1 / (1 + ‖a − b‖₂)`, range `(0, 1]` — a drop-in bounded
    /// alternative.
    InverseL2,
}

/// Similarity of two equal-length sketches.
pub fn moment_similarity(a: &[f32], b: &[f32], kind: SimilarityKind) -> f32 {
    assert_eq!(a.len(), b.len(), "sketch length mismatch");
    match kind {
        SimilarityKind::Cosine => {
            let (mut dot, mut na, mut nb) = (0f64, 0f64, 0f64);
            for (&x, &y) in a.iter().zip(b) {
                dot += x as f64 * y as f64;
                na += (x as f64).powi(2);
                nb += (y as f64).powi(2);
            }
            cosine(dot, na.sqrt(), nb.sqrt())
        }
        SimilarityKind::InverseL2 => {
            let d2: f64 = a.iter().zip(b).map(|(&x, &y)| ((x - y) as f64).powi(2)).sum();
            (1.0 / (1.0 + d2.sqrt())) as f32
        }
    }
}

/// Columns of one block of [`similarity_matrix_threads`]' cosine dots,
/// accumulated on the stack.
const DOT_BLOCK: usize = 64;

/// Cosine from a dot product and the two norms: `0` where the norms'
/// product is below `1e-24`.
fn cosine(dot: f64, norm_a: f64, norm_b: f64) -> f32 {
    let denom = norm_a * norm_b;
    if denom < 1e-24 {
        0.0
    } else {
        (dot / denom) as f32
    }
}

/// Full pairwise similarity matrix (`n × n`, diagonal = self-similarity)
/// with an explicit worker-thread request (`0` = resolve from
/// `FEDGTA_THREADS` / core count).
///
/// Takes borrowed sketch slices so callers (the server aggregation path)
/// hand over upload buffers without a per-round copy.
///
/// Every cell is [`moment_similarity`]'s bits. Each unordered pair is
/// computed once and mirrored, which holds because `moment_similarity` is
/// bitwise symmetric: swapping the arguments only swaps commutative `f64`
/// products and leaves every accumulation order unchanged. For cosine,
/// each sketch's norm is computed once, and row `i`'s dots are one `f64`
/// row × matrix product over a `d`-major copy of the sketches: each dot is
/// still one sequential chain over `d`, and each `f32 × f32` product is
/// exact in `f64`. Rows run in parallel via
/// [`fedgta_graph::par::par_map_indexed`].
pub fn similarity_matrix_threads(
    sketches: &[&[f32]],
    kind: SimilarityKind,
    threads: usize,
) -> Vec<Vec<f32>> {
    let n = sketches.len();
    let d = sketches.first().map_or(0, |s| s.len());
    assert!(sketches.iter().all(|s| s.len() == d), "sketch length mismatch");
    let (norms, by_dim) = match kind {
        SimilarityKind::Cosine => {
            let norm = |s: &[f32]| s.iter().fold(0f64, |na, &x| na + (x as f64).powi(2)).sqrt();
            let by_dim = (0..d * n).map(|tj| sketches[tj % n][tj / n] as f64).collect();
            (sketches.iter().map(|s| norm(s)).collect(), by_dim)
        }
        SimilarityKind::InverseL2 => (Vec::new(), Vec::new()),
    };
    // Rows in the order 0, n − 1, 1, n − 2, …: contiguous chunks of the
    // upper triangle then carry equal work.
    let order = |p: usize| if p.is_multiple_of(2) { p / 2 } else { n - 1 - p / 2 };
    let mut rows: Vec<(usize, Vec<f32>)> = (0..n).map(|p| (order(p), vec![0f32; n])).collect();
    fedgta_graph::par::par_map_indexed(&mut rows, Some(threads), |_, (i, row)| {
        let i = *i;
        if kind == SimilarityKind::InverseL2 {
            for (j, slot) in row.iter_mut().enumerate().skip(i) {
                *slot = moment_similarity(sketches[i], sketches[j], kind);
            }
            return;
        }
        for j0 in (i..n).step_by(DOT_BLOCK) {
            let w = DOT_BLOCK.min(n - j0);
            let mut dots = [0f64; DOT_BLOCK];
            for (&x, col) in sketches[i].iter().zip(by_dim.chunks_exact(n)) {
                for (dot, &y) in dots.iter_mut().zip(&col[j0..j0 + w]) {
                    *dot += x as f64 * y;
                }
            }
            for (j, dot) in (j0..j0 + w).zip(dots) {
                row[j] = cosine(dot, norms[i], norms[j]);
            }
        }
    });
    rows.sort_unstable_by_key(|&(i, _)| i);
    let mut sim: Vec<Vec<f32>> = rows.into_iter().map(|(_, row)| row).collect();
    for j in 1..n {
        let (above, from_j) = sim.split_at_mut(j);
        for (i, row_i) in above.iter().enumerate() {
            from_j[0][i] = row_i[j];
        }
    }
    sim
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_of_identical_is_one() {
        let a = vec![0.3, -0.7, 1.1];
        assert!((moment_similarity(&a, &a, SimilarityKind::Cosine) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_of_opposite_is_minus_one() {
        let a = vec![1.0, 2.0];
        let b = vec![-1.0, -2.0];
        assert!((moment_similarity(&a, &b, SimilarityKind::Cosine) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_of_orthogonal_is_zero() {
        let a = vec![1.0, 0.0];
        let b = vec![0.0, 1.0];
        assert!(moment_similarity(&a, &b, SimilarityKind::Cosine).abs() < 1e-6);
    }

    #[test]
    fn zero_sketch_similarity_is_zero_not_nan() {
        let z = vec![0.0; 3];
        let a = vec![1.0, 2.0, 3.0];
        let s = moment_similarity(&z, &a, SimilarityKind::Cosine);
        assert_eq!(s, 0.0);
    }

    #[test]
    fn inverse_l2_is_one_iff_equal() {
        let a = vec![0.5, 0.5];
        assert_eq!(moment_similarity(&a, &a, SimilarityKind::InverseL2), 1.0);
        let b = vec![0.5, 1.5];
        let s = moment_similarity(&a, &b, SimilarityKind::InverseL2);
        assert!(s < 1.0 && s > 0.0);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // (i, j) indexing mirrors S(i,j)
    fn matrix_is_symmetric_with_unit_diagonal() {
        let sk: Vec<&[f32]> = vec![&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]];
        let m = similarity_matrix_threads(&sk, SimilarityKind::Cosine, 0);
        for i in 0..3 {
            assert!((m[i][i] - 1.0).abs() < 1e-6);
            for j in 0..3 {
                assert_eq!(m[i][j], m[j][i]);
            }
        }
    }

    #[test]
    fn moment_similarity_is_bitwise_symmetric() {
        // The property the row-parallel matrix relies on.
        let a: Vec<f32> = (0..37).map(|i| (i as f32 * 0.7).sin() * 3.3).collect();
        let b: Vec<f32> = (0..37).map(|i| (i as f32 * 1.9).cos() - 0.4).collect();
        for kind in [SimilarityKind::Cosine, SimilarityKind::InverseL2] {
            let ab = moment_similarity(&a, &b, kind);
            let ba = moment_similarity(&b, &a, kind);
            assert_eq!(ab.to_bits(), ba.to_bits());
        }
    }

    #[test]
    fn parallel_matrix_matches_serial_triangle_reference_bitwise() {
        let sketches: Vec<Vec<f32>> = (0..9)
            .map(|s| (0..23).map(|i| ((s * 31 + i * 7) as f32 * 0.13).sin()).collect())
            .collect();
        let views: Vec<&[f32]> = sketches.iter().map(|v| v.as_slice()).collect();
        for kind in [SimilarityKind::Cosine, SimilarityKind::InverseL2] {
            // Serial reference: upper triangle + mirror (the seed code).
            let n = views.len();
            let mut want = vec![vec![0f32; n]; n];
            for i in 0..n {
                for j in i..n {
                    let s = moment_similarity(views[i], views[j], kind);
                    want[i][j] = s;
                    want[j][i] = s;
                }
            }
            for threads in [1usize, 2, 4, 8] {
                let got = similarity_matrix_threads(&views, kind, threads);
                for (gr, wr) in got.iter().zip(&want) {
                    for (g, w) in gr.iter().zip(wr) {
                        assert_eq!(g.to_bits(), w.to_bits(), "threads={threads}");
                    }
                }
            }
        }
    }

    /// Every cell is `moment_similarity(i, j)` by `to_bits` (NaN matches
    /// NaN), over sketches mixing ordinary values with all-zero, NaN and
    /// ±∞ ones, at matrix sizes with no pair, one pair, odd and even counts
    /// and more columns than one [`DOT_BLOCK`], on 1 and 4 threads.
    #[test]
    fn matrix_cells_equal_moment_similarity_bitwise_on_hostile_sketches() {
        let bits = |v: f32| if v.is_nan() { f32::NAN.to_bits() } else { v.to_bits() };
        let sketch = |s: usize| -> Vec<f32> {
            (0..29)
                .map(|i| match s % 7 {
                    0 => 0.0,
                    1 if i == 5 => f32::NAN,
                    2 if i == 11 => f32::INFINITY,
                    3 if i % 4 == 0 => f32::NEG_INFINITY,
                    _ => ((s * 37 + i * 11) as f32 * 0.29).sin() * 4.0,
                })
                .collect()
        };
        for n in [0usize, 1, 2, 9, 33, 70] {
            let sketches: Vec<Vec<f32>> = (0..n).map(sketch).collect();
            let views: Vec<&[f32]> = sketches.iter().map(|v| v.as_slice()).collect();
            for kind in [SimilarityKind::Cosine, SimilarityKind::InverseL2] {
                for threads in [1usize, 4] {
                    let got = similarity_matrix_threads(&views, kind, threads);
                    assert_eq!(got.len(), n);
                    for (i, row) in got.iter().enumerate() {
                        assert_eq!(row.len(), n);
                        for (j, &v) in row.iter().enumerate() {
                            let want = moment_similarity(views[i], views[j], kind);
                            assert_eq!(bits(v), bits(want), "{kind:?} n={n} ({i}, {j}) {threads}");
                        }
                    }
                }
            }
        }
    }
}
