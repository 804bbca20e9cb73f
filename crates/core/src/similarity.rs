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
            let denom = na.sqrt() * nb.sqrt();
            if denom < 1e-24 {
                0.0
            } else {
                (dot / denom) as f32
            }
        }
        SimilarityKind::InverseL2 => {
            let d2: f64 = a
                .iter()
                .zip(b)
                .map(|(&x, &y)| ((x - y) as f64).powi(2))
                .sum();
            (1.0 / (1.0 + d2.sqrt())) as f32
        }
    }
}

/// Full pairwise similarity matrix (`n × n`, diagonal = self-similarity)
/// with an explicit worker-thread request (`0` = resolve from
/// `FEDGTA_THREADS` / core count).
///
/// Takes borrowed sketch slices so callers (the server aggregation path)
/// hand over upload buffers without a per-round copy.
///
/// Rows are independent, so the matrix is computed **row-parallel** via
/// [`fedgta_graph::par::par_map_indexed`]: worker `i` fills the full row
/// `sim[i][..]`, including `j < i`. This is bit-identical to the serial
/// upper-triangle-plus-mirror reference because [`moment_similarity`] is
/// bitwise symmetric: swapping the arguments only swaps commutative `f64`
/// products (`x·y` vs `y·x`, `√na·√nb` vs `√nb·√na`) and leaves every
/// accumulation order unchanged — so `sim[j][i]` computed directly equals
/// the mirrored `sim[i][j]` bit for bit, at any thread count.
pub fn similarity_matrix_threads(
    sketches: &[&[f32]],
    kind: SimilarityKind,
    threads: usize,
) -> Vec<Vec<f32>> {
    let n = sketches.len();
    let mut sim = vec![vec![0f32; n]; n];
    fedgta_graph::par::par_map_indexed(&mut sim, Some(threads), |i, row| {
        for (j, slot) in row.iter_mut().enumerate() {
            *slot = moment_similarity(sketches[i], sketches[j], kind);
        }
    });
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
}
