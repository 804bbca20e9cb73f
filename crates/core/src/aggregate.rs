//! Personalized server-side aggregation (paper Eqs. 6–7) as rows of the
//! collaboration matrix `W`.
//!
//! For each participating client `i`:
//! `Iᵢ = { j : sim(Mᵢ, Mⱼ) ≥ ε } ∪ {i}` and
//! `W̃ᵢ = Σ_{j∈Iᵢ} (Hⱼ / Σ_{j'∈Iᵢ} Hⱼ') Wⱼ` — row `i` of `W` holds `Iᵢ` and
//! those weights, and the server's one row kernel applies it
//! ([`fedgta_fed::strategies::apply_rows`]).
//!
//! The returned [`AggregationReport`] carries the per-client aggregation
//! sets and weights — the exact data the paper's Fig. 3 visualizes.

use crate::similarity::{similarity_matrix_threads, SimilarityKind};
use fedgta_fed::strategies::{apply_rows, Row};

/// One client's upload as seen by the server.
pub struct ClientUpload<'a> {
    /// Flattened model parameters `Wᵢ`.
    pub params: &'a [f32],
    /// Local smoothing confidence `Hᵢ` (Eq. 4).
    pub confidence: f64,
    /// Flattened moment sketch `Mᵢ` (Eq. 5).
    pub moments: &'a [f32],
    /// Local training-set size (fallback weight for the w/o-Conf.
    /// ablation).
    pub n_train: usize,
}

/// Per-round aggregation transparency report.
#[derive(Debug, Clone)]
pub struct AggregationReport {
    /// Pairwise similarity matrix over participants.
    pub similarity: Vec<Vec<f32>>,
    /// What the server did for each participant, in upload order (Fig. 3's
    /// raw data): its row of `W`, members indexing the upload list, weights
    /// normalized, no divisor.
    pub entries: Vec<Row>,
    /// The ε Eq. 6 selected with (the adaptive quantile's value when one
    /// is configured, else the configured threshold).
    pub epsilon: f32,
    /// Uploads rejected for an invalid Eq. 7 weight source.
    pub rejected: usize,
}

impl AggregationReport {
    /// Mean size of the aggregation sets `|Iᵢ|`.
    pub fn members_mean(&self) -> f64 {
        let members: usize = self.entries.iter().map(|e| e.members.len()).sum();
        members as f64 / self.entries.len() as f64
    }

    /// Fraction of off-diagonal similarity pairs at or above
    /// [`Self::epsilon`] (0 for a single participant).
    pub fn sim_above_eps(&self) -> f64 {
        let n = self.similarity.len();
        let above = (self.similarity.iter().enumerate())
            .flat_map(|(i, row)| row.iter().enumerate().filter(move |&(j, _)| j != i))
            .filter(|&(_, &s)| s >= self.epsilon)
            .count();
        above as f64 / (n * (n - 1)).max(1) as f64
    }
}

/// Options controlling Eqs. 6–7 (a subset of
/// [`crate::config::FedGtaConfig`]).
#[derive(Debug, Clone, Copy)]
pub struct AggregateOptions {
    /// Similarity threshold ε.
    pub epsilon: f32,
    /// When set, override `epsilon` with this quantile of the observed
    /// off-diagonal similarities (adaptive aggregation).
    pub epsilon_quantile: Option<f64>,
    /// Similarity metric.
    pub similarity: SimilarityKind,
    /// `false` = "w/o Mom.": every client aggregates with everyone.
    pub use_moments: bool,
    /// `false` = "w/o Conf.": weights fall back to `n_train`.
    pub use_confidence: bool,
}

/// Computes the personalized aggregate for every upload.
///
/// Returns `(per-client aggregated parameters, report)`, both in upload
/// order. Allocating wrapper of [`personalized_aggregate_into`] with the
/// thread count resolved from the environment.
pub fn personalized_aggregate(
    uploads: &[ClientUpload<'_>],
    opts: &AggregateOptions,
) -> (Vec<Vec<f32>>, AggregationReport) {
    let mut out = Vec::new();
    let report = personalized_aggregate_into(uploads, opts, 0, &mut out);
    (out, report)
}

/// [`personalized_aggregate`] into reusable buffers — `out` gets one
/// `plen`-element buffer per upload, **reusing the ones it holds** — on
/// `threads` workers (`0` = resolve from the environment): Eq. 6/7 rows
/// ([`personalized_rows`]), then the row kernel ([`apply_rows`]), the
/// calls FedGTA's server rule and the round make. Bit-identical to the
/// serial scalar reference at any thread count.
pub fn personalized_aggregate_into(
    uploads: &[ClientUpload<'_>],
    opts: &AggregateOptions,
    threads: usize,
    out: &mut Vec<Vec<f32>>,
) -> AggregationReport {
    assert!(!uploads.is_empty(), "no uploads to aggregate");
    let plen = uploads[0].params.len();
    for u in uploads {
        assert_eq!(u.params.len(), plen, "inconsistent parameter lengths");
    }
    let sketches: Vec<&[f32]> = uploads.iter().map(|u| u.moments).collect();
    let sources: Vec<f64> = (uploads.iter())
        .map(|u| if opts.use_confidence { u.confidence } else { u.n_train as f64 })
        .collect();
    let report = personalized_rows(&sketches, &sources, opts, threads);
    let params: Vec<&[f32]> = uploads.iter().map(|u| u.params).collect();
    out.resize_with(uploads.len(), Vec::new);
    apply_rows(&params, &report.entries, out, threads);
    report
}

/// Eqs. 6–7 as rows of `W`, one per upload over the uploads, from each
/// upload's moment sketch and Eq. 7 weight source (`H`, or `n_train` under
/// "w/o Conf."). Eq. 6's similarity rows run on `threads` workers.
///
/// An upload whose weight source is NaN, infinite or negative is
/// **rejected**: no other client aggregates it, its own row is
/// `members = [itself]`, `weights = [1.0]` (its parameters back,
/// untouched), and the `fedgta.aggregate.rejected` counter rises by one.
pub fn personalized_rows(
    sketches: &[&[f32]],
    sources: &[f64],
    opts: &AggregateOptions,
    threads: usize,
) -> AggregationReport {
    let n = sketches.len();
    assert_eq!(sources.len(), n, "one weight source per sketch");
    let sim = {
        let _g = fedgta_obs::span!("similarity", participants = n as u64);
        similarity_matrix_threads(sketches, opts.similarity, threads)
    };
    let epsilon = match opts.epsilon_quantile {
        Some(q) => adaptive_epsilon(&sim, q),
        None => opts.epsilon,
    };
    // A non-finite or negative weight source — a diverged client uploads
    // `H = NaN`, a hostile one whatever it likes — would turn every weight
    // of every set containing it NaN, so its client is rejected: dropped
    // from everyone else's set and left alone in its own.
    let valid = |j: usize| sources[j].is_finite() && sources[j] >= 0.0;
    let rejected = (0..n).filter(|&j| !valid(j)).count();
    if rejected > 0 && fedgta_obs::metrics_on() {
        fedgta_obs::counter!("fedgta.aggregate.rejected").add(rejected as u64);
    }
    let entries = (0..n)
        .map(|i| {
            let members: Vec<usize> = (0..n)
                .filter(|&j| {
                    j == i || (valid(i) && valid(j) && (!opts.use_moments || sim[i][j] >= epsilon))
                })
                .collect();
            // Eq. 7 weights: the sources, normalized within Iᵢ.
            let total: f64 = members.iter().map(|&j| sources[j]).sum();
            let weights: Vec<f32> = if total > 0.0 && total.is_finite() {
                members.iter().map(|&j| (sources[j] / total) as f32).collect()
            } else {
                // Degenerate (all-zero confidence, a rejected client on its
                // own, a sum that overflows): uniform fallback.
                vec![1.0 / members.len() as f32; members.len()]
            };
            Row { members, weights, divisor: None }
        })
        .collect();
    AggregationReport { similarity: sim, entries, epsilon, rejected }
}

/// Adaptive aggregation (the paper's §5 future work): the ε of a round is
/// the `quantile`-th value of the finite off-diagonal entries of its
/// pairwise similarity matrix. A quantile of `0.8` keeps roughly the top
/// 20% most-similar pairs connected, regardless of how concentrated the
/// sketches are on this dataset — no per-dataset ε grid search (§4.1).
///
/// A diverged client's NaN sketch yields NaN similarities; they are left
/// out of the quantile and already fail Eq. 6's `sim ≥ ε`.
fn adaptive_epsilon(similarity: &[Vec<f32>], quantile: f64) -> f32 {
    let n = similarity.len();
    let mut off: Vec<f32> = Vec::with_capacity(n * n.saturating_sub(1) / 2);
    for (i, row) in similarity.iter().enumerate() {
        off.extend(row[(i + 1).min(row.len())..].iter().filter(|s| s.is_finite()));
    }
    if off.is_empty() {
        return 1.0; // single client (or no finite pair): isolation is the only option
    }
    off.sort_unstable_by(f32::total_cmp);
    let q = quantile.clamp(0.0, 1.0);
    let idx = ((off.len() - 1) as f64 * q).round() as usize;
    off[idx]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(eps: f32) -> AggregateOptions {
        AggregateOptions {
            epsilon: eps,
            epsilon_quantile: None,
            similarity: SimilarityKind::Cosine,
            use_moments: true,
            use_confidence: true,
        }
    }

    fn upload<'a>(params: &'a [f32], conf: f64, moments: &'a [f32]) -> ClientUpload<'a> {
        ClientUpload { params, confidence: conf, moments, n_train: 10 }
    }

    #[test]
    fn similar_clients_aggregate_dissimilar_stay_apart() {
        let p1 = [1.0, 1.0];
        let p2 = [3.0, 3.0];
        let p3 = [100.0, 100.0];
        let m_a = [1.0, 0.0];
        let m_b = [0.95, 0.05];
        let m_c = [0.0, 1.0];
        let ups = vec![upload(&p1, 1.0, &m_a), upload(&p2, 1.0, &m_b), upload(&p3, 1.0, &m_c)];
        let (agg, report) = personalized_aggregate(&ups, &opts(0.9));
        // Clients 0 and 1 merge (equal confidence → mean); client 2 alone.
        assert_eq!(report.entries[0].members, vec![0, 1]);
        assert_eq!(report.entries[2].members, vec![2]);
        assert!((agg[0][0] - 2.0).abs() < 1e-5);
        assert!((agg[2][0] - 100.0).abs() < 1e-5);
    }

    #[test]
    fn confidence_weights_dominant_member() {
        let p1 = [0.0];
        let p2 = [10.0];
        let m = [1.0, 0.0];
        let ups = vec![upload(&p1, 9.0, &m), upload(&p2, 1.0, &m)];
        let (agg, report) = personalized_aggregate(&ups, &opts(0.5));
        assert!((agg[0][0] - 1.0).abs() < 1e-5, "agg {}", agg[0][0]);
        assert!((report.entries[0].weights[0] - 0.9).abs() < 1e-6);
    }

    #[test]
    fn without_moments_everyone_aggregates() {
        let p1 = [0.0];
        let p2 = [10.0];
        let ma = [1.0, 0.0];
        let mb = [0.0, 1.0]; // orthogonal: would be excluded with moments on
        let ups = vec![upload(&p1, 1.0, &ma), upload(&p2, 1.0, &mb)];
        let o = AggregateOptions { use_moments: false, ..opts(0.9) };
        let (agg, _) = personalized_aggregate(&ups, &o);
        assert!((agg[0][0] - 5.0).abs() < 1e-5);
    }

    #[test]
    fn without_confidence_weights_by_train_size() {
        let p1 = [0.0];
        let p2 = [10.0];
        let m = [1.0, 0.0];
        let mut u1 = upload(&p1, 100.0, &m);
        u1.n_train = 30;
        let mut u2 = upload(&p2, 1.0, &m);
        u2.n_train = 10;
        let o = AggregateOptions { use_confidence: false, ..opts(0.5) };
        let (agg, _) = personalized_aggregate(&[u1, u2], &o);
        // Weighted 30:10 ⇒ (0·0.75 + 10·0.25).
        assert!((agg[0][0] - 2.5).abs() < 1e-5);
    }

    #[test]
    fn zero_confidence_falls_back_to_uniform() {
        let p1 = [0.0];
        let p2 = [2.0];
        let m = [1.0, 0.0];
        let ups = vec![upload(&p1, 0.0, &m), upload(&p2, 0.0, &m)];
        let (agg, _) = personalized_aggregate(&ups, &opts(0.5));
        assert!((agg[0][0] - 1.0).abs() < 1e-5);
    }

    /// The serial scalar reference: the seed implementation of Eq. 7,
    /// member-outer loop with `f64` accumulation.
    #[allow(clippy::needless_range_loop)] // mirrors the paper's W̃ᵢ subscripts
    fn serial_reference(uploads: &[ClientUpload<'_>], opts: &AggregateOptions) -> Vec<Vec<f32>> {
        let n = uploads.len();
        let plen = uploads[0].params.len();
        let sketches: Vec<&[f32]> = uploads.iter().map(|u| u.moments).collect();
        let sim = crate::similarity::similarity_matrix_threads(&sketches, opts.similarity, 1);
        let epsilon = match opts.epsilon_quantile {
            Some(q) => adaptive_epsilon(&sim, q),
            None => opts.epsilon,
        };
        let mut results = Vec::with_capacity(n);
        for i in 0..n {
            let members: Vec<usize> = if opts.use_moments {
                (0..n).filter(|&j| j == i || sim[i][j] >= epsilon).collect()
            } else {
                (0..n).collect()
            };
            let raw: Vec<f64> = members
                .iter()
                .map(|&j| {
                    if opts.use_confidence {
                        uploads[j].confidence
                    } else {
                        uploads[j].n_train as f64
                    }
                })
                .collect();
            let total: f64 = raw.iter().sum();
            let weights: Vec<f32> = if total <= 0.0 {
                vec![1.0 / members.len() as f32; members.len()]
            } else {
                raw.iter().map(|&w| (w / total) as f32).collect()
            };
            let mut agg = vec![0f64; plen];
            for (&j, &w) in members.iter().zip(&weights) {
                for (o, &p) in agg.iter_mut().zip(uploads[j].params) {
                    *o += w as f64 * p as f64;
                }
            }
            results.push(agg.into_iter().map(|v| v as f32).collect());
        }
        results
    }

    #[test]
    fn parallel_blocked_path_matches_serial_reference_bitwise() {
        // Deterministic pseudo-random federation, awkward plen (tail block).
        let n = 7usize;
        let plen = 37usize;
        let params: Vec<Vec<f32>> = (0..n)
            .map(|c| (0..plen).map(|i| ((c * 131 + i * 17) as f32 * 0.071).sin()).collect())
            .collect();
        let moments: Vec<Vec<f32>> =
            (0..n).map(|c| (0..12).map(|i| ((c * 7 + i) as f32 * 0.31).cos()).collect()).collect();
        let ups: Vec<ClientUpload<'_>> = (0..n)
            .map(|c| ClientUpload {
                params: &params[c],
                confidence: 0.1 + c as f64 * 0.3,
                moments: &moments[c],
                n_train: 5 + c,
            })
            .collect();
        for o in [
            opts(0.2),
            AggregateOptions { use_confidence: false, ..opts(0.5) },
            AggregateOptions { use_moments: false, ..opts(0.9) },
            AggregateOptions { epsilon_quantile: Some(0.5), ..opts(0.0) },
        ] {
            let want = serial_reference(&ups, &o);
            for threads in [1usize, 2, 4] {
                let mut got = Vec::new();
                let report = personalized_aggregate_into(&ups, &o, threads, &mut got);
                assert_eq!(report.entries.len(), n);
                for (g, w) in got.iter().zip(&want) {
                    for (a, b) in g.iter().zip(w) {
                        assert_eq!(a.to_bits(), b.to_bits(), "threads={threads}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_client_with_an_invalid_weight_source_is_rejected_not_averaged() {
        // Ten uploads with equal sketches: Eq. 6 puts everyone in everyone's
        // set, so before the guard one NaN `H` made all ten aggregates NaN.
        let n = 10usize;
        let params: Vec<Vec<f32>> = (0..n).map(|c| vec![c as f32, 1.0 - c as f32, 0.5]).collect();
        let m = [0.3f32, -0.2, 0.9];
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            for use_moments in [true, false] {
                let ups: Vec<ClientUpload<'_>> = (0..n)
                    .map(|c| upload(&params[c], if c == 3 { bad } else { 1.0 + c as f64 }, &m))
                    .collect();
                let o = AggregateOptions { use_moments, ..opts(0.5) };
                let (agg, report) = personalized_aggregate(&ups, &o);
                let others: Vec<usize> = (0..n).filter(|&c| c != 3).collect();
                let clean: Vec<ClientUpload<'_>> =
                    others.iter().map(|&c| upload(&params[c], 1.0 + c as f64, &m)).collect();
                let (want, _) = personalized_aggregate(&clean, &o);
                for (&c, want) in others.iter().zip(&want) {
                    assert_eq!(report.entries[c].members, others, "H = {bad}, client {c}");
                    // Exactly the aggregate of the nine clean uploads.
                    assert_eq!(&agg[c], want, "H = {bad}, client {c}");
                    assert!(agg[c].iter().all(|v| v.is_finite()));
                }
                assert_eq!(report.entries[3].members, vec![3]);
                assert_eq!(report.entries[3].weights, vec![1.0]);
                assert_eq!(agg[3], params[3], "H = {bad}: own parameters back");
            }
        }
        // "w/o Conf." weighs by `n_train` and never reads the bad `H`.
        let ups: Vec<ClientUpload<'_>> =
            (0..n).map(|c| upload(&params[c], if c == 3 { f64::NAN } else { 1.0 }, &m)).collect();
        let o = AggregateOptions { use_confidence: false, ..opts(0.5) };
        let (agg, report) = personalized_aggregate(&ups, &o);
        assert_eq!(report.entries[0].members.len(), n);
        assert!(agg.iter().flatten().all(|v| v.is_finite()));
        // Each rejected upload is counted once per call. No other test of
        // this binary rejects one, so the global counter is this test's.
        fedgta_obs::set_level(fedgta_obs::ObsLevel::Metrics);
        let rejected = fedgta_obs::counter!("fedgta.aggregate.rejected");
        let before = rejected.get();
        let ups = vec![
            upload(&params[0], 1.0, &m),
            upload(&params[1], f64::NAN, &m),
            upload(&params[2], -0.5, &m),
        ];
        personalized_aggregate(&ups, &opts(0.5));
        fedgta_obs::set_level(fedgta_obs::ObsLevel::Off);
        assert_eq!(rejected.get() - before, 2);
    }

    #[test]
    fn adaptive_epsilon_picks_quantiles() {
        let sim = vec![vec![1.0, 0.1, 0.5], vec![0.1, 1.0, 0.9], vec![0.5, 0.9, 1.0]];
        // Off-diagonal = [0.1, 0.5, 0.9].
        assert_eq!(adaptive_epsilon(&sim, 0.0), 0.1);
        assert_eq!(adaptive_epsilon(&sim, 0.5), 0.5);
        assert_eq!(adaptive_epsilon(&sim, 1.0), 0.9);
    }

    #[test]
    fn adaptive_epsilon_single_client_isolates() {
        let sim = vec![vec![1.0]];
        assert_eq!(adaptive_epsilon(&sim, 0.5), 1.0);
    }

    #[test]
    fn a_nan_sketch_under_adaptive_epsilon_aggregates_alone() {
        // A diverged client uploads a NaN sketch: its similarities are NaN,
        // which used to panic the adaptive quantile's sort.
        let params: Vec<Vec<f32>> = (0..4).map(|c| vec![c as f32; 3]).collect();
        let good = [0.3f32, -0.2, 0.9];
        let bad = [f32::NAN; 3];
        let ups: Vec<ClientUpload<'_>> =
            (0..4).map(|c| upload(&params[c], 1.0, if c == 2 { &bad } else { &good })).collect();
        let o = AggregateOptions { epsilon_quantile: Some(0.5), ..opts(0.0) };
        let (agg, report) = personalized_aggregate(&ups, &o);
        assert!(report.epsilon.is_finite());
        assert_eq!(report.entries[2].members, vec![2]);
        assert_eq!(agg[2], params[2]);
        for c in [0, 1, 3] {
            assert_eq!(report.entries[c].members, vec![0, 1, 3], "client {c}");
        }
    }

    #[test]
    fn into_variant_reuses_stale_output_buffers() {
        let p1 = [1.0f32, 3.0];
        let p2 = [5.0f32, 7.0];
        let m = [1.0f32, 0.0];
        let ups = vec![upload(&p1, 1.0, &m), upload(&p2, 1.0, &m)];
        // Stale state: wrong count, wrong sizes, garbage contents.
        let mut out = vec![vec![9.0f32; 64], vec![8.0f32; 1], vec![7.0f32; 3]];
        let caps: Vec<usize> = out.iter().map(|b| b.capacity()).collect();
        let report = personalized_aggregate_into(&ups, &opts(0.5), 1, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].len(), 2);
        assert!(out[0].capacity() >= caps[0].min(64), "buffer 0 was reused");
        assert!((out[0][0] - 3.0).abs() < 1e-6); // mean of 1 and 5
        assert_eq!(report.entries[0].members, vec![0, 1]);
        // Second warm call: same buffers, same result.
        let ptr = out[0].as_ptr();
        personalized_aggregate_into(&ups, &opts(0.5), 1, &mut out);
        assert_eq!(out[0].as_ptr(), ptr, "warm call must not reallocate");
    }

    #[test]
    fn self_is_always_a_member() {
        // Client 0's sketch is orthogonal to everyone including itself
        // being the only match.
        let p1 = [7.0];
        let p2 = [9.0];
        let ma = [1.0, 0.0];
        let mb = [0.0, 1.0];
        let ups = vec![upload(&p1, 1.0, &ma), upload(&p2, 1.0, &mb)];
        let (agg, report) = personalized_aggregate(&ups, &opts(0.99));
        assert_eq!(report.entries[0].members, vec![0]);
        assert_eq!(agg[0][0], 7.0);
        assert_eq!(agg[1][0], 9.0);
    }
}
