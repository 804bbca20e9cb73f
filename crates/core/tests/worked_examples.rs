//! Eq. 3 and Eq. 5 against a hand derivation, by `to_bits` — the companions
//! of Eq. 4's pin in `confidence.rs` (DESIGN.md §10.2, §10.3) — and the same
//! values end to end through `FedGta::client_metrics`, so the pooled upload
//! path is pinned by values and not only by agreement with itself. Eq. 6
//! and Eq. 7, the server's half, have their own three-client example at
//! the end of the file (DESIGN.md §10.4).
//!
//! Every number below is a dyadic rational small enough for an `f32`
//! (steps) or `f64` (powers and their sums) mantissa, so the code must
//! reproduce it exactly, whatever order it adds in.
//!
//! ## The example
//!
//! The weighted path `0 —3— 1 —12— 2 —3— 3`. With self-loops (`Â = A + I`)
//! the degrees are `D̂ = (4, 16, 16, 4)`, all even powers of two, so
//! `D̂^{-½} = (½, ¼, ¼, ½)` and `Ã = D̂^{-½} Â D̂^{-½}` is
//!
//! ```text
//!       ⎡ 1/4   3/8    0     0  ⎤        ⎡  1    0  ⎤
//!   Ã = ⎢ 3/8   1/16  3/4    0  ⎥   Ŷ⁰ = ⎢ 1/2  1/2 ⎥   α = ½
//!       ⎢  0    3/4   1/16  3/8 ⎥        ⎢  0    1  ⎥
//!       ⎣  0     0    3/8   1/4 ⎦        ⎣ 1/4  3/4 ⎦
//! ```
//!
//! `Ã` is not idempotent (unlike a perfect matching or K₄, the unweighted
//! 4-node graphs with power-of-two degrees, on which every step equals the
//! first), so a step computed from the wrong predecessor shows.
//!
//! ## Eq. 3: `Ŷˡ = α·Ŷ⁰ + (1−α)·Ã·Ŷˡ⁻¹` — α weights the *restart*
//!
//! ```text
//! step 1, Ã·Ŷ⁰:
//!   row 0: ¼(1, 0) + ⅜(½, ½)                  = (7/16,  3/16)
//!   row 1: ⅜(1, 0) + 1/16(½, ½) + ¾(0, 1)      = (13/32, 25/32)
//!   row 2: ¾(½, ½) + 1/16(0, 1) + ⅜(¼, ¾)      = (15/32, 23/32)
//!   row 3: ⅜(0, 1) + ¼(¼, ¾)                  = (1/16,  9/16)
//! Ŷ¹ = ½·Ŷ⁰ + ½·(Ã·Ŷ⁰):
//!   (23/32, 3/32)  (29/64, 41/64)  (15/64, 55/64)  (5/32, 21/32)
//!
//! step 2, Ã·Ŷ¹:
//!   row 0: ¼(23/32, 3/32) + ⅜(29/64, 41/64)                    = (179/512,  135/512)
//!   row 1: ⅜(23/32, 3/32) + 1/16(29/64, 41/64) + ¾(15/64, 55/64) = (485/1024, 737/1024)
//!   row 2: ¾(29/64, 41/64) + 1/16(15/64, 55/64) + ⅜(5/32, 21/32) = (423/1024, 799/1024)
//!   row 3: ⅜(15/64, 55/64) + ¼(5/32, 21/32)                    = (65/512,   249/512)
//! Ŷ² = ½·Ŷ⁰ + ½·(Ã·Ŷ¹):
//!   (691/1024, 135/1024)  (997/2048, 1249/2048)  (423/2048, 1823/2048)  (193/1024, 633/1024)
//! ```
//!
//! At `α = ½` the two weights coincide, so one step at `α = ¼` pins which
//! term `α` belongs to: `Ŷ¹ = ¼·Ŷ⁰ + ¾·(Ã·Ŷ⁰)` =
//! `(37/64, 9/64)  (55/128, 91/128)  (45/128, 101/128)  (7/64, 39/64)`.
//!
//! ## Eq. 5: per step and order `o`, `(1/n) Σᵢ (ŷᵢⱼ − μᵢ)ᵒ` per class `j`
//!
//! Central moments subtract the **per-node** class mean `μᵢ = (1/|Y|) Σⱼ ŷᵢⱼ`
//! first, then take the power, then average over the nodes; raw moments
//! skip the subtraction. The sketch is laid out `[step][order][class]`.
//!
//! ```text
//! step 1, μ = (13/32, 35/64, 35/64, 13/32); centred class 0 (class 1 is the negative):
//!   v = (5/16, −3/32, −5/16, −1/4)
//!   o = 1: Σ v  = −11/32                                  → ¼· = −11/128
//!   o = 2: Σ v² = 25/256 + 9/1024 + 25/256 + 1/16          = 273/1024   → 273/4096 (both classes)
//!   o = 3: Σ v³ = 125/4096 − 27/32768 − 125/4096 − 1/64    = −539/32768 → −539/131072
//! step 1, raw:
//!   o = 1: (23/32 + 29/64 + 15/64 + 5/32)/4 = 25/64;   (3/32 + 41/64 + 55/64 + 21/32)/4 = 9/16
//!   o = 2: (529/1024 + 841/4096 + 225/4096 + 25/1024)/4   = 1641/8192;  class 1: 3253/8192
//!   o = 3: (12167/32768 + 24389/262144 + 3375/262144 + 125/32768)/4 = 31525/262144;  class 1: 9675/32768
//!
//! step 2, μ = (413/1024, 1123/2048, 1123/2048, 413/1024); centred class 0:
//!   v = (139/512, −63/1024, −175/512, −55/256)
//!   o = 1: −355/4096    o = 2: 252153/4194304    o = 3: −32288095/4294967296
//! step 2, raw:
//!   o = 1: 797/2048, 9/16
//!   o = 2: 1615929/8388608, 3279493/8388608
//!   o = 3: 940935341/8589934592, 9819963/33554432
//! ```
//!
//! The two step-2, order-3 entries with 25- and 30-bit numerators are exact
//! in the `f64` accumulator and round once, in the final cast to `f32`.
//!
//! ## Eq. 6: `Iᵢ = { j : cos(Mᵢ, Mⱼ) ≥ ε } ∪ {i}`, and Eq. 7: `W̃ᵢ = Σ_{j∈Iᵢ} (Hⱼ / Σ_{j'∈Iᵢ} Hⱼ') · Wⱼ`
//!
//! Three clients whose sketches make every cosine exact:
//!
//! ```text
//!   M₀ = (1, 1, 1,  1)    ‖M₀‖ = √4 = 2
//!   M₁ = (1, 1, 1, −1)    ‖M₁‖ = √4 = 2
//!   M₂ = (1, −1, 0, 0)    ‖M₂‖ = √2
//!
//!   M₀·M₁ = 1 + 1 + 1 − 1 = 2   cos = 2 / (2·2)  = ½   — exactly ε: the boundary, selected (≥)
//!   M₀·M₂ = 1 − 1         = 0   cos = 0 / (2·√2) = 0   — below ε
//!   M₁·M₂ = 1 − 1         = 0   cos = 0
//!   Mᵢ·Mᵢ / ‖Mᵢ‖² = 1 (for M₂, 2 / (√2·√2) = 1 − 2⁻⁵² in `f64`, which rounds to 1 in `f32`)
//!
//!       ⎡ 1  ½  0 ⎤
//!   S = ⎢ ½  1  0 ⎥   ε = ½   ⇒   I₀ = I₁ = {0, 1},  I₂ = {2}
//!       ⎣ 0  0  1 ⎦
//! ```
//!
//! With `H = (1, 3, 5)` the weights inside `{0, 1}` are `1/(1+3) = ¼` and
//! `3/(1+3) = ¾`, and client 2's only weight is `5/5 = 1`. On the dyadic
//! parameters `W₀ = (4, −8, ½)`, `W₁ = (0, 16, 5/2)`, `W₂ = (7, 7, 7)`:
//!
//! ```text
//!   W̃₀ = W̃₁ = ¼·(4, −8, ½) + ¾·(0, 16, 5/2) = (1, −2 + 12, ⅛ + 15/8) = (1, 10, 2)
//!   W̃₂ = W₂
//! ```
//!
//! The three other branches of the weight rule, on the same sets:
//!
//! ```text
//!   H = (0, 0, 0): every sum is 0 ⇒ uniform, ½ and ½:    W̃₀ = W̃₁ = (2, 4, 3/2),  W̃₂ = W₂ (weight 1)
//!   "w/o Conf.", n_train = (3, 1, 9): ¾ and ¼:            W̃₀ = W̃₁ = (3, −6 + 4, ⅜ + ⅝) = (3, −2, 1)
//!   H = (1, NaN, 5): client 1 is rejected — nobody takes it, it keeps itself:
//!       I₀ = {0} (1/1 = 1), I₁ = {1} (the fallback's 1/1), I₂ = {2}:   W̃ᵢ = Wᵢ
//! ```

use fedgta::{
    label_propagation, local_smoothing_confidence, mixed_moments, moment_similarity,
    personalized_aggregate_into, AggregateOptions, ClientUpload, FedGta, FedGtaConfig, MomentKind,
    SimilarityKind,
};
use fedgta_fed::client::Client;
use fedgta_graph::EdgeList;
use fedgta_nn::{Adam, GraphDataset, GraphModel, Matrix, Optimizer, TrainHooks};

/// `num / den` rounded once to `f32` (`den` a power of two: the `f64`
/// quotient is exact).
fn q(num: i64, den: u64) -> f32 {
    (num as f64 / den as f64) as f32
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn y0() -> Matrix {
    Matrix::from_rows(&[&[1.0, 0.0], &[0.5, 0.5], &[0.0, 1.0], &[0.25, 0.75]])
}

fn dataset() -> GraphDataset {
    let mut el = EdgeList::new(4);
    for (u, v, w) in [(0, 1, 3.0), (1, 2, 12.0), (2, 3, 3.0)] {
        el.push_weighted(u, v, w).unwrap();
        el.push_weighted(v, u, w).unwrap();
    }
    let all = vec![0, 1, 2, 3];
    GraphDataset::new(&el.to_csr(), Matrix::zeros(4, 1), vec![0, 0, 1, 1], 2, all, vec![], vec![])
}

/// `[Ŷ¹, Ŷ²]` of the derivation, row-major.
fn expected_steps() -> [Vec<f32>; 2] {
    [
        vec![q(23, 32), q(3, 32), q(29, 64), q(41, 64), q(15, 64), q(55, 64), q(5, 32), q(21, 32)],
        vec![
            q(691, 1024),
            q(135, 1024),
            q(997, 2048),
            q(1249, 2048),
            q(423, 2048),
            q(1823, 2048),
            q(193, 1024),
            q(633, 1024),
        ],
    ]
}

/// The sketch of the derivation, `[step][order][class]`.
fn expected_sketch(kind: MomentKind) -> Vec<f32> {
    match kind {
        MomentKind::Central => vec![
            q(-11, 128),
            q(11, 128),
            q(273, 4096),
            q(273, 4096),
            q(-539, 131072),
            q(539, 131072),
            q(-355, 4096),
            q(355, 4096),
            q(252153, 4194304),
            q(252153, 4194304),
            q(-32288095, 4294967296),
            q(32288095, 4294967296),
        ],
        MomentKind::Raw => vec![
            q(25, 64),
            q(9, 16),
            q(1641, 8192),
            q(3253, 8192),
            q(31525, 262144),
            q(9675, 32768),
            q(797, 2048),
            q(9, 16),
            q(1615929, 8388608),
            q(3279493, 8388608),
            q(940935341, 8589934592),
            q(9819963, 33554432),
        ],
    }
}

#[test]
fn the_example_graph_normalises_to_the_matrix_in_the_derivation() {
    let data = dataset();
    assert_eq!(bits(&data.degrees_hat), bits(&[4.0, 16.0, 16.0, 4.0]));
    let a = &data.adj_norm;
    let row = |u: u32| (a.neighbors(u).to_vec(), bits(a.neighbor_weights(u).unwrap()));
    assert_eq!(row(0), (vec![0, 1], bits(&[0.25, 0.375])));
    assert_eq!(row(1), (vec![0, 1, 2], bits(&[0.375, 0.0625, 0.75])));
    assert_eq!(row(2), (vec![1, 2, 3], bits(&[0.75, 0.0625, 0.375])));
    assert_eq!(row(3), (vec![2, 3], bits(&[0.375, 0.25])));
}

#[test]
fn eq3_label_propagation_matches_the_hand_derivation_bitwise() {
    let steps = label_propagation(&dataset().adj_norm, &y0(), 2, 0.5);
    assert_eq!(steps.len(), 2);
    for (l, (got, want)) in steps.iter().zip(expected_steps()).enumerate() {
        assert_eq!(got.shape(), (4, 2));
        assert_eq!(bits(got.as_slice()), bits(&want), "Ŷ^{}: {:?}", l + 1, got.as_slice());
    }
    // α weights the restart term, not the propagated one.
    let quarter = label_propagation(&dataset().adj_norm, &y0(), 1, 0.25);
    let want = [q(37, 64), q(9, 64), q(55, 128), q(91, 128), q(45, 128), q(101, 128), q(7, 64), q(39, 64)];
    assert_eq!(bits(quarter[0].as_slice()), bits(&want), "α = ¼: {:?}", quarter[0].as_slice());
}

#[test]
fn eq5_mixed_moments_match_the_hand_derivation_bitwise() {
    let steps: Vec<Matrix> = expected_steps()
        .into_iter()
        .map(|s| Matrix::from_vec(4, 2, s))
        .collect();
    for kind in [MomentKind::Central, MomentKind::Raw] {
        let got = mixed_moments(&steps, 3, kind);
        assert_eq!(bits(&got), bits(&expected_sketch(kind)), "{kind:?}: {got:?}");
        // Orders 1…2 are the leading entries of each step's block.
        let low = mixed_moments(&steps, 2, kind);
        let want: Vec<f32> = expected_sketch(kind).chunks(6).flat_map(|s| s[..4].to_vec()).collect();
        assert_eq!(bits(&low), bits(&want), "{kind:?}, order 2");
    }
}

/// A model whose prediction is fixed: the example's `Ŷ⁰`, or any other.
#[derive(Clone)]
struct Fixed(Matrix);

impl GraphModel for Fixed {
    fn param_slice(&self) -> &[f32] {
        &[]
    }
    fn param_slice_mut(&mut self) -> &mut [f32] {
        &mut []
    }
    fn train_epoch(&mut self, _: &GraphDataset, _: &mut dyn Optimizer, _: &mut TrainHooks<'_>) -> f32 {
        0.0
    }
    fn predict_into(&mut self, _: &GraphDataset, out: &mut Matrix) {
        *out = self.0.clone();
    }
    fn penultimate(&mut self, _: &GraphDataset) -> Matrix {
        self.0.clone()
    }
    fn clone_box(&self) -> Box<dyn GraphModel> {
        Box::new(self.clone())
    }
}

fn client(id: usize, data: GraphDataset, soft: Matrix) -> Client {
    Client::new(id, data, Box::new(Fixed(soft)), Box::new(Adam::new(0.01, 0.0)))
}

#[test]
fn client_metrics_uploads_the_hand_derived_h_and_m_through_the_pool() {
    // A larger client with other soft labels, served from the same pool
    // between two visits of the example: its rows must not show.
    let mut ring = EdgeList::new(9);
    for i in 0..9 {
        ring.push_undirected(i, (i + 1) % 9).unwrap();
    }
    let ring = GraphDataset::new(&ring.to_csr(), Matrix::zeros(9, 1), vec![0; 9], 2, vec![0], vec![], vec![]);
    let mut other = client(1, ring, Matrix::from_vec(9, 2, (0..18).map(|i| i as f32 / 18.0).collect()));
    let mut example = client(0, dataset(), y0());

    let last = Matrix::from_vec(4, 2, expected_steps()[1].clone());
    let h = local_smoothing_confidence(&last, &[4.0, 16.0, 16.0, 4.0]);
    assert!(h.is_finite() && h > 0.0);
    for kind in [MomentKind::Central, MomentKind::Raw] {
        let strategy = FedGta::from(FedGtaConfig {
            k_lp: 2,
            alpha: 0.5,
            moment_order: 3,
            moment_kind: kind,
            ..FedGtaConfig::default()
        });
        let mut m = Vec::new();
        for visit in 0..3 {
            if visit == 1 {
                strategy.objective.client_metrics(&mut other, &mut m);
                assert_eq!(m.len(), 2 * 3 * 2);
                continue;
            }
            let got = strategy.objective.client_metrics(&mut example, &mut m);
            assert_eq!(got.to_bits(), h.to_bits(), "{kind:?} visit {visit}: H = {got}");
            assert_eq!(bits(&m), bits(&expected_sketch(kind)), "{kind:?} visit {visit}: {m:?}");
        }
        assert_eq!(strategy.objective.pooled_scratch().0, 1);
    }
}

/// `M₀, M₁, M₂` and `W₀, W₁, W₂` of the Eq. 6 / Eq. 7 example.
const SKETCHES: [[f32; 4]; 3] = [[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, -1.0], [1.0, -1.0, 0.0, 0.0]];
const PARAMS: [[f32; 3]; 3] = [[4.0, -8.0, 0.5], [0.0, 16.0, 2.5], [7.0, 7.0, 7.0]];

/// Aggregates the example at `ε = ½` with weight sources `h` / `n_train`,
/// at 1 and at 4 threads, and checks sets, weights and parameters by bits.
fn assert_aggregate(
    h: [f64; 3],
    n_train: [usize; 3],
    use_confidence: bool,
    sets: [&[usize]; 3],
    weights: [&[f32]; 3],
    params: [[f32; 3]; 3],
) {
    let uploads: Vec<ClientUpload<'_>> = (0..3)
        .map(|i| ClientUpload {
            params: &PARAMS[i],
            confidence: h[i],
            moments: &SKETCHES[i],
            n_train: n_train[i],
        })
        .collect();
    let opts = AggregateOptions {
        epsilon: 0.5,
        epsilon_quantile: None,
        similarity: SimilarityKind::Cosine,
        use_moments: true,
        use_confidence,
    };
    for threads in [1, 4] {
        // Stale, wrongly sized buffers: every element must be overwritten.
        let mut out = vec![vec![f32::NAN; 5]];
        let report = personalized_aggregate_into(&uploads, &opts, threads, &mut out);
        let sim: Vec<Vec<u32>> = report.similarity.iter().map(|r| bits(r)).collect();
        assert_eq!(sim, [bits(&[1.0, 0.5, 0.0]), bits(&[0.5, 1.0, 0.0]), bits(&[0.0, 0.0, 1.0])]);
        for i in 0..3 {
            let e = &report.entries[i];
            assert_eq!(e.members, sets[i], "I_{i} at {threads} threads");
            assert_eq!(bits(&e.weights), bits(weights[i]), "weights of {i}: {:?}", e.weights);
            assert_eq!(bits(&out[i]), bits(&params[i]), "W̃_{i}: {:?}", out[i]);
        }
    }
}

#[test]
fn eq6_cosine_is_exact_on_the_example_and_the_boundary_pair_is_selected() {
    let cos = |i: usize, j: usize| moment_similarity(&SKETCHES[i], &SKETCHES[j], SimilarityKind::Cosine);
    assert_eq!(cos(0, 1).to_bits(), 0.5f32.to_bits());
    assert_eq!(cos(0, 2).to_bits(), 0f32.to_bits());
    assert_eq!(cos(1, 2).to_bits(), 0f32.to_bits());
    // Eq. 7 on Eq. 6's sets: `≥ ε` keeps the pair at exactly ε together
    // (a strict `>` would leave every client alone with its own model).
    let merged = [1.0, 10.0, 2.0];
    assert_aggregate(
        [1.0, 3.0, 5.0],
        [10; 3],
        true,
        [&[0, 1], &[0, 1], &[2]],
        [&[0.25, 0.75], &[0.25, 0.75], &[1.0]],
        [merged, merged, PARAMS[2]],
    );
}

#[test]
fn eq7_fallback_weight_sources_match_the_hand_derivation_bitwise() {
    let pair: [&[usize]; 3] = [&[0, 1], &[0, 1], &[2]];
    // All-zero H: uniform inside each set.
    let uniform = [2.0, 4.0, 1.5];
    assert_aggregate(
        [0.0; 3],
        [10; 3],
        true,
        pair,
        [&[0.5, 0.5], &[0.5, 0.5], &[1.0]],
        [uniform, uniform, PARAMS[2]],
    );
    // "w/o Conf.": n_train weights, H ignored (even a NaN one).
    let by_size = [3.0, -2.0, 1.0];
    assert_aggregate(
        [f64::NAN, 100.0, 0.0],
        [3, 1, 9],
        false,
        pair,
        [&[0.75, 0.25], &[0.75, 0.25], &[1.0]],
        [by_size, by_size, PARAMS[2]],
    );
    // A NaN H is rejected: out of client 0's set, alone in its own.
    assert_aggregate(
        [1.0, f64::NAN, 5.0],
        [10; 3],
        true,
        [&[0], &[1], &[2]],
        [&[1.0], &[1.0], &[1.0]],
        PARAMS,
    );
}
