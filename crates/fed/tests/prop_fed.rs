//! Property-based tests for the federated substrate.

use fedgta_fed::round::sample_participants;
use fedgta_fed::strategies::gcfl::dtw_distance;
use fedgta_fed::strategies::{l2_norm, sub, Row};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FedAvg's Eq. 2 over `(params, n_train)` uploads: one row through the
/// server's row kernel.
fn fedavg(uploads: &[(Vec<f32>, f64)]) -> Vec<f32> {
    let p: Vec<&[f32]> = uploads.iter().map(|u| u.0.as_slice()).collect();
    let mut out = Vec::new();
    Row::average(uploads.iter().map(|u| u.1).enumerate()).apply(&p, &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn weighted_average_is_convex_per_coordinate(
        params in proptest::collection::vec(
            proptest::collection::vec(-5.0f32..5.0, 4),
            1..6,
        ),
        weights in proptest::collection::vec(1u32..10_000, 6),
    ) {
        let ups: Vec<(Vec<f32>, f64)> = params
            .iter()
            .enumerate()
            .map(|(i, p)| (p.clone(), weights[i % weights.len()] as f64))
            .collect();
        let avg = fedavg(&ups);
        for j in 0..4 {
            let lo = params.iter().map(|p| p[j]).fold(f32::INFINITY, f32::min);
            let hi = params.iter().map(|p| p[j]).fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(avg[j] >= lo - 1e-4 && avg[j] <= hi + 1e-4);
        }
    }

    #[test]
    fn weighted_average_identity_on_single_upload(
        p in proptest::collection::vec(-5.0f32..5.0, 1..10),
        w in 1u32..100_000,
    ) {
        let avg = fedavg(&[(p.clone(), w as f64)]);
        for (a, b) in avg.iter().zip(&p) {
            prop_assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn weighted_average_scale_invariant_in_weights(
        params in proptest::collection::vec(
            proptest::collection::vec(-2.0f32..2.0, 3),
            2..5,
        ),
        scale in 1u32..20,
    ) {
        let w: Vec<f64> = (1..=params.len()).map(|i| i as f64).collect();
        let a = fedavg(
            &params.iter().cloned().zip(w.iter().copied()).collect::<Vec<_>>(),
        );
        let b = fedavg(
            &params.iter().cloned().zip(w.iter().map(|&x| x * scale as f64)).collect::<Vec<_>>(),
        );
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn dtw_is_symmetric_and_zero_on_self(
        a in proptest::collection::vec(proptest::collection::vec(-3.0f32..3.0, 2), 1..6),
        b in proptest::collection::vec(proptest::collection::vec(-3.0f32..3.0, 2), 1..6),
    ) {
        prop_assert!(dtw_distance(&a, &a) < 1e-9);
        let ab = dtw_distance(&a, &b);
        let ba = dtw_distance(&b, &a);
        prop_assert!((ab - ba).abs() < 1e-9);
        prop_assert!(ab >= 0.0);
    }

    #[test]
    fn dtw_dominated_by_pointwise_distance_sum(
        a in proptest::collection::vec(proptest::collection::vec(-3.0f32..3.0, 2), 2..6),
    ) {
        // Aligning a sequence with a shifted copy of itself can never cost
        // more than the naive step-by-step alignment.
        let mut shifted = a.clone();
        shifted.rotate_right(1);
        let dtw = dtw_distance(&a, &shifted);
        let naive: f64 = a
            .iter()
            .zip(&shifted)
            .map(|(x, y)| l2_norm(&sub(x, y)))
            .sum();
        prop_assert!(dtw <= naive + 1e-6, "dtw {} > naive {}", dtw, naive);
    }

    #[test]
    fn participant_samples_are_sorted_unique_and_sized(
        n in 1usize..40,
        participation in 0.0f64..1.5,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = sample_participants(n, participation, &mut rng);
        // Sorted and duplicate-free.
        prop_assert!(p.windows(2).all(|w| w[0] < w[1]));
        // All in range.
        prop_assert!(p.iter().all(|&i| i < n));
        // Exactly clamp(round(n·participation), 1, n) participants.
        let expect = ((n as f64 * participation).round() as usize).clamp(1, n);
        prop_assert_eq!(p.len(), expect);
    }

    #[test]
    fn participant_sampling_is_seed_stable(
        n in 1usize..40,
        participation in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        // Same seed ⇒ same subset; the round driver relies on this for
        // thread-count-independent participation.
        let a = sample_participants(n, participation, &mut StdRng::seed_from_u64(seed));
        let b = sample_participants(n, participation, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(a, b);
    }

    #[test]
    fn full_participation_selects_everyone(n in 1usize..40, seed in 0u64..100) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = sample_participants(n, 1.0, &mut rng);
        prop_assert_eq!(p, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn sub_norm_triangle_inequality(
        a in proptest::collection::vec(-5.0f32..5.0, 1..8),
        b in proptest::collection::vec(-5.0f32..5.0, 1..8),
    ) {
        prop_assume!(a.len() == b.len());
        let d = l2_norm(&sub(&a, &b));
        prop_assert!(d <= l2_norm(&a) + l2_norm(&b) + 1e-6);
        prop_assert!(d >= (l2_norm(&a) - l2_norm(&b)).abs() - 1e-6);
    }
}

#[test]
fn zero_clients_yield_no_participants() {
    let mut rng = StdRng::seed_from_u64(0);
    assert!(sample_participants(0, 1.0, &mut rng).is_empty());
}
