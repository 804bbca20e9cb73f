//! Medians, percentiles and the quartile spread the acceptance rule uses.

/// Sorted copy (NaN-free input is the caller's contract: every sample is
/// a measured time or count).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// Linear-interpolated percentile `p ∈ [0, 100]` (0 for no samples).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return 0.0;
    }
    let pos = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// The smallest sample (0 for no samples, like the other statistics).
pub fn min(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The highest of p99 / p95 / p90 / p75 that has at least ten samples
/// beyond it, as `(percentile, value)`; with fewer than forty samples no
/// tail is supported and the median is returned as `(50, median)`.
pub fn tail_percentile(xs: &[f64]) -> (f64, f64) {
    for p in [99usize, 95, 90, 75] {
        if xs.len() * (100 - p) >= 10 * 100 {
            return (p as f64, percentile(xs, p as f64));
        }
    }
    (50.0, median(xs))
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// gives them (the exclusive method) — the acceptance rule's definition.
/// Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Distance between the quartiles as a share of the median (0 when the
/// median is 0 or there are fewer than two samples).
pub fn spread(xs: &[f64]) -> f64 {
    let med = median(xs);
    match quartiles(xs) {
        Some((q1, q3)) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles_interpolate() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 25.0), 2.0);
        assert_eq!(percentile(&[1.0, 2.0], 90.0), 1.9);
        assert_eq!(percentile(&[5.0, 1.0], 0.0), 1.0);
        assert_eq!(percentile(&[5.0, 1.0], 100.0), 5.0);
        assert_eq!(min(&[]), 0.0);
        assert_eq!(min(&[4.0, 1.5, 3.0]), 1.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail_percentile(&ramp(39)).0, 50.0);
        assert_eq!(tail_percentile(&ramp(40)).0, 75.0);
        assert_eq!(tail_percentile(&ramp(99)).0, 75.0);
        assert_eq!(tail_percentile(&ramp(100)).0, 90.0);
        assert_eq!(tail_percentile(&ramp(200)).0, 95.0);
        assert_eq!(tail_percentile(&ramp(1000)).0, 99.0);
        let (p, v) = tail_percentile(&ramp(101));
        assert_eq!((p, v), (90.0, 91.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        assert_eq!(
            quartiles(&[10.0, 20.0, 30.0, 40.0, 50.0]),
            Some((15.0, 45.0))
        );
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&xs) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[7.0, 7.0, 7.0]), 0.0);
    }
}
