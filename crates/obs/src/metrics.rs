//! Typed metrics: counters, gauges, log2-bucketed histograms, and the
//! [`Registry`] that names them.
//!
//! Every metric is a preallocated bundle of atomics: recording is one
//! relaxed atomic RMW guarded by a relaxed level load, so instrumented
//! hot paths (kernel entry points, the client-parallel executor) stay
//! allocation-free and safe inside `par_map_indexed` workers. With
//! [`crate::ObsLevel::Off`] the RMW is skipped entirely.
//!
//! Instrumented sites cache their handle once, in a call-site `static`
//! behind [`crate::counter!`] / [`crate::histogram!`]:
//!
//! ```
//! fedgta_obs::counter!("kernel.matmul.flops").add(128);
//! ```

use crate::metrics_on;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of log2 histogram buckets: bucket `i > 0` covers
/// `[2^(i-1), 2^i)`; bucket 0 holds zeros; the last bucket absorbs
/// everything `>= 2^62`.
pub const HIST_BUCKETS: usize = 64;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `v` (no-op below [`crate::ObsLevel::Metrics`]).
    #[inline(always)]
    pub fn add(&self, v: u64) {
        if metrics_on() {
            self.value.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Adds 1.
    #[inline(always)]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Zeroes the counter (tests / per-run resets).
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A last-value / high-water gauge.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// Stores `v` (no-op below metrics level).
    #[inline(always)]
    pub fn set(&self, v: u64) {
        if metrics_on() {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Raises the gauge to `v` if larger (high-water tracking; no-op
    /// below metrics level).
    #[inline(always)]
    pub fn set_max(&self, v: u64) {
        if metrics_on() {
            self.value.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Zeroes the gauge.
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A log2-bucketed histogram of `u64` samples (nanoseconds, bytes, rows).
///
/// 64 fixed buckets cover the full `u64` range, so `observe` never
/// allocates and percentile queries resolve to a bucket's upper bound —
/// at most 2× relative error, plenty for latency breakdowns. The exact
/// maximum is tracked separately.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// The bucket index a value lands in: 0 for 0, else `64 - leading_zeros`
/// clamped to the last bucket (`[2^(i-1), 2^i)` for bucket `i`).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

/// The exclusive upper bound of bucket `i` (`u64::MAX` for the last).
pub fn bucket_upper(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        1u64 << i
    }
}

impl Histogram {
    /// Records one sample (no-op below metrics level).
    #[inline(always)]
    pub fn observe(&self, v: u64) {
        if !metrics_on() {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Exact maximum sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Approximate `q`-quantile (`0.0..=1.0`): the upper bound of the
    /// bucket where the cumulative count crosses `q · count`. Returns 0
    /// when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                // Never report beyond the observed maximum.
                return bucket_upper(i).min(self.max());
            }
        }
        self.max()
    }

    /// Per-bucket counts (for tests and serialization).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }

    /// Zeroes the histogram.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// One registered metric.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// The kind of a registered metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

impl MetricKind {
    /// `counter` / `gauge` / `histogram`.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Counter => "counter",
            Self::Gauge => "gauge",
            Self::Histogram => "histogram",
        }
    }
}

/// A read-only view of one metric at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Dotted metric name (e.g. `comms.upload_bytes`).
    pub name: String,
    pub kind: MetricKind,
    /// Counter or gauge value; histogram sum.
    pub value: u64,
    /// Histogram sample count (0 for counters/gauges).
    pub count: u64,
    /// Histogram p50 (bucket upper bound).
    pub p50: u64,
    /// Histogram p95 (bucket upper bound).
    pub p95: u64,
    /// Histogram exact max.
    pub max: u64,
    /// Histogram per-bucket counts ([`HIST_BUCKETS`] entries; empty for
    /// counters/gauges). Feeds the cumulative Prometheus exposition.
    pub buckets: Vec<u64>,
}

/// A named collection of metrics — global by default ([`global`]) or
/// constructed per test for isolation.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, registering it on first use.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different kind — as do
    /// [`Self::gauge`] and [`Self::histogram`].
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.handle(name, Metric::Counter, |m| match m {
            Metric::Counter(c) => Some(c),
            _ => None,
        })
    }

    /// The gauge named `name`, registering it on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.handle(name, Metric::Gauge, |m| match m {
            Metric::Gauge(g) => Some(g),
            _ => None,
        })
    }

    /// The histogram named `name`, registering it on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.handle(name, Metric::Histogram, |m| match m {
            Metric::Histogram(h) => Some(h),
            _ => None,
        })
    }

    /// The metric named `name` as `T`, registered through `wrap` on first
    /// use and read back through `of`.
    fn handle<T: Default>(
        &self,
        name: &str,
        wrap: fn(Arc<T>) -> Metric,
        of: fn(&Metric) -> Option<&Arc<T>>,
    ) -> Arc<T> {
        let mut m = self.inner.lock().expect("registry poisoned");
        let metric = m.entry(name.to_string()).or_insert_with(|| wrap(Arc::default()));
        of(metric)
            .cloned()
            .unwrap_or_else(|| panic!("metric '{name}' already registered with a different kind"))
    }

    /// Point-in-time snapshot of every registered metric, name-sorted.
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let m = self.inner.lock().expect("registry poisoned");
        m.iter()
            .map(|(name, metric)| {
                let (kind, value, h) = match metric {
                    Metric::Counter(c) => (MetricKind::Counter, c.get(), None),
                    Metric::Gauge(g) => (MetricKind::Gauge, g.get(), None),
                    Metric::Histogram(h) => (MetricKind::Histogram, h.sum(), Some(h)),
                };
                MetricSnapshot {
                    name: name.clone(),
                    kind,
                    value,
                    count: h.map_or(0, |h| h.count()),
                    p50: h.map_or(0, |h| h.quantile(0.50)),
                    p95: h.map_or(0, |h| h.quantile(0.95)),
                    max: h.map_or(0, |h| h.max()),
                    buckets: h.map_or_else(Vec::new, |h| h.bucket_counts()),
                }
            })
            .collect()
    }

    /// Zeroes every registered metric (handles held by instrumented sites
    /// stay valid).
    pub fn reset(&self) {
        let m = self.inner.lock().expect("registry poisoned");
        for metric in m.values() {
            match metric {
                Metric::Counter(c) => c.reset(),
                Metric::Gauge(g) => g.reset(),
                Metric::Histogram(h) => h.reset(),
            }
        }
    }

    /// Renders the Prometheus text exposition format (version 0.0.4).
    ///
    /// Counters and gauges render as themselves. Log2 histograms render
    /// as proper cumulative histogram series: one `_bucket{le="..."}`
    /// line per occupied prefix of the log2 grid, then `_bucket{le="+Inf"}`,
    /// `_sum` and `_count`. Because samples are integers and bucket `i`
    /// covers `[2^(i-1), 2^i)`, the *inclusive* upper bound `le = 2^i - 1`
    /// is exact, not approximate (bucket 0 holds zeros → `le="0"`). The
    /// exact observed maximum is kept as a companion `_max` gauge.
    ///
    /// `+Inf` and `_count` are the sum of the same bucket snapshot the
    /// finite lines add up: the histogram's sample counter is read apart
    /// from its buckets, so under a concurrent `observe` it may lag them.
    pub fn render_prometheus(&self) -> String {
        render_snapshots(&self.snapshot())
    }
}

/// [`Registry::render_prometheus`] over a given snapshot.
fn render_snapshots(snapshot: &[MetricSnapshot]) -> String {
    let mut out = String::with_capacity(1024);
    for s in snapshot {
        let base = prometheus_name(&s.name);
        match s.kind {
            MetricKind::Counter | MetricKind::Gauge => {
                let kind = s.kind.as_str();
                out.push_str(&format!("# TYPE {base} {kind}\n{base} {}\n", s.value));
            }
            MetricKind::Histogram => {
                out.push_str(&format!("# TYPE {base} histogram\n"));
                let hi = s
                    .buckets
                    .iter()
                    .rposition(|&c| c > 0)
                    .map(|i| i.min(HIST_BUCKETS - 2))
                    .unwrap_or(0);
                let mut cum = 0u64;
                for (i, &c) in s.buckets.iter().enumerate().take(hi + 1) {
                    cum += c;
                    out.push_str(&format!("{base}_bucket{{le=\"{}\"}} {cum}\n", bucket_le(i)));
                }
                let count: u64 = s.buckets.iter().sum();
                out.push_str(&format!("{base}_bucket{{le=\"+Inf\"}} {count}\n"));
                out.push_str(&format!("{base}_sum {}\n", s.value));
                out.push_str(&format!("{base}_count {count}\n"));
                out.push_str(&format!("# TYPE {base}_max gauge\n{base}_max {}\n", s.max));
            }
        }
    }
    out
}

/// Inclusive `le` label for log2 bucket `i`: bucket 0 holds zeros, bucket
/// `i > 0` covers `[2^(i-1), 2^i)` whose largest integer member is
/// `2^i - 1`. The final bucket has no finite bound (callers emit `+Inf`).
fn bucket_le(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        (1u64 << i) - 1
    }
}

/// `comms.upload_bytes` → `fedgta_comms_upload_bytes`.
fn prometheus_name(name: &str) -> String {
    let mut s = String::with_capacity(name.len() + 7);
    s.push_str("fedgta_");
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() || ch == '_' || ch == ':' {
            s.push(ch);
        } else {
            s.push('_');
        }
    }
    s
}

/// The process-global registry every default-instrumented site records
/// into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{set_level, ObsLevel};

    /// Serializes tests that flip the global level.
    static LEVEL_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn counters_only_move_when_enabled() {
        let _g = LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let c = Counter::default();
        set_level(ObsLevel::Off);
        c.add(5);
        assert_eq!(c.get(), 0);
        set_level(ObsLevel::Metrics);
        c.add(5);
        c.inc();
        assert_eq!(c.get(), 6);
        set_level(ObsLevel::Off);
    }

    #[test]
    fn gauge_set_and_high_water() {
        let _g = LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_level(ObsLevel::Metrics);
        let g = Gauge::default();
        g.set(10);
        g.set_max(5); // lower: ignored
        assert_eq!(g.get(), 10);
        g.set_max(99);
        assert_eq!(g.get(), 99);
        set_level(ObsLevel::Off);
    }

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        // Satellite requirement: exact bucket-boundary coverage.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1); // [1, 2)
        assert_eq!(bucket_index(2), 2); // [2, 4)
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
        for i in 1..10 {
            // Every power of two opens a new bucket; one less stays below.
            assert_eq!(bucket_index(1 << i), i + 1);
            assert_eq!(bucket_index((1 << i) - 1), i);
        }
        assert_eq!(bucket_upper(3), 8);
        assert_eq!(bucket_upper(63), u64::MAX);
    }

    #[test]
    fn histogram_quantiles_and_stats() {
        let _g = LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_level(ObsLevel::Metrics);
        let h = Histogram::default();
        for v in [1u64, 2, 3, 100, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1106);
        assert_eq!(h.max(), 1000);
        // p50 of {1,2,3,100,1000}: third sample sits in bucket [2,4) → 4.
        assert_eq!(h.quantile(0.5), 4);
        // p100 is clamped to the exact max, not the bucket bound (1024).
        assert_eq!(h.quantile(1.0), 1000);
        assert_eq!(h.quantile(0.0), 2); // first sample's bucket [1,2) → upper bound 2
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        set_level(ObsLevel::Off);
    }

    #[test]
    fn registry_reuses_and_snapshots() {
        let _g = LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_level(ObsLevel::Metrics);
        let r = Registry::new();
        let c1 = r.counter("a.count");
        let c2 = r.counter("a.count");
        c1.add(3);
        c2.add(4);
        r.gauge("b.gauge").set(9);
        r.histogram("c.hist").observe(17);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].name, "a.count");
        assert_eq!(snap[0].value, 7, "both handles hit the same atomic");
        assert_eq!(snap[1].value, 9);
        assert_eq!(snap[2].count, 1);
        assert_eq!(snap[2].max, 17);
        let prom = r.render_prometheus();
        assert!(prom.contains("fedgta_a_count 7"));
        assert!(prom.contains("# TYPE fedgta_b_gauge gauge"));
        assert!(prom.contains("fedgta_c_hist_count 1"));
        // Histograms expose proper cumulative buckets: 17 lands in
        // [16, 32) → first nonzero cumulative count at le="31".
        assert!(prom.contains("# TYPE fedgta_c_hist histogram"));
        assert!(prom.contains("fedgta_c_hist_bucket{le=\"15\"} 0"));
        assert!(prom.contains("fedgta_c_hist_bucket{le=\"31\"} 1"));
        assert!(prom.contains("fedgta_c_hist_bucket{le=\"+Inf\"} 1"));
        assert!(prom.contains("fedgta_c_hist_sum 17"));
        assert!(!prom.contains("_p50"), "quantile gauges superseded by buckets");
        r.reset();
        assert_eq!(r.counter("a.count").get(), 0);
        set_level(ObsLevel::Off);
    }

    /// A snapshot taken while `observe` runs on another thread can read a
    /// sample count that lags its buckets. The exposition stays a
    /// cumulative, monotone series whose `+Inf` and `_count` agree with
    /// the buckets it printed.
    #[test]
    fn a_count_lagging_its_buckets_renders_monotone() {
        let mut buckets = vec![0u64; HIST_BUCKETS];
        (buckets[2], buckets[5]) = (3, 2);
        let snap = MetricSnapshot {
            name: "c.hist".into(),
            kind: MetricKind::Histogram,
            value: 60,
            count: 4,
            p50: 3,
            p95: 31,
            max: 20,
            buckets,
        };
        let prom = render_snapshots(&[snap]);
        assert!(prom.contains("fedgta_c_hist_bucket{le=\"31\"} 5\n"), "{prom}");
        assert!(prom.contains("fedgta_c_hist_bucket{le=\"+Inf\"} 5\n"), "{prom}");
        assert!(prom.contains("fedgta_c_hist_count 5\n"), "{prom}");
        let cum: Vec<u64> = prom
            .lines()
            .filter(|l| l.starts_with("fedgta_c_hist_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(cum.windows(2).all(|w| w[0] <= w[1]), "{cum:?}");
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_conflicts_panic() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }
}
