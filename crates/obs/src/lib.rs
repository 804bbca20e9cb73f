//! # fedgta-obs — zero-dependency observability for the FedGTA stack
//!
//! A measurement substrate for the whole simulator: hierarchical spans,
//! typed metrics, a JSONL trace sink, and a trace aggregator — with a
//! hard contract that **observability never changes numeric results** and
//! that the disabled path costs nothing but a relaxed atomic load.
//!
//! ## Pieces
//!
//! - [`ObsLevel`]: a process-global verbosity knob. `Off` (default) keeps
//!   every hot path allocation-free and nearly branch-free; `Metrics`
//!   arms the preallocated atomic counters/gauges/histograms; `Trace`
//!   additionally opens spans and streams one JSONL event per span close.
//!   An armed flight recorder opens spans at any level, to capture
//!   their closes in its ring.
//! - [`metrics::Registry`]: named [`Counter`]s, [`Gauge`]s (max/set) and
//!   log2-bucketed [`Histogram`]s, global by default
//!   ([`metrics::global`]) or injected for tests. Renders a
//!   Prometheus-text snapshot via [`metrics::Registry::render_prometheus`].
//! - [`span`]: RAII span guards with monotonic-ns timing, thread-local
//!   parent stacks, and explicit cross-thread parenting
//!   ([`span::span_under`]) so per-client spans opened inside
//!   `par_map_indexed` workers still hang off the round's `train` span.
//! - [`trace`]: the one event vocabulary, [`TraceEvent`], with its one
//!   JSON writer and one lossy reader ([`parse_events`]), and
//!   [`summarize`]: one walk over the span tree that yields per-round /
//!   per-client / per-strategy / per-span-name tables (p50/p95/max, self
//!   time, bytes, throughput) and folded flamegraph stacks — the engine
//!   behind `fedgta-cli report`, which renders a dump as a timeline.
//! - [`sink`]: the JSONL event stream (`--trace-out trace.jsonl`),
//!   schema-versioned ([`TRACE_SCHEMA`]), thread-safe behind one mutex.
//! - [`recorder`]: the always-on flight recorder — a fixed-capacity ring
//!   of recent span-close/fault/note events with a hard memory bound,
//!   serialized to a canonical postmortem dump (the same schema, the
//!   same events) on quorum failure or panic.
//! - [`serve`]: a zero-dependency `TcpListener` endpoint (`/metrics`,
//!   `/healthz`, `/rounds`) for live scraping of the global registry
//!   while a run is in flight.
//!
//! ## Determinism contract
//!
//! Instrumentation only *reads* the computation: counters accumulate
//! observed sizes, spans record wall-clock. No code path may branch on a
//! metric value, so results are bit-identical with observability off,
//! on, or mid-run-toggled, at any thread count. The integration suite
//! (`tests/integration_obs.rs` in the umbrella crate) proves this by
//! running the same federated round with tracing off/on × 1/4 threads.

#![deny(unsafe_code)]

pub mod metrics;
pub mod recorder;
pub mod serve;
pub mod sink;
pub mod span;
pub mod trace;

pub use metrics::{global, Counter, Gauge, Histogram, MetricKind, Registry};
pub use sink::{init_jsonl, init_writer, shutdown, trace_installed, MemorySink};
pub use span::{current_span_id, now_ns, run_trace_id, span_named, span_under, SpanGuard};
pub use trace::{
    json_object, parse_events, parse_flat_object, parse_trace, render_dump, render_folded,
    render_report, summarize, JsonVal, TraceEvent, TraceSummary,
};

/// Serializes unit tests that touch process-global observability state
/// (level, recorder ring) across this crate's test modules.
#[cfg(test)]
pub(crate) static TEST_GLOBAL_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

use std::sync::atomic::{AtomicU8, Ordering};

/// Schema identifier of traces and postmortem dumps alike, written as
/// the first JSONL line and checked by the strict parser. Bump on
/// breaking event-shape changes.
///
/// Schema history (additive changes do not bump the version — readers
/// must tolerate unknown fields and default missing ones to zero):
/// - `fedgta-trace/1`: initial shape.
/// - `fedgta-trace/1` (comms update): round spans gained optional
///   `completed` / `dropped` / `retries` fields recording how many
///   sampled clients finished vs. were lost to faults or straggler
///   deadlines, and how many transport retries the round incurred.
/// - `fedgta-trace/2`: dumps (formerly `fedgta-postmortem/1`) share the
///   schema: new `fault` / `note` events, a `meta` header with a dump's
///   `reason` / `round` / `fault_seed`, zero fixed fields left out, and
///   round spans carrying the `/rounds` keys.
pub const TRACE_SCHEMA: &str = "fedgta-trace/2";

/// Process-global observability level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum ObsLevel {
    /// Nothing is recorded. Hot paths pay one relaxed atomic load.
    Off = 0,
    /// Counters/gauges/histograms accumulate; spans stay closed.
    Metrics = 1,
    /// Metrics plus hierarchical spans streaming to the trace sink.
    Trace = 2,
}

static LEVEL: AtomicU8 = AtomicU8::new(ObsLevel::Off as u8);

/// Current observability level.
#[inline(always)]
pub fn level() -> ObsLevel {
    match LEVEL.load(Ordering::Relaxed) {
        0 => ObsLevel::Off,
        1 => ObsLevel::Metrics,
        _ => ObsLevel::Trace,
    }
}

/// Sets the process-global observability level.
pub fn set_level(l: ObsLevel) {
    LEVEL.store(l as u8, Ordering::Relaxed);
}

/// True when metrics (counters/gauges/histograms) are armed.
#[inline(always)]
pub fn metrics_on() -> bool {
    LEVEL.load(Ordering::Relaxed) >= ObsLevel::Metrics as u8
}

/// True when span tracing is armed.
#[inline(always)]
pub fn trace_on() -> bool {
    LEVEL.load(Ordering::Relaxed) >= ObsLevel::Trace as u8
}

/// Runs `f`, returning its result and the elapsed wall-clock nanoseconds.
///
/// When tracing is on, the block is additionally recorded as a span named
/// `name` — this is the drop-in replacement for hand-rolled
/// `Instant::now()` pairs in the bench binaries: callers keep their
/// printed timings *and* the trace sees the phase.
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
    let guard = span_named(name);
    let t0 = std::time::Instant::now();
    let r = f();
    let ns = t0.elapsed().as_nanos() as u64;
    drop(guard);
    (r, ns)
}

/// A monotonically accumulating nanosecond cell (thread-safe), used to
/// hand phase durations from instrumented library layers (e.g. the
/// client-parallel executor) back to the driver without threading return
/// values through every strategy.
#[derive(Debug, Default)]
pub struct TimeCell(std::sync::atomic::AtomicU64);

impl TimeCell {
    /// A zeroed cell.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `ns` nanoseconds.
    #[inline]
    pub fn add_ns(&self, ns: u64) {
        self.0.fetch_add(ns, Ordering::Relaxed);
    }

    /// Resets to zero, returning the previous value.
    pub fn take_ns(&self) -> u64 {
        self.0.swap(0, Ordering::Relaxed)
    }
}

/// Creates a span guard; accepts optional `key = value` fields.
///
/// ```
/// let _g = fedgta_obs::span!("round", round = 3u64);
/// let _g2 = fedgta_obs::span!("aggregate", strategy = "FedAvg");
/// ```
///
/// Values may be anything convertible into a [`JsonVal`]: unsigned
/// integers, floats, `&'static str` / `String`. With tracing off this
/// compiles to a disarmed guard and performs no allocation.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span_named($name)
    };
    ($name:expr, $($k:ident = $v:expr),+ $(,)?) => {
        $crate::span_named($name)$(.with_field(stringify!($k), $crate::JsonVal::from($v)))+
    };
}

/// The global-registry [`Counter`] named `$name`, resolved once per call
/// site: the handle is cached in a call-site `static`, so every later
/// evaluation is one lock-free load. Sites gate on [`metrics_on`]
/// themselves when even that load should be skipped.
///
/// ```
/// fedgta_obs::counter!("doc.example.calls").add(1);
/// ```
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::global().counter($name))
    }};
}

/// The global-registry [`Histogram`] named `$name`, cached per call site
/// exactly like [`counter!`].
///
/// ```
/// fedgta_obs::histogram!("doc.example.ns").observe(1_500);
/// ```
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::global().histogram($name))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_returns_value_and_duration() {
        let (v, ns) = timed("unit.timed", || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            41 + 1
        });
        assert_eq!(v, 42);
        assert!(ns >= 1_000_000, "measured only {ns}ns");
    }

    #[test]
    fn time_cell_accumulates_and_takes() {
        let c = TimeCell::new();
        c.add_ns(5);
        c.add_ns(7);
        assert_eq!(c.take_ns(), 12);
        assert_eq!(c.take_ns(), 0);
    }
}
