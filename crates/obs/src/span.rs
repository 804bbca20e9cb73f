//! Hierarchical RAII spans with monotonic-nanosecond timing.
//!
//! Each thread keeps its own parent stack (a `thread_local!` vec), so
//! spans opened inside `par_map_indexed` workers nest naturally *within a
//! thread*; cross-thread parenting (the round's `train` span owning
//! per-client spans running on workers) is explicit via [`span_under`].
//! Span ids come from one process-global atomic, so ids are unique across
//! threads; the id *values* depend on scheduling and are never used for
//! anything but tree reconstruction.
//!
//! A disarmed guard (tracing off at creation) is a zero-field struct
//! whose drop does nothing — no allocation, no sink traffic.

use crate::sink;
use crate::{trace_on, JsonVal, TraceEvent};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Stack of open span ids on this thread (innermost last).
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// Small dense id for this thread (std's ThreadId is opaque).
    static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
}

/// Nanoseconds since an arbitrary process-wide origin (monotonic).
pub fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// This thread's dense id (1-based; assigned on first use).
pub fn thread_ord() -> u64 {
    THREAD_ID.with(|t| *t)
}

/// The innermost open span id on this thread (0 = none).
pub fn current_span_id() -> u64 {
    SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
}

/// Process-run trace correlation id, stamped into wire envelopes so a
/// receiver can tell frames of this run's trace apart from stale frames
/// of another run's. Stable for the process lifetime; no meaning beyond
/// inequality across processes.
pub fn run_trace_id() -> u64 {
    static RUN_ID: OnceLock<u64> = OnceLock::new();
    *RUN_ID.get_or_init(|| {
        // Mix the pid so concurrent runs on one host differ; the odd
        // multiplier spreads small pids across the id space.
        (std::process::id() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1
    })
}

/// An RAII span: created open, emits one trace event when dropped.
#[derive(Debug)]
pub struct SpanGuard {
    /// 0 when disarmed.
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    t0: Option<Instant>,
    fields: Vec<(&'static str, JsonVal)>,
}

impl SpanGuard {
    /// A guard that records nothing.
    fn disarmed() -> Self {
        Self { id: 0, parent: 0, name: "", start_ns: 0, t0: None, fields: Vec::new() }
    }

    fn armed(name: &'static str, parent: u64) -> Self {
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        SPAN_STACK.with(|s| s.borrow_mut().push(id));
        Self { id, parent, name, start_ns: now_ns(), t0: Some(Instant::now()), fields: Vec::new() }
    }

    /// This span's id (0 when tracing was off at creation). Pass to
    /// [`span_under`] to parent work running on other threads.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Builder-style field attachment (no-op when disarmed).
    #[must_use]
    pub fn with_field(mut self, key: &'static str, val: JsonVal) -> Self {
        self.record(key, val);
        self
    }

    /// Attaches or overwrites a field after creation — e.g. byte counts
    /// only known at the end of the spanned phase.
    pub fn record(&mut self, key: &'static str, val: JsonVal) {
        if self.id == 0 {
            return;
        }
        if let Some(slot) = self.fields.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = val;
        } else {
            self.fields.push((key, val));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        // Pop this span off the thread's stack. Guards are dropped in
        // reverse creation order under normal control flow; if a caller
        // leaks or reorders guards we degrade gracefully by removing the
        // matching id wherever it sits.
        SPAN_STACK.with(|s| {
            let mut st = s.borrow_mut();
            match st.last() {
                Some(&top) if top == self.id => {
                    st.pop();
                }
                _ => st.retain(|&x| x != self.id),
            }
        });
        let dur_ns = self.t0.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0);
        if crate::recorder::armed() {
            // The flight recorder keys events by (round, client) when the
            // span carried them as numeric fields.
            let field =
                |key| self.fields.iter().find(|(k, _)| *k == key).and_then(|(_, v)| v.as_u64());
            let round = field("round").unwrap_or(0);
            let client = field("client").unwrap_or(crate::recorder::NO_CLIENT);
            crate::recorder::record_span_close(self.name, round, client, dur_ns);
        }
        if sink::trace_installed() {
            sink::write_event(&TraceEvent::Span {
                name: self.name.to_string(),
                id: self.id,
                parent: self.parent,
                tid: thread_ord(),
                ts_ns: self.start_ns,
                dur_ns,
                fields: self.fields.drain(..).map(|(k, v)| (k.to_string(), v)).collect(),
            });
        }
    }
}

/// True when span guards should arm: either the trace sink wants span
/// events, or the flight recorder is capturing span closes. Spans are
/// round/client-granularity (never per-kernel-call), so the recorder
/// arming them costs one ring push per phase, not per op.
#[inline]
fn spans_armed() -> bool {
    (trace_on() && sink::trace_installed()) || crate::recorder::armed()
}

/// Opens a span under the current thread's innermost open span.
///
/// Returns a disarmed guard when neither the trace sink nor the flight
/// recorder is armed.
pub fn span_named(name: &'static str) -> SpanGuard {
    if !spans_armed() {
        return SpanGuard::disarmed();
    }
    SpanGuard::armed(name, current_span_id())
}

/// Opens a span under an explicit parent id — the cross-thread variant
/// for worker closures (`par_map_indexed`) whose logical parent lives on
/// the driver thread. The span still joins this thread's local stack so
/// further nested spans chain off it.
pub fn span_under(name: &'static str, parent: u64) -> SpanGuard {
    if !spans_armed() {
        return SpanGuard::disarmed();
    }
    SpanGuard::armed(name, parent)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_guard_is_free_and_stackless() {
        // Tracing is off by default in unit tests; hold the global test
        // lock so a concurrent recorder test can't arm spans under us.
        let _g = crate::TEST_GLOBAL_LOCK.lock().unwrap();
        crate::recorder::disarm();
        let g = span_named("noop");
        assert_eq!(g.id(), 0);
        assert_eq!(current_span_id(), 0);
        drop(g);
        assert_eq!(current_span_id(), 0);
    }

    #[test]
    fn thread_ords_are_distinct() {
        let here = thread_ord();
        let there = std::thread::spawn(thread_ord).join().unwrap();
        assert_ne!(here, there);
        assert_eq!(here, thread_ord(), "stable within a thread");
    }

    #[test]
    fn now_ns_is_monotone() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
