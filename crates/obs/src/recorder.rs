//! Flight recorder: an always-on, fixed-capacity ring buffer of recent
//! observability events with a hard memory bound.
//!
//! The JSONL trace sink ([`crate::sink`]) is post-hoc: it is only useful
//! once a run has ended and only when the operator remembered to pass
//! `--trace-out`. The flight recorder covers the opposite case — the run
//! that *fails*. It records the last `capacity` span-close / fault /
//! note events into a preallocated ring, and on quorum failure, round
//! skip, or panic the orchestrator serializes the ring into a postmortem
//! dump (see [`dump_string`]): a `fedgta-trace/2` file whose events are
//! ordinary [`TraceEvent`]s, read back by the same reader as a trace.
//!
//! ## Memory bound
//!
//! Every event is a fixed-size [`FlightEvent`] (`Copy`, `&'static str`
//! name, no heap payload), so an armed recorder owns exactly
//! `capacity * size_of::<FlightEvent>()` bytes — ~56 B/event, ≈224 KiB at
//! the default capacity of 4096 — allocated once at arm time and never
//! grown. This is the same tracked-budget discipline the out-of-core
//! graph store applies to tile memory: "always-on" is only safe because
//! the bound is structural, not behavioral.
//!
//! ## Determinism
//!
//! Postmortem dumps must be byte-identical for the same fault seed at any
//! thread count. Raw ring contents are not (span durations, cross-thread
//! interleaving), so [`dump_string`] canonicalizes: it leaves durations
//! out, serializes each event through [`TraceEvent::to_json`], and sorts
//! the lines. Event *sets* are
//! deterministic (span counts are structural, fault events are a pure
//! function of the seed), so the sorted dump is too — provided the run
//! fits the ring. When the ring wraps, `events_dropped` is nonzero and
//! eviction order may race; the dump records the drop count so a diff
//! catches it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::metrics::{MetricKind, Registry};
use crate::{TraceEvent, TRACE_SCHEMA};

/// Default ring capacity (events). ~224 KiB of preallocated memory.
pub const DEFAULT_CAPACITY: usize = 4096;

/// Sentinel for "no client" in [`FlightEvent::client`].
pub const NO_CLIENT: u64 = u64::MAX;

/// What kind of event a ring slot holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FlightKind {
    /// A span closed; `value` is its duration in ns (canonicalized away
    /// in dumps).
    Span,
    /// A fault-layer event (drop/corrupt/crash/...); `value` is the
    /// simulated-time ms at which it fired.
    Fault,
    /// A lifecycle annotation (quorum failure, round skip) or a
    /// deterministic per-round observation (byte tallies); `value` is
    /// name-dependent.
    Note,
}

/// One fixed-size ring slot. `Copy` + `&'static str` name keep the ring
/// allocation-free after arming.
#[derive(Clone, Copy, Debug)]
pub struct FlightEvent {
    /// Monotonic sequence number (process-global, never reused).
    pub seq: u64,
    pub kind: FlightKind,
    pub name: &'static str,
    /// Federated round the event belongs to, or 0 when not applicable.
    pub round: u64,
    /// Client id, or [`NO_CLIENT`].
    pub client: u64,
    /// Kind-dependent payload (duration ns / sim ms / note value).
    pub value: u64,
}

impl FlightEvent {
    /// The event in the dump vocabulary, wall-clock fields left out.
    fn canonical(&self) -> TraceEvent {
        let name = self.name.to_string();
        let client = (self.client != NO_CLIENT).then_some(self.client);
        match self.kind {
            FlightKind::Span => {
                let mut fields = BTreeMap::from([("round".to_string(), self.round.into())]);
                fields.extend(client.map(|c| ("client".to_string(), c.into())));
                TraceEvent::Span { name, id: 0, parent: 0, tid: 0, ts_ns: 0, dur_ns: 0, fields }
            }
            FlightKind::Fault => {
                TraceEvent::Fault { round: self.round, client, kind: name, sim_ms: self.value }
            }
            FlightKind::Note => TraceEvent::Note { name, round: self.round, value: self.value },
        }
    }
}

struct Ring {
    buf: Vec<FlightEvent>,
    /// Index of the oldest live event.
    head: usize,
    len: usize,
    next_seq: u64,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, mut ev: FlightEvent) {
        let cap = self.buf.capacity();
        if cap == 0 {
            return;
        }
        ev.seq = self.next_seq;
        self.next_seq += 1;
        if self.len < cap {
            self.buf.push(ev);
            self.len += 1;
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % cap;
            self.dropped += 1;
        }
    }

    fn snapshot(&self) -> Vec<FlightEvent> {
        let mut out = Vec::with_capacity(self.len);
        for i in 0..self.len {
            out.push(self.buf[(self.head + i) % self.buf.capacity().max(1)]);
        }
        out
    }
}

static ARMED: AtomicBool = AtomicBool::new(false);
static RING: Mutex<Option<Ring>> = Mutex::new(None);

/// Cheap armed check for hot-adjacent paths (span close). Relaxed: the
/// recorder is an observer, ordering with the ring mutex is enough.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Arm the recorder with an explicit capacity, allocating the ring up
/// front. Re-arming with the same capacity keeps existing events;
/// changing capacity resets the ring.
pub fn arm(capacity: usize) {
    let mut g = RING.lock().unwrap();
    let keep = matches!(&*g, Some(r) if r.buf.capacity() == capacity);
    if !keep {
        *g = Some(Ring {
            buf: Vec::with_capacity(capacity),
            head: 0,
            len: 0,
            next_seq: 0,
            dropped: 0,
        });
    }
    ARMED.store(true, Ordering::Relaxed);
}

/// Arm with [`DEFAULT_CAPACITY`].
pub fn arm_default() {
    arm(DEFAULT_CAPACITY);
}

/// Disarm and free the ring.
pub fn disarm() {
    ARMED.store(false, Ordering::Relaxed);
    *RING.lock().unwrap() = None;
}

/// Drop all recorded events but stay armed (test isolation).
pub fn reset() {
    let mut g = RING.lock().unwrap();
    if let Some(r) = g.as_mut() {
        r.buf.clear();
        r.head = 0;
        r.len = 0;
        r.next_seq = 0;
        r.dropped = 0;
    }
}

fn record(kind: FlightKind, name: &'static str, round: u64, client: u64, value: u64) {
    if !armed() {
        return;
    }
    if let Some(r) = RING.lock().unwrap().as_mut() {
        r.push(FlightEvent { seq: 0, kind, name, round, client, value });
    }
}

/// Record a span close. Called from `SpanGuard::drop`; `round`/`client`
/// are extracted from the span's recorded fields when present.
#[inline]
pub fn record_span_close(name: &'static str, round: u64, client: u64, dur_ns: u64) {
    record(FlightKind::Span, name, round, client, dur_ns);
}

/// Record a fault-layer event.
#[inline]
pub fn record_fault(name: &'static str, round: u64, client: u64, sim_ms: u64) {
    record(FlightKind::Fault, name, round, client, sim_ms);
}

/// Record a lifecycle note or a deterministic per-round observation.
#[inline]
pub fn record_note(name: &'static str, round: u64, value: u64) {
    record(FlightKind::Note, name, round, NO_CLIENT, value);
}

/// Events currently held, oldest first.
pub fn snapshot() -> Vec<FlightEvent> {
    RING.lock().unwrap().as_ref().map(|r| r.snapshot()).unwrap_or_default()
}

/// Events evicted because the ring wrapped.
pub fn events_dropped() -> u64 {
    RING.lock().unwrap().as_ref().map(|r| r.dropped).unwrap_or(0)
}

/// Total events ever recorded (including evicted ones).
pub fn events_recorded() -> u64 {
    RING.lock().unwrap().as_ref().map(|r| r.next_seq).unwrap_or(0)
}

/// Armed ring capacity (0 when disarmed).
pub fn capacity() -> usize {
    RING.lock().unwrap().as_ref().map(|r| r.buf.capacity()).unwrap_or(0)
}

/// Build a canonical postmortem dump, a [`TRACE_SCHEMA`] file: a `meta`
/// header with `reason` / `round` / `fault_seed`; the ring's events,
/// line-sorted for thread-count independence (its faults left out when
/// the caller passes its complete `fault_log`, written next, in order);
/// the registry — counters by value, histograms by sample count, gauge
/// *values* left out (the memory-peak gauges are thread-count-dependent;
/// `/metrics` and `report` still show them); notes `recorder.events` and
/// `recorder.evicted` (lost to wrapping); and the `end` marker.
pub fn dump_string(
    reason: &str,
    round: u64,
    fault_seed: u64,
    fault_log: Option<&[TraceEvent]>,
    registry: &Registry,
) -> String {
    let reason = Some(reason.to_string());
    let mut lines =
        vec![TraceEvent::Meta { schema: TRACE_SCHEMA.into(), reason, round, fault_seed }.to_json()];
    let events = snapshot();
    let mut ring: Vec<String> = events
        .iter()
        .filter(|e| fault_log.is_none() || e.kind != FlightKind::Fault)
        .map(|e| e.canonical().to_json())
        .collect();
    ring.sort_unstable();
    lines.extend(ring);
    lines.extend(fault_log.unwrap_or_default().iter().map(TraceEvent::to_json));
    let metrics = registry.snapshot().into_iter().map(|s| TraceEvent::Metric {
        value: if s.kind == MetricKind::Counter { s.value } else { 0 },
        count: s.count,
        kind: s.kind.as_str().to_string(),
        name: s.name,
        p50: 0,
        p95: 0,
        max: 0,
    });
    let counts = [("recorder.events", events.len() as u64), ("recorder.evicted", events_dropped())]
        .map(|(name, value)| TraceEvent::Note { name: name.to_string(), round: 0, value });
    lines.extend(metrics.chain(counts).chain([TraceEvent::End]).map(|e| e.to_json()));
    lines.join("\n") + "\n"
}

/// Install a panic hook that writes a postmortem dump to `path` before
/// delegating to the previous hook. Idempotent per path is not enforced;
/// callers install it once at startup.
pub fn install_panic_dump(path: std::path::PathBuf) {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| info.payload().downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".to_string());
        record_note("panic", 0, msg.len() as u64);
        let dump = dump_string("panic", 0, 0, None, crate::global());
        let _ = std::fs::write(&path, dump);
        prev(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_wraps_and_counts_drops() {
        let _g = crate::TEST_GLOBAL_LOCK.lock().unwrap();
        disarm();
        arm(4);
        reset();
        for i in 0..10u64 {
            record_note("tick", i, i);
        }
        let evs = snapshot();
        assert_eq!(evs.len(), 4);
        assert_eq!(events_dropped(), 6);
        assert_eq!(events_recorded(), 10);
        // Oldest-first, last four ticks survive.
        assert_eq!(evs[0].round, 6);
        assert_eq!(evs[3].round, 9);
        assert!(evs.windows(2).all(|w| w[0].seq + 1 == w[1].seq));
        disarm();
    }

    #[test]
    fn disarmed_recorder_records_nothing() {
        let _g = crate::TEST_GLOBAL_LOCK.lock().unwrap();
        disarm();
        record_note("ignored", 1, 1);
        assert_eq!(snapshot().len(), 0);
        assert_eq!(capacity(), 0);
    }

    #[test]
    fn dump_is_canonical_and_order_independent() {
        let _g = crate::TEST_GLOBAL_LOCK.lock().unwrap();
        disarm();
        let reg = Registry::new();
        crate::set_level(crate::ObsLevel::Metrics);
        reg.counter("c").add(7);
        reg.histogram("h").observe(3);
        reg.gauge("g").set(9);
        crate::set_level(crate::ObsLevel::Off);

        arm(16);
        reset();
        record_span_close("train", 2, NO_CLIENT, 12345);
        record_fault("up_drop", 2, 1, 120);
        record_note("round.bytes_up", 2, 4096);
        let a = dump_string("quorum-failure", 2, 42, None, &reg);

        // Same events in a different arrival order, different durations.
        reset();
        record_note("round.bytes_up", 2, 4096);
        record_span_close("train", 2, NO_CLIENT, 99999);
        record_fault("up_drop", 2, 1, 120);
        let b = dump_string("quorum-failure", 2, 42, None, &reg);
        assert_eq!(a, b, "canonical dump must not depend on arrival order or wall-clock");

        let header = "{\"ev\":\"meta\",\"schema\":\"fedgta-trace/2\",\"reason\":\"quorum-failure\",\"round\":2,\"fault_seed\":42}";
        assert!(a.starts_with(header), "{a}");
        assert!(a.contains(
            "{\"ev\":\"fault\",\"round\":2,\"client\":1,\"kind\":\"up_drop\",\"sim_ms\":120}"
        ));
        assert!(a.contains("{\"ev\":\"span\",\"name\":\"train\",\"round\":2}"));
        assert!(a.contains("{\"ev\":\"metric\",\"name\":\"c\",\"kind\":\"counter\",\"value\":7}"));
        assert!(
            a.contains("{\"ev\":\"metric\",\"name\":\"g\",\"kind\":\"gauge\"}"),
            "gauge value left out"
        );
        assert!(a.contains("{\"ev\":\"metric\",\"name\":\"h\",\"kind\":\"histogram\",\"count\":1}"));
        assert!(a.contains("{\"ev\":\"note\",\"name\":\"recorder.events\",\"value\":3}"));
        assert!(a.ends_with("{\"ev\":\"end\"}\n"));
        // A caller's fault log stands in for the ring's faults.
        let log =
            [TraceEvent::Fault { round: 2, client: None, kind: "resample".into(), sim_ms: 5 }];
        let c = dump_string("quorum-failure", 2, 42, Some(&log), &reg);
        assert!(!c.contains("up_drop") && c.contains("\"kind\":\"resample\""), "{c}");
        // Every dump line is an event of the one vocabulary.
        crate::parse_trace(&a).expect("dump reads as a fedgta-trace/2 file");
        disarm();
    }

    #[test]
    fn dump_embeds_fault_log_between_flights_and_metrics() {
        let _g = crate::TEST_GLOBAL_LOCK.lock().unwrap();
        disarm();
        let reg = Registry::new();
        crate::set_level(crate::ObsLevel::Metrics);
        reg.counter("c").add(1);
        crate::set_level(crate::ObsLevel::Off);

        arm(16);
        reset();
        record_span_close("train", 1, 0, 7);
        record_fault("crash", 1, 0, 0);
        let log = [
            TraceEvent::Fault { round: 1, client: Some(0), kind: "crash".into(), sim_ms: 0 },
            TraceEvent::Fault { round: 1, client: None, kind: "resample".into(), sim_ms: 100 },
        ];
        let dump = dump_string("quorum-failure", 1, 7, Some(&log), &reg);
        let lines: Vec<&str> = dump.lines().collect();
        assert!(lines[0].contains("\"ev\":\"meta\"") && lines[0].contains("\"fault_seed\":7"));
        let pos = |needle: &str| lines.iter().position(|l| l.contains(needle)).expect(needle);
        let span = pos("\"ev\":\"span\"");
        let faults: Vec<usize> =
            (0..lines.len()).filter(|&i| lines[i].contains("\"ev\":\"fault\"")).collect();
        // The log is written whole and in order; the ring's own fault is not repeated.
        assert_eq!(faults.len(), 2, "{dump}");
        assert!(lines[faults[0]].contains("\"kind\":\"crash\""));
        assert!(
            lines[faults[1]].contains("\"kind\":\"resample\"")
                && !lines[faults[1]].contains("client")
        );
        assert!(span < faults[0] && faults[1] < pos("\"ev\":\"metric\""), "{dump}");
        assert_eq!(*lines.last().unwrap(), "{\"ev\":\"end\"}");
        crate::parse_trace(&dump).expect("dump reads as a fedgta-trace/2 file");
        disarm();
    }
}
