//! The trace sink: a process-global JSONL event stream.
//!
//! One mutex-guarded writer receives every span-close and metric-flush
//! event. Contention is negligible at simulator scale (spans close at
//! round/client granularity, not per-kernel-call), and a single writer
//! keeps the format trivially valid: one JSON object per line, first line
//! the schema header.
//!
//! The workspace has no serialization dependency, so every line is a
//! [`TraceEvent`] through [`TraceEvent::to_json`]; [`json_escape`] is the
//! one string escaper, shared with `fedgta_bench::format`.

use crate::{TraceEvent, TRACE_SCHEMA};
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

type SharedWriter = Box<dyn Write + Send>;

static SINK: Mutex<Option<SharedWriter>> = Mutex::new(None);
/// Cheap installed-check so disarmed spans never touch the mutex.
static INSTALLED: AtomicBool = AtomicBool::new(false);

/// Escapes a string for inclusion in a JSON string literal (quotes and
/// backslashes escaped, control characters as `\u00XX`; surrounding
/// quotes not included).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// True when a trace sink is installed.
#[inline]
pub fn trace_installed() -> bool {
    INSTALLED.load(Ordering::Relaxed)
}

/// Installs a JSONL sink writing to `path` (truncates) and writes the
/// schema header line.
pub fn init_jsonl(path: &std::path::Path) -> std::io::Result<()> {
    let f = std::fs::File::create(path)?;
    init_writer(Box::new(std::io::BufWriter::new(f)))
}

/// Installs an arbitrary writer as the sink and writes the schema header
/// line (tests use an in-memory buffer; see [`MemorySink`]).
pub fn init_writer(mut w: SharedWriter) -> std::io::Result<()> {
    let header =
        TraceEvent::Meta { schema: TRACE_SCHEMA.into(), reason: None, round: 0, fault_seed: 0 };
    writeln!(w, "{}", header.to_json())?;
    *SINK.lock().expect("trace sink poisoned") = Some(w);
    INSTALLED.store(true, Ordering::Relaxed);
    Ok(())
}

/// An `Arc<Mutex<Vec<u8>>>`-backed writer for in-process round-trip
/// tests: install a clone via [`init_writer`], read the bytes back after
/// [`shutdown`].
#[derive(Debug, Clone, Default)]
pub struct MemorySink(pub Arc<Mutex<Vec<u8>>>);

impl MemorySink {
    /// A fresh empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bytes written so far, as UTF-8.
    pub fn contents(&self) -> String {
        String::from_utf8_lossy(&self.0.lock().expect("memory sink poisoned")).into_owned()
    }
}

impl Write for MemorySink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("memory sink poisoned").extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Writes one event as a JSONL line (no-op without a sink). Trace IO
/// must never abort a simulation: events are dropped on error.
pub fn write_event(ev: &TraceEvent) {
    if trace_installed() {
        if let Some(w) = SINK.lock().expect("trace sink poisoned").as_mut() {
            let _ = writeln!(w, "{}", ev.to_json());
        }
    }
}

/// Writes one `metric` event per entry of the global registry, the end
/// marker, then flushes and uninstalls the sink. Idempotent.
pub fn shutdown() {
    if !trace_installed() {
        return;
    }
    for s in crate::metrics::global().snapshot() {
        write_event(&TraceEvent::Metric {
            kind: s.kind.as_str().to_string(),
            name: s.name,
            value: s.value,
            count: s.count,
            p50: s.p50,
            p95: s.p95,
            max: s.max,
        });
    }
    write_event(&TraceEvent::End);
    let mut guard = SINK.lock().expect("trace sink poisoned");
    if let Some(w) = guard.as_mut() {
        let _ = w.flush();
    }
    *guard = None;
    INSTALLED.store(false, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny\tz"), "x\\ny\\tz");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn memory_sink_accumulates() {
        let m = MemorySink::new();
        let mut w = m.clone();
        w.write_all(b"hello ").unwrap();
        w.write_all(b"world").unwrap();
        assert_eq!(m.contents(), "hello world");
    }
}
