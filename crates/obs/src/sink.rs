//! The trace sink: a process-global JSONL event stream.
//!
//! One mutex-guarded writer receives every span-close and metric-flush
//! event. Contention is negligible at simulator scale (spans close at
//! round/client granularity, not per-kernel-call), and a single writer
//! keeps the format trivially valid: one JSON object per line, first line
//! the schema header.
//!
//! The workspace has no serialization dependency, so events serialize
//! themselves with a small hand-rolled JSON writer; [`json_escape`] is
//! the one string escaper, shared with `fedgta_bench::format`.

use crate::metrics::{MetricSnapshot, Registry};
use crate::span::FieldVal;
use crate::TRACE_SCHEMA;
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

fn write_line(line: &str) {
    let mut guard = SINK.lock().expect("trace sink poisoned");
    if let Some(w) = guard.as_mut() {
        // Trace IO must never abort a simulation: drop events on error.
        let _ = writeln!(w, "{line}");
    }
}

/// True when a trace sink is installed.
#[inline]
pub fn trace_installed() -> bool {
    INSTALLED.load(Ordering::Relaxed)
}

fn install(mut w: SharedWriter) -> std::io::Result<()> {
    writeln!(
        w,
        "{{\"ev\":\"meta\",\"schema\":\"{}\",\"threads_hint\":{}}}",
        TRACE_SCHEMA,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    )?;
    *SINK.lock().expect("trace sink poisoned") = Some(w);
    INSTALLED.store(true, Ordering::Relaxed);
    Ok(())
}

/// Installs a JSONL sink writing to `path` (truncates) and writes the
/// schema header line.
pub fn init_jsonl(path: &std::path::Path) -> std::io::Result<()> {
    let f = std::fs::File::create(path)?;
    install(Box::new(std::io::BufWriter::new(f)))
}

/// Installs an arbitrary writer as the sink (tests use an in-memory
/// buffer; see [`MemorySink`]).
pub fn init_writer(w: Box<dyn Write + Send>) -> std::io::Result<()> {
    install(w)
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

/// Emits one span-close event (called from [`crate::span::SpanGuard`]'s
/// drop; no-op without a sink).
pub(crate) fn write_span(
    name: &str,
    id: u64,
    parent: u64,
    tid: u64,
    start_ns: u64,
    dur_ns: u64,
    fields: &[(&'static str, FieldVal)],
) {
    if !trace_installed() {
        return;
    }
    let mut line = String::with_capacity(128);
    line.push_str(&format!(
        "{{\"ev\":\"span\",\"name\":\"{}\",\"id\":{id},\"parent\":{parent},\"tid\":{tid},\
         \"ts_ns\":{start_ns},\"dur_ns\":{dur_ns}",
        json_escape(name)
    ));
    for (k, v) in fields {
        match v {
            FieldVal::U64(u) => line.push_str(&format!(",\"{}\":{u}", json_escape(k))),
            FieldVal::F64(f) if f.is_finite() => {
                line.push_str(&format!(",\"{}\":{f}", json_escape(k)))
            }
            FieldVal::F64(_) => line.push_str(&format!(",\"{}\":null", json_escape(k))),
            FieldVal::Text(s) => {
                line.push_str(&format!(",\"{}\":\"{}\"", json_escape(k), json_escape(s)))
            }
        }
    }
    line.push('}');
    write_line(&line);
}

/// Writes one `metric` event per entry of a registry snapshot (the
/// "metric flush" events of the schema).
pub fn flush_metrics_from(registry: &Registry) {
    if !trace_installed() {
        return;
    }
    for s in registry.snapshot() {
        write_metric(&s);
    }
}

fn write_metric(s: &MetricSnapshot) {
    write_line(&format!(
        "{{\"ev\":\"metric\",\"name\":\"{}\",\"kind\":\"{}\",\"value\":{},\"count\":{},\
         \"p50\":{},\"p95\":{},\"max\":{}}}",
        json_escape(&s.name),
        s.kind.as_str(),
        s.value,
        s.count,
        s.p50,
        s.p95,
        s.max
    ));
}

/// Flushes the global registry's metrics into the trace, writes the end
/// marker, flushes and uninstalls the sink. Idempotent.
pub fn shutdown() {
    if !trace_installed() {
        return;
    }
    flush_metrics_from(crate::metrics::global());
    write_line("{\"ev\":\"end\"}");
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
