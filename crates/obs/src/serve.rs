//! Live telemetry endpoint: a zero-dependency HTTP/1.0-ish server on
//! `std::net::TcpListener` exposing the global registry while a run is
//! in flight.
//!
//! Routes:
//! - `GET /metrics`  — Prometheus text exposition (version 0.0.4) of the
//!   global registry, including cumulative log2 histogram buckets.
//! - `GET /healthz`  — JSON liveness: uptime, flight-recorder state.
//! - `GET /rounds`   — JSON array of per-round summaries published by
//!   the orchestrator via [`publish_round`]: each element carries exactly
//!   the keys of that round's `round` span in a trace.
//!
//! The server is read-only and observation-only: it renders snapshots of
//! atomics and never feeds anything back into the simulation, so arming
//! it cannot change numeric results. Connections are handled serially on
//! one background thread — this is a scrape endpoint, not a web server.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use crate::{json_object, JsonVal};

/// Per-round JSON summaries for `/rounds`, one small object per round
/// since the server started: it grows with the run, unbounded.
static ROUNDS: Mutex<Vec<String>> = Mutex::new(Vec::new());
static ROUNDS_ARMED: AtomicBool = AtomicBool::new(false);

/// True once a server has been started; lets the orchestrator skip
/// building round-summary JSON when nobody is listening.
#[inline]
pub fn rounds_armed() -> bool {
    ROUNDS_ARMED.load(Ordering::Relaxed)
}

/// Append one round summary: the round's field list, as one object.
pub fn publish_round(fields: &[(&str, JsonVal)]) {
    ROUNDS.lock().unwrap().push(json_object(fields));
}

fn rounds_json() -> String {
    format!("[{}]", ROUNDS.lock().unwrap().join(","))
}

/// Handle to a running metrics server. Dropping it stops the server.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// The actually-bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signal the accept loop to exit and join it.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        ROUNDS_ARMED.store(false, Ordering::Relaxed);
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.shutdown();
        }
    }
}

/// Bind `addr` (e.g. `127.0.0.1:9464`, port 0 for ephemeral) and serve
/// until the returned handle is stopped or dropped. `/rounds` starts
/// empty: it shows this server's run, never an earlier one's.
pub fn serve(addr: &str) -> std::io::Result<MetricsServer> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    ROUNDS.lock().unwrap().clear();
    ROUNDS_ARMED.store(true, Ordering::Relaxed);
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let handle = std::thread::Builder::new().name("fedgta-metrics".into()).spawn(move || {
        for conn in listener.incoming() {
            if stop2.load(Ordering::SeqCst) {
                break;
            }
            if let Ok(stream) = conn {
                let _ = handle_conn(stream);
            }
        }
    })?;
    Ok(MetricsServer { addr: bound, stop, handle: Some(handle) })
}

fn handle_conn(mut stream: TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(std::time::Duration::from_millis(500)))?;
    // Read until end of headers or a small cap; scrapers send tiny GETs.
    let mut buf = [0u8; 4096];
    let mut used = 0;
    loop {
        if used == buf.len() {
            break;
        }
        match stream.read(&mut buf[used..]) {
            Ok(0) => break,
            Ok(n) => {
                used += n;
                if buf[..used].windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let req = String::from_utf8_lossy(&buf[..used]);
    let mut parts = req.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, ctype, body) = if method != "GET" {
        ("405 Method Not Allowed", "text/plain; charset=utf-8", "only GET is served\n".to_string())
    } else {
        match path {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                crate::global().render_prometheus(),
            ),
            "/healthz" => ("200 OK", "application/json", healthz_json()),
            "/rounds" => ("200 OK", "application/json", rounds_json()),
            _ => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "routes: /metrics /healthz /rounds\n".to_string(),
            ),
        }
    };
    let resp = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(resp.as_bytes())?;
    stream.flush()
}

fn healthz_json() -> String {
    use crate::recorder;
    json_object(&[
        ("status", "ok".into()),
        ("uptime_ns", crate::now_ns().into()),
        ("obs_level", (crate::level() as u32).into()),
        ("recorder_armed", (recorder::armed() as u32).into()),
        ("recorder_capacity", recorder::capacity().into()),
        ("events_recorded", recorder::events_recorded().into()),
        ("events_dropped", recorder::events_dropped().into()),
        ("rounds_published", ROUNDS.lock().unwrap().len().into()),
    ])
}

/// Minimal HTTP GET against a served endpoint; test/CI helper so the
/// workspace needs no external HTTP client. Returns (status_line, body).
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<(String, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(std::time::Duration::from_secs(5)))?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: fedgta\r\nConnection: close\r\n\r\n")?;
    stream.flush()?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw).into_owned();
    let status = text.lines().next().unwrap_or("").to_string();
    let body = match text.find("\r\n\r\n") {
        Some(i) => text[i + 4..].to_string(),
        None => String::new(),
    };
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_all_routes_then_stops() {
        let server = serve("127.0.0.1:0").expect("bind ephemeral");
        let addr = server.addr();

        let (status, body) = http_get(addr, "/healthz").unwrap();
        assert!(status.contains("200"), "healthz status: {status}");
        assert!(body.contains("\"status\":\"ok\""));
        crate::parse_flat_object(body.trim()).expect("healthz is flat JSON");

        publish_round(&[("round", 1u64.into()), ("mean_loss", f64::NAN.into())]);
        let (_, rounds) = http_get(addr, "/rounds").unwrap();
        assert_eq!(rounds, "[{\"round\":1,\"mean_loss\":null}]");

        let (status, _) = http_get(addr, "/metrics").unwrap();
        assert!(status.contains("200"));

        let (status, _) = http_get(addr, "/nope").unwrap();
        assert!(status.contains("404"));

        server.stop();
        // Port is released: rebinding the same addr succeeds.
        let again = TcpListener::bind(addr);
        assert!(again.is_ok(), "listener released its port");
        drop(again);

        // A new server starts with an empty `/rounds`, not the last run's.
        let server = serve("127.0.0.1:0").expect("bind ephemeral");
        assert_eq!(http_get(server.addr(), "/rounds").unwrap().1, "[]");
        server.stop();
    }
}
