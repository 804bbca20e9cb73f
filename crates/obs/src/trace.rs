//! The one event vocabulary, [`TraceEvent`] — written by the trace sink,
//! the flight recorder's dumps and `/rounds` through one writer, read
//! back by one lossy reader ([`parse_events`]) — and `fedgta-cli report`:
//! the span tree rebuilt from `id`/`parent` links and aggregated into
//! per-round, per-client, per-strategy and per-span-name tables with exact
//! p50/p95/max (traces are round-granular, so the full duration lists are
//! kept), or a dump rendered as a timeline.

use crate::sink::json_escape;
use crate::TRACE_SCHEMA;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One flat JSON value — a span field as recorded and as read back.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonVal {
    /// Any number (integers round-trip exactly below 2^53; non-finite
    /// values are written as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// `null`, `true`, `false` (booleans map to 1/0).
    Null,
}

macro_rules! num_from {
    ($($t:ty),*) => {$(
        impl From<$t> for JsonVal {
            fn from(v: $t) -> Self {
                Self::Num(v as f64)
            }
        }
    )*};
}
num_from!(u64, usize, u32, f64);

impl From<&str> for JsonVal {
    fn from(v: &str) -> Self {
        Self::Str(v.to_string())
    }
}
impl From<String> for JsonVal {
    fn from(v: String) -> Self {
        Self::Str(v)
    }
}

impl JsonVal {
    /// The value as u64, if numeric.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonVal::Num(n) if *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as f64, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonVal::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as &str, if textual.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonVal::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// One event of a trace or a postmortem dump — one JSON line each.
///
/// Numeric fields other than a span's free-form `fields` are written
/// only when non-zero and read back as 0 when missing, so a dump's
/// spans (which drop the wall-clock `id` / `parent` / `tid` / `ts_ns` /
/// `dur_ns`) are ordinary span events.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// The schema header (first line).
    Meta {
        /// Schema identifier (must equal [`TRACE_SCHEMA`]).
        schema: String,
        /// Why a postmortem dump was written; `None` in a trace.
        reason: Option<String>,
        /// The round a dump was written in.
        round: u64,
        /// The fault seed of the dumped run.
        fault_seed: u64,
    },
    /// A closed span.
    Span {
        /// Span name (`round`, `train`, `client_train`, …).
        name: String,
        /// Unique span id.
        id: u64,
        /// Parent span id (0 = root).
        parent: u64,
        /// Dense thread ordinal the span closed on.
        tid: u64,
        /// Start, nanoseconds since process origin.
        ts_ns: u64,
        /// Duration in nanoseconds.
        dur_ns: u64,
        /// Remaining fields (`round`, `client`, `strategy`, byte counts…).
        fields: BTreeMap<String, JsonVal>,
    },
    /// One metric at flush time.
    Metric {
        /// Metric name.
        name: String,
        /// `counter` / `gauge` / `histogram`.
        kind: String,
        /// Counter/gauge value; histogram sum.
        value: u64,
        /// Histogram count.
        count: u64,
        /// Histogram p50 (bucket bound).
        p50: u64,
        /// Histogram p95 (bucket bound).
        p95: u64,
        /// Histogram exact max.
        max: u64,
    },
    /// A fault-layer event (drop, corrupt, crash, resample, …).
    Fault {
        /// Round it fired in.
        round: u64,
        /// Affected client; `None` for round-level events.
        client: Option<u64>,
        /// What happened (`crash`, `up-drop`, …).
        kind: String,
        /// Simulated milliseconds from round start.
        sim_ms: u64,
    },
    /// A lifecycle annotation or per-round observation (`round_skip`,
    /// `quorum_fail`, `round.completed`, …).
    Note {
        /// Note name.
        name: String,
        /// Round it belongs to.
        round: u64,
        /// Name-dependent value.
        value: u64,
    },
    /// End-of-trace marker.
    End,
}

impl TraceEvent {
    /// The event as one JSON line (no newline) — every obs output goes
    /// through here and [`json_object`].
    pub fn to_json(&self) -> String {
        let text = |k, v: &str| Some((k, JsonVal::from(v)));
        let num = |k, v: &u64| (*v != 0).then(|| (k, JsonVal::from(*v)));
        let pairs: Vec<Option<(&str, JsonVal)>> = match self {
            Self::Meta { schema, reason, round, fault_seed } => vec![
                text("ev", "meta"),
                text("schema", schema),
                reason.as_deref().and_then(|r| text("reason", r)),
                num("round", round),
                num("fault_seed", fault_seed),
            ],
            Self::Span { name, id, parent, tid, ts_ns, dur_ns, fields } => {
                let mut pairs = vec![text("ev", "span"), text("name", name), num("id", id)];
                pairs.extend([num("parent", parent), num("tid", tid), num("ts_ns", ts_ns)]);
                pairs.push(num("dur_ns", dur_ns));
                pairs.extend(fields.iter().map(|(k, v)| Some((k.as_str(), v.clone()))));
                pairs
            }
            Self::Metric { name, kind, value, count, p50, p95, max } => {
                let mut pairs = vec![text("ev", "metric"), text("name", name), text("kind", kind)];
                pairs.extend([num("value", value), num("count", count), num("p50", p50)]);
                pairs.extend([num("p95", p95), num("max", max)]);
                pairs
            }
            Self::Fault { round, client, kind, sim_ms } => vec![
                text("ev", "fault"),
                num("round", round),
                client.map(|c| ("client", c.into())),
                text("kind", kind),
                num("sim_ms", sim_ms),
            ],
            Self::Note { name, round, value } => {
                vec![text("ev", "note"), text("name", name), num("round", round), num("value", value)]
            }
            Self::End => vec![text("ev", "end")],
        };
        json_object(&pairs.into_iter().flatten().collect::<Vec<_>>())
    }
}

/// The one JSON writer: a flat object from `(key, value)` pairs, strings
/// through [`json_escape`], non-finite numbers as `null` (JSON has
/// neither NaN nor Infinity). A `/rounds` element is exactly a `round`
/// span's fields through here.
pub fn json_object(pairs: &[(&str, JsonVal)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in pairs.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = match v {
            JsonVal::Str(s) => write!(out, "{sep}\"{}\":\"{}\"", json_escape(k), json_escape(s)),
            JsonVal::Num(n) if n.is_finite() => write!(out, "{sep}\"{}\":{n}", json_escape(k)),
            _ => write!(out, "{sep}\"{}\":null", json_escape(k)),
        };
    }
    out.push('}');
    out
}

// --- minimal flat-JSON parser ---------------------------------------------

struct Cursor<'a> {
    s: &'a str,
    b: &'a [u8],
    i: usize,
}

impl<'a> Cursor<'a> {
    fn skip_ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        self.skip_ws();
        if self.i < self.b.len() && self.b[self.i] == c {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {} in {:?}", c as char, self.i, self.s))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.b.get(self.i).copied()
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        while self.i < self.b.len() {
            let c = self.b[self.i];
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *self.b.get(self.i).ok_or("dangling escape")?;
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4).ok_or("short \\u escape")?;
                            self.i += 4;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    }
                }
                c if c.is_ascii() => out.push(c as char),
                _ => {
                    // The input is a `&str`, so a multi-byte character is
                    // whole: copy it.
                    let ch = self.s[self.i - 1..].chars().next().unwrap_or('\u{fffd}');
                    out.push(ch);
                    self.i += ch.len_utf8() - 1;
                }
            }
        }
        Err("unterminated string".into())
    }

    fn value(&mut self) -> Result<JsonVal, String> {
        match self.peek() {
            Some(b'"') => Ok(JsonVal::Str(self.string()?)),
            Some(b'n' | b't' | b'f') => {
                let literals = [("null", JsonVal::Null), ("true", 1.0.into()), ("false", 0.0.into())];
                let (lit, v) = literals
                    .into_iter()
                    .find(|(lit, _)| self.s[self.i..].starts_with(lit))
                    .ok_or("expected null, true or false")?;
                self.i += lit.len();
                Ok(v)
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                let start = self.i;
                while self.i < self.b.len()
                    && matches!(self.b[self.i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    self.i += 1;
                }
                let s = &self.s[start..self.i];
                // JSON has no infinities: overlong digit strings / huge
                // exponents that overflow f64 are malformed input, not
                // values.
                match s.parse::<f64>() {
                    Ok(n) if n.is_finite() => Ok(JsonVal::Num(n)),
                    _ => Err(format!("bad number '{s}'")),
                }
            }
            other => Err(format!("unexpected value start {other:?}")),
        }
    }
}

/// Parses one flat JSON object line (string / number / null / bool
/// values only — the trace schema never nests).
pub fn parse_flat_object(line: &str) -> Result<BTreeMap<String, JsonVal>, String> {
    let mut c = Cursor { s: line, b: line.as_bytes(), i: 0 };
    c.expect(b'{')?;
    let mut map = BTreeMap::new();
    while c.peek() != Some(b'}') {
        if !map.is_empty() {
            c.expect(b',')?;
        }
        let key = c.string()?;
        c.expect(b':')?;
        map.insert(key, c.value()?);
    }
    c.expect(b'}')?;
    c.skip_ws();
    if c.i != c.b.len() {
        return Err("trailing garbage after object".into());
    }
    Ok(map)
}

/// A fixed numeric field: 0 when missing, an error when present but not
/// a non-negative number.
fn num(m: &BTreeMap<String, JsonVal>, k: &str) -> Result<u64, String> {
    match m.get(k) {
        None => Ok(0),
        Some(v) => v.as_u64().ok_or_else(|| format!("invalid numeric field '{k}'")),
    }
}

fn text(m: &BTreeMap<String, JsonVal>, k: &str) -> Result<String, String> {
    m.get(k)
        .and_then(JsonVal::as_str)
        .map(|s| s.to_string())
        .ok_or_else(|| format!("missing/invalid string field '{k}'"))
}

/// Parses one JSONL line into an event (no schema-position checks).
fn parse_event_line(line: &str) -> Result<TraceEvent, String> {
    let m = &parse_flat_object(line)?;
    Ok(match text(m, "ev")?.as_str() {
        "meta" => TraceEvent::Meta {
            schema: text(m, "schema")?,
            reason: text(m, "reason").ok(),
            round: num(m, "round")?,
            fault_seed: num(m, "fault_seed")?,
        },
        "span" => {
            let mut fields = m.clone();
            for k in ["ev", "name", "id", "parent", "tid", "ts_ns", "dur_ns"] {
                fields.remove(k);
            }
            TraceEvent::Span {
                name: text(m, "name")?,
                id: num(m, "id")?,
                parent: num(m, "parent")?,
                tid: num(m, "tid")?,
                ts_ns: num(m, "ts_ns")?,
                dur_ns: num(m, "dur_ns")?,
                fields,
            }
        }
        "metric" => TraceEvent::Metric {
            name: text(m, "name")?,
            kind: text(m, "kind")?,
            value: num(m, "value")?,
            count: num(m, "count")?,
            p50: num(m, "p50")?,
            p95: num(m, "p95")?,
            max: num(m, "max")?,
        },
        "fault" => TraceEvent::Fault {
            round: num(m, "round")?,
            client: m.get("client").map(|_| num(m, "client")).transpose()?,
            kind: text(m, "kind")?,
            sim_ms: num(m, "sim_ms")?,
        },
        "note" => TraceEvent::Note {
            name: text(m, "name")?,
            round: num(m, "round")?,
            value: num(m, "value")?,
        },
        "end" => TraceEvent::End,
        other => return Err(format!("unknown event '{other}'")),
    })
}

/// The one reader: every line of a trace or a dump that parses becomes
/// an event, every other non-blank line a `"line N: <reason>"` entry in
/// the damage list. Truncated tails, interleaved garbage or a missing
/// header never abort the read — a crashed run's files are the evidence.
pub fn parse_events(text: &str) -> (Vec<TraceEvent>, Vec<String>) {
    let mut events = Vec::new();
    let mut damaged = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_event_line(line) {
            Ok(ev) => events.push(ev),
            Err(e) => damaged.push(format!("line {}: {e}", lineno + 1)),
        }
    }
    (events, damaged)
}

/// Strict read: [`parse_events`] with no damaged line and a
/// [`TRACE_SCHEMA`] header first.
pub fn parse_trace(text: &str) -> Result<Vec<TraceEvent>, String> {
    let (events, damaged) = parse_events(text);
    if let Some(first) = damaged.into_iter().next() {
        return Err(first);
    }
    match events.first() {
        Some(TraceEvent::Meta { schema, .. }) if schema == TRACE_SCHEMA => Ok(events),
        Some(TraceEvent::Meta { schema, .. }) => {
            Err(format!("unsupported trace schema '{schema}' (expected '{TRACE_SCHEMA}')"))
        }
        Some(_) => Err("trace does not start with a schema header".into()),
        None => Err("empty trace".into()),
    }
}

// --- aggregation -----------------------------------------------------------

/// Exact order statistics over a duration sample.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DurStats {
    /// Sample count.
    pub count: usize,
    /// Total nanoseconds.
    pub total_ns: u64,
    /// Median (exact, nearest-rank).
    pub p50_ns: u64,
    /// 95th percentile (exact, nearest-rank).
    pub p95_ns: u64,
    /// Maximum.
    pub max_ns: u64,
}

impl DurStats {
    /// Computes stats from raw samples.
    pub fn from_samples(mut xs: Vec<u64>) -> Self {
        if xs.is_empty() {
            return Self::default();
        }
        xs.sort_unstable();
        let n = xs.len();
        let rank = |q: f64| xs[((q * n as f64).ceil() as usize).clamp(1, n) - 1];
        Self {
            count: n,
            total_ns: xs.iter().sum(),
            p50_ns: rank(0.50),
            p95_ns: rank(0.95),
            max_ns: xs[n - 1],
        }
    }
}

/// Per-span-name aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStat {
    /// Span name.
    pub name: String,
    /// Duration statistics over all occurrences.
    pub stats: DurStats,
}

/// One reconstructed round.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RoundRow {
    /// Round index (1-based, from the span's `round` field).
    pub round: u64,
    /// Strategy name, when recorded on the round span.
    pub strategy: String,
    /// Total round duration.
    pub total_ns: u64,
    /// Summed `train` child span durations.
    pub train_ns: u64,
    /// Summed `aggregate` child span durations.
    pub aggregate_ns: u64,
    /// Summed `eval` child span durations.
    pub eval_ns: u64,
    /// Bytes uploaded (from the round span's `bytes_up` field).
    pub bytes_up: u64,
    /// Bytes downloaded (from `bytes_down`).
    pub bytes_down: u64,
    /// Participants (from `participants`).
    pub participants: u64,
    /// Participants whose uploads were accepted and aggregated (from
    /// `completed`; equals `participants` on fault-free runs).
    pub completed: u64,
    /// Sampled participants whose updates never made the aggregate
    /// (from `dropped`).
    pub dropped: u64,
    /// Message retransmissions this round (from `retries`).
    pub retries: u64,
    /// What FedGTA's server decided this round, when its `aggregate` span
    /// recorded it.
    pub decision: Option<Decision>,
}

/// One round's Eq. 6 / Eq. 7 decision, off FedGTA's `aggregate` span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// Effective ε (after the adaptive quantile).
    pub epsilon: f64,
    /// Mean aggregation-set size `|Iᵢ|`.
    pub members_mean: f64,
    /// Fraction of off-diagonal similarity pairs at or above ε.
    pub sim_above_eps: f64,
    /// Uploads rejected for an invalid weight source.
    pub rejected: u64,
}

/// Per-client `client_train` aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientStat {
    /// Client id (from the span's `client` field).
    pub client: u64,
    /// Duration statistics over that client's training spans.
    pub stats: DurStats,
}

/// Per-strategy aggregate over its rounds.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyStat {
    /// Strategy name.
    pub strategy: String,
    /// Round-duration statistics.
    pub stats: DurStats,
    /// Total bytes uploaded across its rounds.
    pub bytes_up: u64,
    /// Total bytes downloaded across its rounds.
    pub bytes_down: u64,
}

/// The aggregated view of one trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceSummary {
    /// Total span events.
    pub span_events: usize,
    /// Per-name span stats, name-sorted.
    pub span_stats: Vec<SpanStat>,
    /// Reconstructed rounds, round-sorted.
    pub rounds: Vec<RoundRow>,
    /// Per-client training stats, client-sorted.
    pub clients: Vec<ClientStat>,
    /// Per-strategy stats, name-sorted.
    pub strategies: Vec<StrategyStat>,
    /// The flushed [`TraceEvent::Metric`] events, in trace order.
    pub metrics: Vec<TraceEvent>,
}

impl TraceSummary {
    /// The flushed value of metric `name` (sum for histograms).
    pub fn metric(&self, name: &str) -> Option<u64> {
        self.metrics.iter().find_map(|m| match m {
            TraceEvent::Metric { name: n, value, .. } if n == name => Some(*value),
            _ => None,
        })
    }
}

/// Parent chains are shallow (round > train > client_train); walks up
/// them stop after this many hops, so a cycle in damaged input ends.
const MAX_DEPTH: usize = 64;

/// Walks up the parent chain to find the enclosing `round` span id.
fn enclosing_round(
    mut parent: u64,
    parents: &BTreeMap<u64, u64>,
    round_of_span: &BTreeMap<u64, usize>,
) -> Option<usize> {
    for _ in 0..MAX_DEPTH {
        if parent == 0 {
            break;
        }
        if let Some(&ri) = round_of_span.get(&parent) {
            return Some(ri);
        }
        parent = parents.get(&parent).copied().unwrap_or(0);
    }
    None
}

/// Aggregates parsed events into tables.
pub fn summarize(events: &[TraceEvent]) -> TraceSummary {
    let mut by_name: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    let mut by_client: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut parents: BTreeMap<u64, u64> = BTreeMap::new();
    let mut rounds: Vec<RoundRow> = Vec::new();
    let mut round_of_span: BTreeMap<u64, usize> = BTreeMap::new();
    let mut metrics = Vec::new();
    let mut span_events = 0usize;

    // First pass: parent links + round rows (so phase spans that close
    // *before* their round span still resolve — we match by ancestry in a
    // second pass).
    for ev in events {
        if let TraceEvent::Span {
            name,
            id,
            parent,
            fields,
            dur_ns,
            ..
        } = ev
        {
            parents.insert(*id, *parent);
            if name == "round" {
                let n = |k: &str| fields.get(k).and_then(JsonVal::as_u64).unwrap_or(0);
                round_of_span.insert(*id, rounds.len());
                rounds.push(RoundRow {
                    round: n("round"),
                    strategy: fields.get("strategy").and_then(JsonVal::as_str).unwrap_or("").into(),
                    total_ns: *dur_ns,
                    bytes_up: n("bytes_up"),
                    bytes_down: n("bytes_down"),
                    participants: n("participants"),
                    completed: n("completed"),
                    dropped: n("dropped"),
                    retries: n("retries"),
                    ..RoundRow::default()
                });
            }
        }
    }

    for ev in events {
        match ev {
            TraceEvent::Span {
                name,
                parent,
                dur_ns,
                fields,
                ..
            } => {
                span_events += 1;
                by_name.entry(name.clone()).or_default().push(*dur_ns);
                if name == "client_train" {
                    if let Some(c) = fields.get("client").and_then(JsonVal::as_u64) {
                        by_client.entry(c).or_default().push(*dur_ns);
                    }
                }
                if let Some(ri) = enclosing_round(*parent, &parents, &round_of_span) {
                    match name.as_str() {
                        "train" => rounds[ri].train_ns += dur_ns,
                        "aggregate" => {
                            rounds[ri].aggregate_ns += dur_ns;
                            let num = |key: &str| fields.get(key).and_then(JsonVal::as_f64);
                            if let Some(epsilon) = num("epsilon") {
                                rounds[ri].decision = Some(Decision {
                                    epsilon,
                                    members_mean: num("members_mean").unwrap_or(0.0),
                                    sim_above_eps: num("sim_above_eps").unwrap_or(0.0),
                                    rejected: num("rejected").unwrap_or(0.0) as u64,
                                });
                            }
                        }
                        "eval" => rounds[ri].eval_ns += dur_ns,
                        _ => {}
                    }
                }
            }
            TraceEvent::Metric { .. } => metrics.push(ev.clone()),
            _ => {}
        }
    }

    rounds.sort_by_key(|r| r.round);
    let mut by_strategy: BTreeMap<String, (Vec<u64>, u64, u64)> = BTreeMap::new();
    for r in &rounds {
        let e = by_strategy.entry(r.strategy.clone()).or_default();
        e.0.push(r.total_ns);
        e.1 += r.bytes_up;
        e.2 += r.bytes_down;
    }

    TraceSummary {
        span_events,
        span_stats: by_name
            .into_iter()
            .map(|(name, xs)| SpanStat {
                name,
                stats: DurStats::from_samples(xs),
            })
            .collect(),
        rounds,
        clients: by_client
            .into_iter()
            .map(|(client, xs)| ClientStat {
                client,
                stats: DurStats::from_samples(xs),
            })
            .collect(),
        strategies: by_strategy
            .into_iter()
            .map(|(strategy, (xs, up, down))| StrategyStat {
                strategy,
                stats: DurStats::from_samples(xs),
                bytes_up: up,
                bytes_down: down,
            })
            .collect(),
        metrics,
    }
}

// --- self-time profiling ---------------------------------------------------

/// Per-span-name self-time aggregate (see [`profile`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileRow {
    /// Span name.
    pub name: String,
    /// Occurrences.
    pub count: usize,
    /// Summed wall-clock durations.
    pub total_ns: u64,
    /// Summed self time: duration minus the summed durations of direct
    /// children. For spans whose children run *concurrently* on workers
    /// (`train` over `client_train`), child time can exceed the parent's
    /// wall clock; self time saturates at zero rather than going
    /// negative — "no time unaccounted for".
    pub self_ns: u64,
}

/// Output of [`profile`]: hot-span rows plus folded stacks.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Profile {
    /// Per-name rows, sorted by `self_ns` descending (name-ascending
    /// tiebreak).
    pub rows: Vec<ProfileRow>,
    /// Folded call stacks: `("root;child;leaf", self_ns)` per distinct
    /// name path, path-sorted — one `path weight` line each in
    /// [`render_folded`], the input format of standard flamegraph
    /// tooling.
    pub folded: Vec<(String, u64)>,
    /// Summed duration of root spans (parent id 0 or unknown): the
    /// denominator for self-time percentages.
    pub wall_ns: u64,
}

/// Computes per-span self time and folded stacks from parsed events.
pub fn profile(events: &[TraceEvent]) -> Profile {
    // id → (name, parent, dur)
    let mut spans: BTreeMap<u64, (&str, u64, u64)> = BTreeMap::new();
    for ev in events {
        if let TraceEvent::Span {
            name, id, parent, dur_ns, ..
        } = ev
        {
            spans.insert(*id, (name.as_str(), *parent, *dur_ns));
        }
    }
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for &(_, parent, dur) in spans.values() {
        if parent != 0 {
            *child_ns.entry(parent).or_default() += dur;
        }
    }
    let mut by_name: BTreeMap<&str, (usize, u64, u64)> = BTreeMap::new();
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    let mut wall_ns = 0u64;
    for (&id, &(name, parent, dur)) in &spans {
        let self_ns = dur.saturating_sub(child_ns.get(&id).copied().unwrap_or(0));
        let e = by_name.entry(name).or_default();
        e.0 += 1;
        e.1 += dur;
        e.2 += self_ns;
        if parent == 0 || !spans.contains_key(&parent) {
            wall_ns += dur;
        }
        // Build the name path root→self ([`MAX_DEPTH`] breaks a cycle).
        let mut path = vec![name];
        let mut up = parent;
        for _ in 0..MAX_DEPTH {
            match spans.get(&up) {
                Some(&(pname, pparent, _)) if up != 0 => {
                    path.push(pname);
                    up = pparent;
                }
                _ => break,
            }
        }
        path.reverse();
        if self_ns > 0 {
            *folded.entry(path.join(";")).or_default() += self_ns;
        }
    }
    let mut rows: Vec<ProfileRow> = by_name
        .into_iter()
        .map(|(name, (count, total_ns, self_ns))| ProfileRow {
            name: name.to_string(),
            count,
            total_ns,
            self_ns,
        })
        .collect();
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then_with(|| a.name.cmp(&b.name)));
    Profile {
        rows,
        folded: folded.into_iter().collect(),
        wall_ns,
    }
}

/// Renders the top-`topk` hot spans by self time as a terminal table.
pub fn render_profile(p: &Profile, topk: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "self-time profile: {} span names, wall {} ms\n\n",
        p.rows.len(),
        fmt_ms(p.wall_ns)
    ));
    out.push_str(&format!(
        "{:<20} {:>7} {:>12} {:>12} {:>7}\n",
        "span", "count", "total ms", "self ms", "self%"
    ));
    for r in p.rows.iter().take(topk.max(1)) {
        let pct = if p.wall_ns > 0 {
            100.0 * r.self_ns as f64 / p.wall_ns as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "{:<20} {:>7} {:>12} {:>12} {:>6.1}%\n",
            r.name,
            r.count,
            fmt_ms(r.total_ns),
            fmt_ms(r.self_ns),
            pct,
        ));
    }
    out
}

/// Renders folded stacks, one `path weight` line per entry — pipe into
/// `flamegraph.pl` / `inferno-flamegraph` as-is.
pub fn render_folded(p: &Profile) -> String {
    let mut out = String::new();
    for (path, w) in &p.folded {
        out.push_str(&format!("{path} {w}\n"));
    }
    out
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.2}", ns as f64 / 1e6)
}

fn fmt_bytes(b: u64) -> String {
    if b >= 10 * 1024 * 1024 {
        format!("{:.1}MiB", b as f64 / (1024.0 * 1024.0))
    } else if b >= 10 * 1024 {
        format!("{:.1}KiB", b as f64 / 1024.0)
    } else {
        format!("{b}B")
    }
}

/// Renders the summary as the `fedgta-cli report` terminal tables.
pub fn render_report(s: &TraceSummary) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "trace: {} span events, {} rounds, {} clients, {} metrics\n",
        s.span_events,
        s.rounds.len(),
        s.clients.len(),
        s.metrics.len()
    ));

    if !s.rounds.is_empty() {
        out.push_str("\nper-round breakdown (ms):\n");
        out.push_str(&format!(
            "{:<6} {:<14} {:>6} {:>4} {:>5} {:>4} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
            "round", "strategy", "parts", "ok", "drop", "rty", "total", "train", "aggregate",
            "eval", "up", "down"
        ));
        for r in &s.rounds {
            out.push_str(&format!(
                "{:<6} {:<14} {:>6} {:>4} {:>5} {:>4} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
                r.round,
                if r.strategy.is_empty() { "-" } else { &r.strategy },
                r.participants,
                r.completed,
                r.dropped,
                r.retries,
                fmt_ms(r.total_ns),
                fmt_ms(r.train_ns),
                fmt_ms(r.aggregate_ns),
                fmt_ms(r.eval_ns),
                fmt_bytes(r.bytes_up),
                fmt_bytes(r.bytes_down),
            ));
        }
    }

    if s.rounds.iter().any(|r| r.decision.is_some()) {
        out.push_str("\nFedGTA decisions (Eq. 6 sets, Eq. 7 inputs):\n");
        out.push_str(&format!(
            "{:<6} {:>6} {:>9} {:>13} {:>13} {:>9}\n",
            "round", "parts", "epsilon", "members_mean", "sim_above_eps", "rejected"
        ));
        for (r, d) in s.rounds.iter().filter_map(|r| r.decision.map(|d| (r, d))) {
            out.push_str(&format!(
                "{:<6} {:>6} {:>9.4} {:>13.2} {:>13.3} {:>9}\n",
                r.round, r.completed, d.epsilon, d.members_mean, d.sim_above_eps, d.rejected
            ));
        }
    }

    if !s.clients.is_empty() {
        out.push_str("\nper-client local training (ms):\n");
        out.push_str(&format!(
            "{:<8} {:>7} {:>10} {:>10} {:>10}\n",
            "client", "rounds", "p50", "p95", "max"
        ));
        for c in &s.clients {
            out.push_str(&format!(
                "{:<8} {:>7} {:>10} {:>10} {:>10}\n",
                c.client,
                c.stats.count,
                fmt_ms(c.stats.p50_ns),
                fmt_ms(c.stats.p95_ns),
                fmt_ms(c.stats.max_ns),
            ));
        }
    }

    if !s.strategies.is_empty() {
        out.push_str("\nper-strategy rounds:\n");
        out.push_str(&format!(
            "{:<16} {:>7} {:>10} {:>10} {:>10} {:>10} {:>12}\n",
            "strategy", "rounds", "p50 ms", "p95 ms", "max ms", "upload", "throughput"
        ));
        for st in &s.strategies {
            let thr = if st.stats.total_ns > 0 {
                format!(
                    "{}/s",
                    fmt_bytes(
                        ((st.bytes_up + st.bytes_down) as f64
                            / (st.stats.total_ns as f64 / 1e9))
                            .round() as u64
                    )
                )
            } else {
                "-".into()
            };
            out.push_str(&format!(
                "{:<16} {:>7} {:>10} {:>10} {:>10} {:>10} {:>12}\n",
                if st.strategy.is_empty() { "-" } else { &st.strategy },
                st.stats.count,
                fmt_ms(st.stats.p50_ns),
                fmt_ms(st.stats.p95_ns),
                fmt_ms(st.stats.max_ns),
                fmt_bytes(st.bytes_up),
                thr,
            ));
        }
    }

    // Codec effect per wire leg: the raw/encoded byte counters the
    // transport meters on every coded round (identity codec ⇒ equal,
    // reduction 1×). The download row appears only when a download codec
    // actually framed broadcasts — plain broadcasts never become wire
    // bytes.
    let legs: Vec<(&str, u64, u64)> = [
        ("uploads", "comms.upload_bytes_raw", "comms.upload_bytes_encoded"),
        (
            "downloads",
            "comms.download_bytes_raw",
            "comms.download_bytes_encoded",
        ),
    ]
    .iter()
    .filter_map(|&(leg, raw, enc)| match (s.metric(raw), s.metric(enc)) {
        (Some(r), Some(e)) if r > 0 => Some((leg, r, e)),
        _ => None,
    })
    .collect();
    if !legs.is_empty() {
        out.push_str("\ncodec (wire bytes):\n");
        out.push_str(&format!(
            "{:<10} {:<12} {:<12} {:>9}\n",
            "leg", "raw", "encoded", "reduction"
        ));
        for (leg, raw, enc) in legs {
            out.push_str(&format!(
                "{:<10} {:<12} {:<12} {:>8.2}x\n",
                leg,
                fmt_bytes(raw),
                fmt_bytes(enc),
                raw as f64 / enc.max(1) as f64,
            ));
        }
    }

    // Peak-memory gauges: the budgets scale runs are graded against.
    let kits = format!("worker kits (x{})", s.metric("fed.kits.instances").unwrap_or(0));
    let peaks: Vec<(&str, u64)> = [
        ("graph.store.resident_bytes", "graph store resident peak"),
        ("workspace.high_water_bytes", "workspace high-water peak"),
        ("fedgta.metric_scratch.bytes", "FedGTA metric scratch pool + kept sketches"),
        ("fed.kits.bytes", kits.as_str()),
        ("fed.clients.bytes", "client data, params, state"),
    ]
    .iter()
    .filter_map(|&(name, label)| s.metric(name).filter(|&v| v > 0).map(|v| (label, v)))
    .collect();
    if !peaks.is_empty() {
        out.push_str("\nresource peaks:\n");
        for (label, v) in peaks {
            out.push_str(&format!("{label:<28} {:>10}\n", fmt_bytes(v)));
        }
    }

    out.push_str("\nspan summary (ms):\n");
    out.push_str(&format!(
        "{:<20} {:>7} {:>10} {:>10} {:>10} {:>12}\n",
        "span", "count", "p50", "p95", "max", "total"
    ));
    for sp in &s.span_stats {
        out.push_str(&format!(
            "{:<20} {:>7} {:>10} {:>10} {:>10} {:>12}\n",
            sp.name,
            sp.stats.count,
            fmt_ms(sp.stats.p50_ns),
            fmt_ms(sp.stats.p95_ns),
            fmt_ms(sp.stats.max_ns),
            fmt_ms(sp.stats.total_ns),
        ));
    }

    if !s.metrics.is_empty() {
        out.push_str("\nmetrics at flush:\n");
        out.push_str(&format!(
            "{:<32} {:<10} {:>14} {:>9} {:>10} {:>10}\n",
            "name", "kind", "value", "count", "p50", "p95"
        ));
        for m in &s.metrics {
            if let TraceEvent::Metric { name, kind, value, count, p50, p95, .. } = m {
                out.push_str(&format!(
                    "{name:<32} {kind:<10} {value:>14} {count:>9} {p50:>10} {p95:>10}\n"
                ));
            }
        }
    }
    out
}

/// Renders a postmortem dump as a timeline: its header, the flight
/// recorder's spans and notes in canonical order, the fault log, and
/// the metric registry at dump time.
pub fn render_dump(events: &[TraceEvent]) -> String {
    let (mut flights, mut faults, mut metrics) = (Vec::new(), Vec::new(), Vec::new());
    let mut out = String::new();
    for ev in events {
        match ev {
            TraceEvent::Meta { schema, reason, round, fault_seed } => out.push_str(&format!(
                "postmortem: reason={} round={round} fault_seed={fault_seed} (schema {schema})\n",
                reason.as_deref().unwrap_or("?")
            )),
            TraceEvent::Span { name, fields, .. } => {
                let n = |k: &str| fields.get(k).and_then(JsonVal::as_u64);
                let client = n("client").map_or(String::new(), |c| format!(" client {c}"));
                let round = n("round").unwrap_or(0);
                flights.push(format!("  [span ] round {round:<4} {name}{client}"));
            }
            TraceEvent::Note { name, round, value } => {
                flights.push(format!("  [note ] round {round:<4} {name} value {value}"));
            }
            TraceEvent::Fault { round, client, kind, sim_ms } => {
                let who = client.map_or("(round-level)".to_string(), |c| format!("client {c:<4}"));
                faults.push(format!("  round {round:<4} {kind:<14} {who} @{sim_ms}ms"));
            }
            TraceEvent::Metric { name, kind, value, count, .. } => metrics.push(match kind.as_str() {
                "counter" => format!("  counter   {name} = {value}"),
                "histogram" => format!("  histogram {name} ({count} samples)"),
                _ => format!("  {kind:<9} {name} (value omitted: thread-dependent)"),
            }),
            TraceEvent::End => {}
        }
    }
    let sections = [
        ("flight recorder (canonical order)", flights),
        ("fault log (deterministic, orchestrator order)", faults),
        ("metric registry at dump time", metrics),
    ];
    for (title, lines) in sections.iter().filter(|(_, lines)| !lines.is_empty()) {
        let _ = write!(out, "\n{title}:\n{}\n", lines.join("\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_object_parses_all_value_kinds() {
        let m = parse_flat_object(
            r#"{"a":1,"b":-2.5,"c":"x\"y","d":null,"e":true,"f":false,"g":1e3}"#,
        )
        .unwrap();
        assert_eq!(m["a"], JsonVal::Num(1.0));
        assert_eq!(m["b"], JsonVal::Num(-2.5));
        assert_eq!(m["c"], JsonVal::Str("x\"y".into()));
        assert_eq!(m["d"], JsonVal::Null);
        assert_eq!(m["e"], JsonVal::Num(1.0));
        assert_eq!(m["f"], JsonVal::Num(0.0));
        assert_eq!(m["g"], JsonVal::Num(1000.0));
    }

    #[test]
    fn flat_object_rejects_garbage() {
        assert!(parse_flat_object("{").is_err());
        assert!(parse_flat_object(r#"{"a":}"#).is_err());
        assert!(parse_flat_object(r#"{"a":1} extra"#).is_err());
        assert!(parse_flat_object("not json").is_err());
    }

    #[test]
    fn trace_requires_schema_header() {
        let no_header = "{\"ev\":\"span\",\"name\":\"x\",\"id\":1,\"parent\":0,\"tid\":1,\"ts_ns\":0,\"dur_ns\":1}";
        assert!(parse_trace(no_header).unwrap_err().contains("schema header"));
        let bad = "{\"ev\":\"meta\",\"schema\":\"fedgta-trace/99\"}";
        assert!(parse_trace(bad).unwrap_err().contains("unsupported"));
        assert!(parse_trace("").unwrap_err().contains("empty"));
    }

    fn sample_trace() -> String {
        let mut t = format!("{{\"ev\":\"meta\",\"schema\":\"{TRACE_SCHEMA}\"}}\n");
        // round 1 (id 1) > train (2) > client_train (3,4); aggregate (5); eval (6)
        t.push_str("{\"ev\":\"span\",\"name\":\"client_train\",\"id\":3,\"parent\":2,\"tid\":2,\"ts_ns\":10,\"dur_ns\":100,\"client\":0}\n");
        t.push_str("{\"ev\":\"span\",\"name\":\"client_train\",\"id\":4,\"parent\":2,\"tid\":3,\"ts_ns\":10,\"dur_ns\":300,\"client\":1}\n");
        t.push_str("{\"ev\":\"span\",\"name\":\"train\",\"id\":2,\"parent\":1,\"tid\":1,\"ts_ns\":5,\"dur_ns\":400}\n");
        t.push_str("{\"ev\":\"span\",\"name\":\"aggregate\",\"id\":5,\"parent\":1,\"tid\":1,\"ts_ns\":500,\"dur_ns\":50}\n");
        t.push_str("{\"ev\":\"span\",\"name\":\"eval\",\"id\":6,\"parent\":1,\"tid\":1,\"ts_ns\":600,\"dur_ns\":25}\n");
        t.push_str("{\"ev\":\"span\",\"name\":\"round\",\"id\":1,\"parent\":0,\"tid\":1,\"ts_ns\":0,\"dur_ns\":700,\"round\":1,\"strategy\":\"FedAvg\",\"bytes_up\":1000,\"bytes_down\":2000,\"participants\":2}\n");
        t.push_str("{\"ev\":\"metric\",\"name\":\"comms.upload_bytes\",\"kind\":\"counter\",\"value\":1000,\"count\":0,\"p50\":0,\"p95\":0,\"max\":0}\n");
        t.push_str("{\"ev\":\"end\"}\n");
        t
    }

    #[test]
    fn summarize_reconstructs_rounds_clients_strategies() {
        let events = parse_trace(&sample_trace()).unwrap();
        assert_eq!(events.len(), 9);
        let s = summarize(&events);
        assert_eq!(s.rounds.len(), 1);
        let r = &s.rounds[0];
        assert_eq!(r.round, 1);
        assert_eq!(r.strategy, "FedAvg");
        assert_eq!(r.total_ns, 700);
        assert_eq!(r.train_ns, 400);
        assert_eq!(r.aggregate_ns, 50);
        assert_eq!(r.eval_ns, 25);
        assert_eq!(r.bytes_up, 1000);
        assert_eq!(r.bytes_down, 2000);
        assert_eq!(r.participants, 2);
        assert_eq!(s.clients.len(), 2);
        assert_eq!(s.clients[0].client, 0);
        assert_eq!(s.clients[0].stats.max_ns, 100);
        assert_eq!(s.clients[1].stats.p50_ns, 300);
        assert_eq!(s.strategies.len(), 1);
        assert_eq!(s.strategies[0].bytes_up, 1000);
        assert_eq!(s.metrics.len(), 1);
        let rendered = render_report(&s);
        assert!(rendered.contains("per-round breakdown"));
        assert!(rendered.contains("FedAvg"));
        assert!(rendered.contains("comms.upload_bytes"));
    }

    #[test]
    fn lossy_parse_recovers_valid_lines_around_garbage() {
        let mut t = sample_trace();
        t.insert_str(0, "garbage not json\n");
        t.push_str("{\"ev\":\"span\",\"name\":\"trunc");
        let (events, errors) = parse_events(&t);
        // All 9 original events survive; the two damaged lines are reported.
        assert_eq!(events.len(), 9);
        assert_eq!(errors.len(), 2);
        assert!(errors[0].starts_with("line 1:"));
        // The strict reader refuses the same input outright.
        assert!(parse_trace(&t).is_err());
    }

    #[test]
    fn profile_computes_self_time_and_folded_stacks() {
        let events = parse_trace(&sample_trace()).unwrap();
        let p = profile(&events);
        // round dur 700, children 400+50+25 ⇒ self 225. train's children
        // sum to exactly its duration ⇒ self 0.
        let row = |name: &str| p.rows.iter().find(|r| r.name == name).unwrap();
        assert_eq!(row("round").self_ns, 225);
        assert_eq!(row("round").total_ns, 700);
        assert_eq!(row("train").self_ns, 0);
        assert_eq!(row("client_train").self_ns, 400);
        assert_eq!(p.wall_ns, 700, "one root span");
        // Rows are sorted by self time descending.
        assert!(p.rows[0].self_ns >= p.rows[1].self_ns);
        let folded = render_folded(&p);
        assert!(folded.contains("round;train;client_train 400\n"));
        assert!(folded.contains("round 225\n"));
        assert!(!folded.contains("round;train 0"), "zero-weight paths omitted");
        let table = render_profile(&p, 10);
        assert!(table.contains("self%"));
        assert!(table.contains("client_train"));
    }

    #[test]
    fn report_renders_codec_reduction_and_resource_peaks() {
        let mut t = sample_trace();
        let extra = concat!(
            "{\"ev\":\"metric\",\"name\":\"comms.upload_bytes_raw\",\"kind\":\"counter\",\"value\":40960,\"count\":0,\"p50\":0,\"p95\":0,\"max\":0}\n",
            "{\"ev\":\"metric\",\"name\":\"comms.upload_bytes_encoded\",\"kind\":\"counter\",\"value\":10240,\"count\":0,\"p50\":0,\"p95\":0,\"max\":0}\n",
            "{\"ev\":\"metric\",\"name\":\"comms.download_bytes_raw\",\"kind\":\"counter\",\"value\":8192,\"count\":0,\"p50\":0,\"p95\":0,\"max\":0}\n",
            "{\"ev\":\"metric\",\"name\":\"comms.download_bytes_encoded\",\"kind\":\"counter\",\"value\":4096,\"count\":0,\"p50\":0,\"p95\":0,\"max\":0}\n",
            "{\"ev\":\"metric\",\"name\":\"graph.store.resident_bytes\",\"kind\":\"gauge\",\"value\":78643200,\"count\":0,\"p50\":0,\"p95\":0,\"max\":0}\n",
            "{\"ev\":\"metric\",\"name\":\"fed.kits.instances\",\"kind\":\"gauge\",\"value\":2,\"count\":0,\"p50\":0,\"p95\":0,\"max\":0}\n",
            "{\"ev\":\"metric\",\"name\":\"fed.kits.bytes\",\"kind\":\"gauge\",\"value\":3145728,\"count\":0,\"p50\":0,\"p95\":0,\"max\":0}\n",
        );
        t = t.replace("{\"ev\":\"end\"}\n", &format!("{extra}{{\"ev\":\"end\"}}\n"));
        let s = summarize(&parse_trace(&t).unwrap());
        let rendered = render_report(&s);
        assert!(rendered.contains("codec (wire bytes):"));
        assert!(rendered.contains("uploads"));
        assert!(rendered.contains("4.00x"), "40960/10240 reduction:\n{rendered}");
        assert!(rendered.contains("downloads"));
        assert!(rendered.contains("2.00x"), "8192/4096 reduction:\n{rendered}");
        assert!(rendered.contains("resource peaks:"));
        assert!(rendered.contains("graph store resident peak"));
        assert!(rendered.contains("75.0MiB"));
        assert!(rendered.contains("worker kits (x2)") && rendered.contains("3072.0KiB"), "{rendered}");
        // Without the counters the sections stay absent — and an
        // upload-only trace renders no download row.
        let bare = render_report(&summarize(&parse_trace(&sample_trace()).unwrap()));
        assert!(!bare.contains("codec (wire bytes)"));
        assert!(!bare.contains("resource peaks"));
        let up_only = sample_trace().replace(
            "{\"ev\":\"end\"}\n",
            concat!(
                "{\"ev\":\"metric\",\"name\":\"comms.upload_bytes_raw\",\"kind\":\"counter\",\"value\":100,\"count\":0,\"p50\":0,\"p95\":0,\"max\":0}\n",
                "{\"ev\":\"metric\",\"name\":\"comms.download_bytes_raw\",\"kind\":\"counter\",\"value\":0,\"count\":0,\"p50\":0,\"p95\":0,\"max\":0}\n",
                "{\"ev\":\"metric\",\"name\":\"comms.download_bytes_encoded\",\"kind\":\"counter\",\"value\":0,\"count\":0,\"p50\":0,\"p95\":0,\"max\":0}\n",
                "{\"ev\":\"end\"}\n"
            ),
        );
        let up_rendered = render_report(&summarize(&parse_trace(&up_only).unwrap()));
        assert!(!up_rendered.contains("downloads"), "zero download leg omitted");
    }

    #[test]
    fn parent_cycles_summarize_and_render() {
        let span = |id, parent| {
            format!("{{\"ev\":\"span\",\"name\":\"train\",\"id\":{id},\"parent\":{parent}}}")
        };
        for text in [span(1, 1), format!("{}\n{}", span(1, 2), span(2, 1))] {
            let (events, _) = parse_events(&text);
            assert!(render_report(&summarize(&events)).contains("train"));
            assert!(render_profile(&profile(&events), 5).contains("train"));
        }
    }

    #[test]
    fn durstats_nearest_rank() {
        let s = DurStats::from_samples(vec![10, 20, 30, 40, 100]);
        assert_eq!(s.p50_ns, 30);
        assert_eq!(s.p95_ns, 100);
        assert_eq!(s.max_ns, 100);
        assert_eq!(s.total_ns, 200);
        assert_eq!(DurStats::from_samples(vec![]), DurStats::default());
    }
}
