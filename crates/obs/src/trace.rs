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
                vec![
                    text("ev", "note"),
                    text("name", name),
                    num("round", round),
                    num("value", value),
                ]
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
                let literals =
                    [("null", JsonVal::Null), ("true", 1.0.into()), ("false", 0.0.into())];
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
    /// Total nanoseconds (saturating: damaged durations never overflow).
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
            total_ns: xs.iter().fold(0, |a, &x| a.saturating_add(x)),
            p50_ns: rank(0.50),
            p95_ns: rank(0.95),
            max_ns: xs[n - 1],
        }
    }
}

/// The statistics of one key: a span name, a client id or a strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct Stat<K> {
    /// The span name, client id (a `client_train` span's `client` field)
    /// or strategy name.
    pub key: K,
    /// Duration statistics over the key's spans (a strategy's: its rounds).
    pub stats: DurStats,
    /// A span name's summed self time: each span's duration minus its
    /// direct children's, at least zero — children that run concurrently
    /// on workers (`train` over `client_train`) can outlast their parent.
    /// 0 for clients and strategies.
    pub self_ns: u64,
    /// Bytes uploaded over a strategy's rounds (0 for other keys).
    pub bytes_up: u64,
    /// Bytes downloaded over a strategy's rounds (0 for other keys).
    pub bytes_down: u64,
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
    /// Summed `train` descendant span durations.
    pub train_ns: u64,
    /// Summed `aggregate` descendant span durations.
    pub aggregate_ns: u64,
    /// Summed `eval` descendant span durations.
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

/// The aggregated view of one trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceSummary {
    /// Total span events.
    pub span_events: usize,
    /// Per-name span stats, by self time (largest first), then by name.
    pub span_stats: Vec<Stat<String>>,
    /// Reconstructed rounds, round-sorted.
    pub rounds: Vec<RoundRow>,
    /// Per-client training stats, client-sorted.
    pub clients: Vec<Stat<u64>>,
    /// Per-strategy round stats and bytes, name-sorted.
    pub strategies: Vec<Stat<String>>,
    /// Folded call stacks: `("root;child;leaf", self_ns)` per distinct
    /// name path with self time, path-sorted — one `path weight` line
    /// each in [`render_folded`], the input format of standard flamegraph
    /// tooling.
    pub folded: Vec<(String, u64)>,
    /// Summed duration of root spans (parent id 0 or unknown): what
    /// self-time percentages are taken against.
    pub wall_ns: u64,
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

/// Parent chains are shallow (round > train > client_train > lp); the
/// ancestry walk stops after this many hops, so a cycle in damaged input
/// ends.
const MAX_DEPTH: usize = 64;

/// Adds `x` to `sum`, saturating: a damaged duration or byte count must
/// not overflow a total.
fn add(sum: &mut u64, x: u64) {
    *sum = sum.saturating_add(x);
}

/// Aggregates parsed events into tables, in one walk over one index of
/// the spans (by id; the last span wins a repeated id). A span's direct
/// children's summed durations give its self time; its ancestry, nearest
/// first, gives its enclosing round — whose phase sums and decision it
/// feeds — and its folded-stack path. A span without ancestors is a root,
/// and roots sum to the wall time.
pub fn summarize(events: &[TraceEvent]) -> TraceSummary {
    let (mut spans, mut rows) = (Vec::new(), Vec::new());
    let (mut index, mut child_ns) = (BTreeMap::new(), BTreeMap::<u64, u64>::new());
    for ev in events {
        let TraceEvent::Span { name, id, parent, dur_ns, fields, .. } = ev else { continue };
        index.insert(*id, spans.len());
        spans.push((name.as_str(), *id, *parent, *dur_ns, fields));
        if *parent != 0 {
            add(child_ns.entry(*parent).or_default(), *dur_ns);
        }
        let n = |k: &str| fields.get(k).and_then(JsonVal::as_u64).unwrap_or(0);
        rows.push((name == "round").then(|| RoundRow {
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
        }));
    }

    let mut by_name: BTreeMap<String, Acc> = BTreeMap::new();
    let mut by_client: BTreeMap<u64, Acc> = BTreeMap::new();
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    let mut wall_ns = 0;
    let mut ancestors = Vec::new();
    for &(name, id, parent, dur, fields) in &spans {
        let self_ns = dur.saturating_sub(child_ns.get(&id).copied().unwrap_or(0));
        let stat = by_name.entry(name.to_string()).or_default();
        stat.durs.push(dur);
        add(&mut stat.self_ns, self_ns);
        if name == "client_train" {
            if let Some(c) = fields.get("client").and_then(JsonVal::as_u64) {
                by_client.entry(c).or_default().durs.push(dur);
            }
        }
        ancestors.clear();
        let mut up = parent;
        while let Some(&i) = index.get(&up).filter(|_| up != 0 && ancestors.len() < MAX_DEPTH) {
            ancestors.push(i);
            up = spans[i].2;
        }
        if ancestors.is_empty() {
            add(&mut wall_ns, dur);
        }
        if self_ns > 0 {
            let path: Vec<&str> =
                ancestors.iter().rev().map(|&i| spans[i].0).chain([name]).collect();
            add(folded.entry(path.join(";")).or_default(), self_ns);
        }
        let round = ancestors.iter().find(|&&i| rows[i].is_some());
        let Some(r) = round.and_then(|&i| rows[i].as_mut()) else { continue };
        match name {
            "train" => add(&mut r.train_ns, dur),
            "eval" => add(&mut r.eval_ns, dur),
            "aggregate" => {
                add(&mut r.aggregate_ns, dur);
                let num = |key: &str| fields.get(key).and_then(JsonVal::as_f64);
                if let Some(epsilon) = num("epsilon") {
                    r.decision = Some(Decision {
                        epsilon,
                        members_mean: num("members_mean").unwrap_or(0.0),
                        sim_above_eps: num("sim_above_eps").unwrap_or(0.0),
                        rejected: num("rejected").unwrap_or(0.0) as u64,
                    });
                }
            }
            _ => {}
        }
    }

    let mut rounds: Vec<RoundRow> = rows.into_iter().flatten().collect();
    rounds.sort_by_key(|r| r.round);
    let mut by_strategy: BTreeMap<String, Acc> = BTreeMap::new();
    for r in &rounds {
        let stat = by_strategy.entry(r.strategy.clone()).or_default();
        stat.durs.push(r.total_ns);
        add(&mut stat.bytes_up, r.bytes_up);
        add(&mut stat.bytes_down, r.bytes_down);
    }
    let metrics = events.iter().filter(|ev| matches!(ev, TraceEvent::Metric { .. }));
    let mut span_stats = stats(by_name);
    span_stats.sort_by_key(|s| std::cmp::Reverse(s.self_ns));
    TraceSummary {
        span_events: spans.len(),
        span_stats,
        rounds,
        clients: stats(by_client),
        strategies: stats(by_strategy),
        folded: folded.into_iter().collect(),
        wall_ns,
        metrics: metrics.cloned().collect(),
    }
}

/// What one key's [`Stat`] is gathered from.
#[derive(Default)]
struct Acc {
    durs: Vec<u64>,
    self_ns: u64,
    bytes_up: u64,
    bytes_down: u64,
}

/// Each key's gathered [`Acc`] as its [`Stat`], key-sorted.
fn stats<K>(by_key: BTreeMap<K, Acc>) -> Vec<Stat<K>> {
    by_key
        .into_iter()
        .map(|(key, a)| Stat {
            key,
            stats: DurStats::from_samples(a.durs),
            self_ns: a.self_ns,
            bytes_up: a.bytes_up,
            bytes_down: a.bytes_down,
        })
        .collect()
}

/// Renders folded stacks, one `path weight` line per entry — pipe into
/// `flamegraph.pl` / `inferno-flamegraph` as-is.
pub fn render_folded(s: &TraceSummary) -> String {
    s.folded.iter().map(|(path, w)| format!("{path} {w}\n")).collect()
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

/// Appends a titled table — a header, then one line per row — whose
/// columns `cols` states once, as `|`-separated specs: `<W name` for a
/// column `W` wide whose cells are left-aligned, `>W name` for
/// right-aligned cells. A table without rows is left out.
fn table(out: &mut String, title: &str, cols: &str, rows: impl IntoIterator<Item = Vec<String>>) {
    let cols: Vec<(&str, &str)> =
        cols.split('|').map(|c| c.split_once(' ').unwrap_or((c, ""))).collect();
    let mut rows = rows.into_iter().peekable();
    if rows.peek().is_none() {
        return;
    }
    let _ = writeln!(out, "\n{title}:");
    let header = cols.iter().map(|&(_, name)| name.to_string()).collect();
    for cells in std::iter::once(header).chain(rows) {
        let padded: Vec<String> = (cells.iter().zip(&cols))
            .map(|(c, &(spec, _))| {
                let width: usize =
                    spec[1..].parse().expect("a column spec is `<W name` or `>W name`");
                if spec.starts_with('<') {
                    format!("{c:<width$}")
                } else {
                    format!("{c:>width$}")
                }
            })
            .collect();
        let _ = writeln!(out, "{}", padded.join(" "));
    }
}

/// Renders the summary as the `fedgta-cli report` terminal tables.
pub fn render_report(s: &TraceSummary) -> String {
    let mut out = format!(
        "trace: {} span events, {} rounds, {} clients, {} metrics\n",
        s.span_events,
        s.rounds.len(),
        s.clients.len(),
        s.metrics.len()
    );
    let or_dash = |s: &str| if s.is_empty() { "-".to_string() } else { s.to_string() };
    let n = |x: u64| x.to_string();

    table(
        &mut out,
        "per-round breakdown (ms)",
        "<6 round|<14 strategy|>6 parts|>4 ok|>5 drop|>4 rty|>10 total|>10 train|>10 aggregate|>10 eval|>10 up|>10 down",
        s.rounds.iter().map(|r| {
            let mut row = vec![n(r.round), or_dash(&r.strategy)];
            row.extend([r.participants, r.completed, r.dropped, r.retries].map(n));
            row.extend([r.total_ns, r.train_ns, r.aggregate_ns, r.eval_ns].map(fmt_ms));
            row.extend([r.bytes_up, r.bytes_down].map(fmt_bytes));
            row
        }),
    );

    table(
        &mut out,
        "FedGTA decisions (Eq. 6 sets, Eq. 7 inputs)",
        "<6 round|>6 parts|>9 epsilon|>13 members_mean|>13 sim_above_eps|>9 rejected",
        s.rounds.iter().filter_map(|r| {
            let d = r.decision?;
            Some(vec![
                n(r.round),
                n(r.completed),
                format!("{:.4}", d.epsilon),
                format!("{:.2}", d.members_mean),
                format!("{:.3}", d.sim_above_eps),
                n(d.rejected),
            ])
        }),
    );

    table(
        &mut out,
        "per-client local training (ms)",
        "<8 client|>7 rounds|>10 p50|>10 p95|>10 max",
        s.clients.iter().map(|c| stat_row(n(c.key), &c.stats)),
    );

    table(
        &mut out,
        "per-strategy rounds",
        "<16 strategy|>7 rounds|>10 p50 ms|>10 p95 ms|>10 max ms|>10 upload|>12 throughput",
        s.strategies.iter().map(|st| {
            let secs = st.stats.total_ns as f64 / 1e9;
            let rate = st.bytes_up.saturating_add(st.bytes_down) as f64 / secs;
            let thr = if secs > 0.0 {
                format!("{}/s", fmt_bytes(rate.round() as u64))
            } else {
                "-".into()
            };
            let mut row = stat_row(or_dash(&st.key), &st.stats);
            row.extend([fmt_bytes(st.bytes_up), thr]);
            row
        }),
    );

    // Codec effect per wire leg: the raw/encoded byte counters the
    // transport meters on every coded round (identity codec ⇒ equal,
    // reduction 1×). The download row appears only when a download codec
    // actually framed broadcasts — plain broadcasts never become wire
    // bytes.
    let legs = [
        ("uploads", "comms.upload_bytes_raw", "comms.upload_bytes_encoded"),
        ("downloads", "comms.download_bytes_raw", "comms.download_bytes_encoded"),
    ];
    let legs = legs.iter().filter_map(|&(leg, raw, enc)| match (s.metric(raw), s.metric(enc)) {
        (Some(r), Some(e)) if r > 0 => {
            let reduction = format!("{:.2}x", r as f64 / e.max(1) as f64);
            Some(vec![leg.to_string(), fmt_bytes(r), fmt_bytes(e), reduction])
        }
        _ => None,
    });
    table(&mut out, "codec (wire bytes)", "<10 leg|<12 raw|<12 encoded|>9 reduction", legs);

    // Peak-memory gauges: the budgets scale runs are graded against.
    let kits = format!("worker kits (x{})", s.metric("fed.kits.instances").unwrap_or(0));
    let peaks: Vec<(&str, u64)> = [
        ("graph.store.resident_bytes", "graph store resident peak"),
        ("workspace.high_water_bytes", "workspace high-water peak"),
        ("fedgta.metric_scratch.bytes", "FedGTA metric scratch pool"),
        ("fed.kits.bytes", kits.as_str()),
        ("fed.clients.bytes", "client data, params, state"),
        ("fed.store.bytes", "server model store slots"),
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

    table(
        &mut out,
        &format!("span summary (ms), by self time; self% of {} ms wall", fmt_ms(s.wall_ns)),
        "<20 span|>7 count|>10 p50|>10 p95|>10 max|>12 total|>12 self ms|>7 self%",
        s.span_stats.iter().map(|sp| {
            let pct =
                if s.wall_ns > 0 { 100.0 * sp.self_ns as f64 / s.wall_ns as f64 } else { 0.0 };
            let mut row = stat_row(sp.key.clone(), &sp.stats);
            row.extend([fmt_ms(sp.stats.total_ns), fmt_ms(sp.self_ns), format!("{pct:.1}%")]);
            row
        }),
    );

    table(
        &mut out,
        "metrics at flush",
        "<32 name|<10 kind|>14 value|>9 count|>10 p50|>10 p95",
        s.metrics.iter().filter_map(|m| match m {
            TraceEvent::Metric { name, kind, value, count, p50, p95, .. } => {
                let mut row = vec![name.clone(), kind.clone()];
                row.extend([*value, *count, *p50, *p95].map(n));
                Some(row)
            }
            _ => None,
        }),
    );
    out
}

/// The cells every duration table starts a row with: the key, the
/// sample count, then p50, p95 and max in ms.
fn stat_row(key: String, d: &DurStats) -> Vec<String> {
    let mut row = vec![key, d.count.to_string()];
    row.extend([d.p50_ns, d.p95_ns, d.max_ns].map(fmt_ms));
    row
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
            TraceEvent::Metric { name, kind, value, count, .. } => {
                metrics.push(match kind.as_str() {
                    "counter" => format!("  counter   {name} = {value}"),
                    "histogram" => format!("  histogram {name} ({count} samples)"),
                    _ => format!("  {kind:<9} {name} (value omitted: thread-dependent)"),
                })
            }
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
        let m =
            parse_flat_object(r#"{"a":1,"b":-2.5,"c":"x\"y","d":null,"e":true,"f":false,"g":1e3}"#)
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
        assert_eq!(s.clients[0].key, 0);
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
        let s = summarize(&parse_trace(&sample_trace()).unwrap());
        // round dur 700, children 400+50+25 ⇒ self 225. train's children
        // sum to exactly its duration ⇒ self 0.
        let row = |name: &str| s.span_stats.iter().find(|r| r.key == name).unwrap();
        assert_eq!(row("round").self_ns, 225);
        assert_eq!(row("round").stats.total_ns, 700);
        assert_eq!(row("train").self_ns, 0);
        assert_eq!(row("client_train").self_ns, 400);
        assert_eq!(s.wall_ns, 700, "one root span");
        // Rows are sorted by self time descending, then by name.
        let keys: Vec<&str> = s.span_stats.iter().map(|r| r.key.as_str()).collect();
        assert_eq!(keys, ["client_train", "round", "aggregate", "eval", "train"]);
        let folded = render_folded(&s);
        assert!(folded.contains("round;train;client_train 400\n"));
        assert!(folded.contains("round 225\n"));
        assert!(!folded.contains("round;train 0"), "zero-weight paths omitted");
        let table = render_report(&s);
        assert!(table.contains("self ms") && table.contains("self%"), "{table}");
        assert!(table.contains("57.1%"), "client_train's 400 of 700 ns wall:\n{table}");
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
        assert!(
            rendered.contains("worker kits (x2)") && rendered.contains("3072.0KiB"),
            "{rendered}"
        );
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
            let s = summarize(&events);
            assert!(render_report(&s).contains("train"));
            assert_eq!(s.span_stats[0].self_ns, 0, "each span of a cycle is the other's child");
        }
    }

    #[test]
    fn hostile_durations_saturate_every_total() {
        let span = |name: &str, id, parent, dur: &str| {
            format!("{{\"ev\":\"span\",\"name\":\"{name}\",\"id\":{id},\"parent\":{parent},\"dur_ns\":{dur},\"round\":1,\"strategy\":\"S\",\"bytes_up\":1e19}}\n")
        };
        let mut t = span("train", 2, 1, "1e19") + &span("train", 3, 1, "1e19");
        t += &span("round", 1, 0, "1e19");
        t += &span("round", 4, 0, "1e19");
        let (events, damaged) = parse_events(&t);
        assert!(damaged.is_empty(), "{damaged:?}");
        let s = summarize(&events);
        assert_eq!(s.rounds[0].train_ns, u64::MAX);
        let train = s.span_stats.iter().find(|r| r.key == "train").unwrap();
        assert_eq!(train.stats.total_ns, u64::MAX);
        assert_eq!(s.wall_ns, u64::MAX);
        assert_eq!(s.strategies[0].bytes_up, u64::MAX);
        assert_eq!(s.strategies[0].stats.total_ns, u64::MAX);
        assert!(render_report(&s).contains("train"));
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
