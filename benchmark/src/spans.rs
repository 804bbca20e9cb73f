//! In-memory spans recorded by the staged driver around its calls into
//! each layer, and the self-time arithmetic over them.
//!
//! Spans live in a `Vec` until the run ends (no I/O while measuring) and
//! are written as JSONL afterwards. A stage's *self time* is its span's
//! duration minus the part of that interval its child spans cover.

use std::io::Write as _;
use std::time::Instant;

/// No parent / no client.
pub const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u32,
    /// Id of the span that caused this one ([`NONE`] for a round root).
    pub parent: u32,
    /// Round number: the identifier every span of one round shares.
    pub round: u32,
    pub client: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The name of the per-round root span.
pub const ROUND: &str = "round";

pub struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    round: u32,
}

impl Default for Recorder {
    /// An empty recorder whose clock starts now.
    fn default() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            round: 0,
        }
    }
}

impl Recorder {
    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens the root span of `round`; every span until its exit carries
    /// that round number.
    pub fn enter_round(&mut self, round: u32) -> u32 {
        self.round = round;
        self.enter(ROUND, NONE)
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, client: u32) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NONE);
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            id,
            parent,
            round: self.round,
            client,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: u32) {
        let end = self.now();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost-first"
        );
        self.spans[id as usize].end_ns = end;
    }

    /// Times `f` as a span.
    pub fn span<R>(&mut self, name: &'static str, client: u32, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, client);
        let r = f();
        self.exit(id);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            write!(
                w,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"round\":{}",
                s.name, s.start_ns, s.end_ns, s.id, s.round
            )?;
            if s.parent != NONE {
                write!(w, ",\"parent\":{}", s.parent)?;
            }
            if s.client != NONE {
                write!(w, ",\"client\":{}", s.client)?;
            }
            writeln!(w, "}}")?;
        }
        w.flush()
    }
}

/// Self time of every span, indexed by span id: duration minus the
/// union of its direct children's intervals clipped to the span (so
/// overlapping or adjacent children are never counted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NONE {
            let p = &spans[s.parent as usize];
            let (a, b) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if a < b {
                children[s.parent as usize].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            id,
            parent,
            round: 1,
            client: NONE,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children_once() {
        let spans = vec![
            span(0, NONE, 0, 100), // root
            span(1, 0, 10, 40),    // child
            span(2, 0, 40, 60),    // adjacent sibling
            span(3, 1, 15, 25),    // grandchild: charged to span 1 only
            span(4, 0, 55, 70),    // overlaps span 2 by 5
            span(5, 0, 90, 120),   // runs past the parent: clipped to 10
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 100 - (30 + 20 + 10 + 10));
        assert_eq!(st[1], 30 - 10);
        assert_eq!(st[2], 20);
        assert_eq!(st[3], 10);
        // Every nanosecond of the root is charged to exactly one span
        // (the clipped and overlapping ones aside).
        assert_eq!(self_times(&spans[..4]).iter().sum::<u64>(), 100);
    }

    #[test]
    fn recorder_nests_by_open_stack_and_tags_the_round() {
        let mut r = Recorder::default();
        let root = r.enter_round(7);
        let v = r.span("a", 3, || std::hint::black_box(1 + 1));
        assert_eq!(v, 2);
        let b = r.enter("b", NONE);
        r.span("c", NONE, || ());
        r.exit(b);
        r.exit(root);
        let s = r.spans();
        assert_eq!(s.len(), 4);
        assert_eq!((s[0].name, s[0].parent, s[0].round), (ROUND, NONE, 7));
        assert_eq!((s[1].name, s[1].parent, s[1].client), ("a", root, 3));
        assert_eq!((s[3].name, s[3].parent, s[3].round), ("c", b, 7));
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));
        assert!(s[0].end_ns >= s[3].end_ns);
    }
}
