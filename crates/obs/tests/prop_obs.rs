//! Property-based tests for the observability layer.
//!
//! The interesting invariants are concurrency-shaped: counters must sum
//! exactly under interleaved increments from many threads, histograms
//! must conserve their sample count across buckets, and quantiles must
//! be monotone in `q`. Each case draws a random workload (thread count,
//! per-thread increment schedule) and checks the aggregate.

use fedgta_obs::metrics::{bucket_index, bucket_upper, HIST_BUCKETS};
use fedgta_obs::{parse_events, set_level, JsonVal, ObsLevel, Registry, TraceEvent};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Serializes tests that flip the process-global obs level.
static LEVEL_LOCK: Mutex<()> = Mutex::new(());

fn with_metrics_on<R>(f: impl FnOnce() -> R) -> R {
    let _g = LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    set_level(ObsLevel::Metrics);
    let r = f();
    set_level(ObsLevel::Off);
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Interleaved counter increments from N threads, each adding a
    /// random schedule of deltas through its own cloned handle, must sum
    /// exactly — no lost updates, no double counts.
    #[test]
    fn registry_counters_sum_under_concurrency(
        schedules in proptest::collection::vec(
            proptest::collection::vec(0u64..1000, 1..50),
            1..8,
        ),
    ) {
        let expected: u64 = schedules.iter().flatten().sum();
        let got = with_metrics_on(|| {
            let reg = Registry::new();
            std::thread::scope(|scope| {
                for sched in &schedules {
                    let handle = reg.counter("prop.concurrent");
                    scope.spawn(move || {
                        for &d in sched {
                            handle.add(d);
                        }
                    });
                }
            });
            reg.counter("prop.concurrent").get()
        });
        prop_assert_eq!(got, expected);
    }

    /// A high-water gauge driven from several threads ends at the global
    /// maximum of everything ever offered to it.
    #[test]
    fn gauge_high_water_is_global_max(
        offers in proptest::collection::vec(
            proptest::collection::vec(0u64..1_000_000, 1..30),
            1..6,
        ),
    ) {
        let expected = offers.iter().flatten().copied().max().unwrap_or(0);
        let got = with_metrics_on(|| {
            let reg = Registry::new();
            std::thread::scope(|scope| {
                for per_thread in &offers {
                    let g = reg.gauge("prop.hwm");
                    scope.spawn(move || {
                        for &v in per_thread {
                            g.set_max(v);
                        }
                    });
                }
            });
            reg.gauge("prop.hwm").get()
        });
        prop_assert_eq!(got, expected);
    }

    /// Histograms conserve mass: bucket counts sum to `count()`, the sum
    /// and max match the samples exactly, and every sample landed in the
    /// bucket whose bounds contain it.
    #[test]
    fn histogram_conserves_samples(
        samples in proptest::collection::vec(0u64..(1u64 << 50), 1..200),
    ) {
        let (counts, count, sum, max) = with_metrics_on(|| {
            let reg = Registry::new();
            let h = reg.histogram("prop.hist");
            for &s in &samples {
                h.observe(s);
            }
            (h.bucket_counts(), h.count(), h.sum(), h.max())
        });
        prop_assert_eq!(counts.iter().sum::<u64>(), samples.len() as u64);
        prop_assert_eq!(count, samples.len() as u64);
        prop_assert_eq!(sum, samples.iter().sum::<u64>());
        prop_assert_eq!(max, samples.iter().copied().max().unwrap());
        for &s in &samples {
            let i = bucket_index(s);
            prop_assert!(i < HIST_BUCKETS);
            prop_assert!(s < bucket_upper(i) || i == HIST_BUCKETS - 1);
            if i > 1 {
                // Lower bound of bucket i is its predecessor's upper bound.
                prop_assert!(s >= bucket_upper(i - 1));
            }
        }
    }

    /// Quantiles are monotone in q and never exceed the exact maximum.
    #[test]
    fn histogram_quantiles_are_monotone(
        samples in proptest::collection::vec(0u64..1_000_000, 1..100),
        qs in proptest::collection::vec(0.0f64..=1.0, 2..10),
    ) {
        let quantiles = with_metrics_on(|| {
            let reg = Registry::new();
            let h = reg.histogram("prop.q");
            for &s in &samples {
                h.observe(s);
            }
            let mut sorted_q = qs.clone();
            sorted_q.sort_by(|a, b| a.partial_cmp(b).unwrap());
            sorted_q.iter().map(|&q| h.quantile(q)).collect::<Vec<_>>()
        });
        let max = samples.iter().copied().max().unwrap();
        prop_assert!(quantiles.windows(2).all(|w| w[0] <= w[1]));
        prop_assert!(quantiles.iter().all(|&v| v <= max));
    }

    /// Snapshot reflects exactly what was recorded, per metric kind, and
    /// registry handles are shared: re-requesting a name hits the same
    /// underlying atomic.
    #[test]
    fn snapshot_roundtrips_recorded_values(
        c_val in 0u64..10_000,
        g_val in 0u64..10_000,
        h_samples in proptest::collection::vec(1u64..100_000, 1..50),
    ) {
        let snap = with_metrics_on(|| {
            let reg = Registry::new();
            reg.counter("a.counter").add(c_val);
            reg.gauge("b.gauge").set(g_val);
            for &s in &h_samples {
                reg.histogram("c.hist").observe(s);
            }
            reg.snapshot()
        });
        prop_assert_eq!(snap.len(), 3);
        prop_assert_eq!(snap[0].value, c_val);
        prop_assert_eq!(snap[1].value, g_val);
        prop_assert_eq!(snap[2].count, h_samples.len() as u64);
        prop_assert_eq!(snap[2].value, h_samples.iter().sum::<u64>());
        prop_assert_eq!(snap[2].max, h_samples.iter().copied().max().unwrap());
    }
}

// --- fuzzing the hand-rolled JSONL trace parser ----------------------------
//
// The parser reads operator-supplied files (`fedgta-cli report <path>`,
// traces and postmortem dumps alike), so hostile or damaged input must *error*, never
// panic or loop: truncated lines, invalid `\u` escapes, overlong numbers,
// interleaved garbage. And the lossy reader must still recover every
// valid line around the damage.

/// One well-formed trace: header, a span, a metric, the end marker.
fn valid_trace_lines() -> Vec<String> {
    vec![
        format!("{{\"ev\":\"meta\",\"schema\":\"{}\"}}", fedgta_obs::TRACE_SCHEMA),
        "{\"ev\":\"span\",\"name\":\"round\",\"id\":1,\"parent\":0,\"tid\":1,\"ts_ns\":5,\"dur_ns\":700,\"round\":1,\"strategy\":\"FedAvg\"}".to_string(),
        "{\"ev\":\"metric\",\"name\":\"comms.upload_bytes\",\"kind\":\"counter\",\"value\":9,\"count\":0,\"p50\":0,\"p95\":0,\"max\":0}".to_string(),
        "{\"ev\":\"end\"}".to_string(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes through every parser entry point: any outcome but
    /// a clean `Ok`/`Err` return (panic, hang) fails the case.
    #[test]
    fn parser_survives_arbitrary_bytes(bytes in proptest::collection::vec(0u8..255, 0..256)) {
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let _ = fedgta_obs::parse_flat_object(&text);
        let _ = fedgta_obs::parse_trace(&text);
        let (_events, _errors) = fedgta_obs::parse_events(&text);
    }

    /// Every strict prefix of a valid line is an error (the closing brace
    /// is gone), and never a panic — the truncated-tail case of a crash
    /// mid-write.
    #[test]
    fn truncated_lines_error_cleanly(line_idx in 0usize..4, cut in 0usize..200) {
        let line = &valid_trace_lines()[line_idx];
        // Truncate on a char boundary strictly inside the line (at least
        // one char survives so the damaged tail is a real line).
        let mut cut = cut.clamp(1, line.len() - 1);
        while !line.is_char_boundary(cut) {
            cut -= 1;
        }
        let truncated = &line[..cut];
        prop_assert!(fedgta_obs::parse_flat_object(truncated).is_err(), "accepted {truncated:?}");
        // A trace whose last line is truncated: strict errors, lossy
        // keeps everything before the damage.
        let mut text = valid_trace_lines().join("\n");
        text.push('\n');
        text.push_str(truncated);
        prop_assert!(fedgta_obs::parse_trace(&text).is_err());
        let (events, errors) = fedgta_obs::parse_events(&text);
        prop_assert_eq!(events.len(), 4);
        prop_assert_eq!(errors.len(), 1);
    }

    /// `\u` escapes with non-hex payloads or short payloads must error;
    /// well-formed ones must parse. Either way: no panic, no surrogate
    /// crash (lone surrogates decode to U+FFFD).
    #[test]
    fn unicode_escapes_never_panic(payload in proptest::collection::vec(0u8..128, 0..6)) {
        let esc: String = payload.iter().map(|&b| b as char).collect();
        let esc: String = esc.chars().filter(|c| *c != '"' && *c != '\\' && !c.is_control()).collect();
        let line = format!("{{\"k\":\"a\\u{esc}b\"}}");
        let parsed = fedgta_obs::parse_flat_object(&line);
        let hex_ok = esc.len() >= 4 && esc.as_bytes()[..4].iter().all(|b| b.is_ascii_hexdigit());
        if hex_ok {
            prop_assert!(parsed.is_ok(), "rejected well-formed escape {line:?}");
        } else {
            prop_assert!(parsed.is_err(), "accepted malformed escape {line:?}");
        }
    }

    /// Overlong numbers — huge digit strings and overflow exponents —
    /// are malformed JSON values here (f64 would read them as inf), so
    /// they error; ordinary large u64s still parse.
    #[test]
    fn overlong_numbers_error_cleanly(digits in 1usize..400, exp in 0u32..4000) {
        let long = format!("{{\"n\":{}}}", "9".repeat(digits));
        let parsed = fedgta_obs::parse_flat_object(&long);
        if digits > 308 {
            prop_assert!(parsed.is_err(), "accepted {digits}-digit number");
        } else {
            prop_assert!(parsed.is_ok());
        }
        let exp_line = format!("{{\"n\":1e{exp}}}");
        let parsed = fedgta_obs::parse_flat_object(&exp_line);
        if exp > 308 {
            prop_assert!(parsed.is_err(), "accepted 1e{exp}");
        } else {
            prop_assert!(parsed.is_ok());
        }
        prop_assert!(fedgta_obs::parse_flat_object(&format!("{{\"n\":{}}}", u64::MAX)).is_ok());
    }

    /// Garbage lines interleaved at arbitrary positions: the strict
    /// parser rejects the file, the lossy parser recovers exactly the
    /// valid events and reports exactly the garbage lines.
    #[test]
    fn interleaved_garbage_is_isolated_by_lossy_parse(
        positions in proptest::collection::vec(0usize..5, 1..4),
        junk in proptest::collection::vec(32u8..127, 0..40),
    ) {
        // '}' first guarantees the line can never be a valid object.
        let garbage: String = format!("}}{}", String::from_utf8_lossy(&junk));
        let valid = valid_trace_lines();
        let mut lines: Vec<&str> = valid.iter().map(String::as_str).collect();
        let mut inserted = 0;
        for &p in &positions {
            lines.insert(p.min(lines.len()), &garbage);
            inserted += 1;
        }
        let text = lines.join("\n");
        prop_assert!(fedgta_obs::parse_trace(&text).is_err());
        let (events, errors) = fedgta_obs::parse_events(&text);
        prop_assert_eq!(events.len(), valid.len(), "all valid lines recovered");
        prop_assert_eq!(errors.len(), inserted, "every garbage line reported");
        prop_assert!(events.iter().any(|e| matches!(e, fedgta_obs::TraceEvent::End)));
    }
}

// --- the one writer and the one reader agree ------------------------------

/// String pieces that stress the escaper: quotes, backslashes, control
/// characters, non-ASCII text, and literal `\u` sequences that must stay
/// text rather than be decoded.
const PIECES: [&str; 14] = [
    "a", "Z9", "\"", "\\", "\n", "\t", "\r", "\u{1}", "\u{1f}", "é", "→😀", "\\u00e9", "\\u", " /",
];

/// Field values; the non-finite ones must come back `null`.
const FLOATS: [f64; 10] =
    [0.5, -2.25, 0.0, 1e300, 5e-324, f64::MAX, -1e-7, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every variant goes through `TraceEvent::to_json` as one line and
    /// comes back from `parse_events` unchanged: strings byte for byte,
    /// integers below 2^53 exactly (zero is left out and read as 0),
    /// finite floats exactly, non-finite floats as `null`.
    #[test]
    fn every_event_round_trips_through_the_one_writer_and_reader(
        pieces in proptest::collection::vec(proptest::collection::vec(0usize..PIECES.len(), 0..8), 6),
        raw in proptest::collection::vec((0u64..3, 0u64..(1u64 << 53)), 8),
        values in proptest::collection::vec(0usize..FLOATS.len() + 2, 0..5),
        some in (any::<bool>(), any::<bool>()),
    ) {
        let s: Vec<String> = pieces.iter().map(|ix| ix.iter().map(|&i| PIECES[i]).collect()).collect();
        let n: Vec<u64> = raw.iter().map(|&(z, v)| if z == 0 { 0 } else { v }).collect();
        let (mut fields, mut read_back) = (BTreeMap::new(), BTreeMap::new());
        for (i, &v) in values.iter().enumerate() {
            let (value, back) = match FLOATS.get(v) {
                Some(&f) if f.is_finite() => (JsonVal::Num(f), JsonVal::Num(f)),
                Some(&f) => (JsonVal::Num(f), JsonVal::Null),
                None if v == FLOATS.len() => (JsonVal::Str(s[i].clone()), JsonVal::Str(s[i].clone())),
                None => (JsonVal::Null, JsonVal::Null),
            };
            fields.insert(format!("f{i}.{}", s[5 - i]), value);
            read_back.insert(format!("f{i}.{}", s[5 - i]), back);
        }
        let span = |fields| TraceEvent::Span {
            name: s[2].clone(), id: n[0], parent: n[1], tid: n[2], ts_ns: n[3], dur_ns: n[4], fields,
        };
        let events = [
            TraceEvent::Meta {
                schema: s[0].clone(), reason: some.0.then(|| s[1].clone()), round: n[0], fault_seed: n[1],
            },
            span(fields),
            TraceEvent::Metric {
                name: s[3].clone(), kind: s[4].clone(), value: n[0], count: n[5], p50: n[6], p95: n[7], max: n[2],
            },
            TraceEvent::Fault { round: n[3], client: some.1.then_some(n[5]), kind: s[5].clone(), sim_ms: n[6] },
            TraceEvent::Note { name: s[1].clone(), round: n[7], value: n[4] },
            TraceEvent::End,
        ];
        let lines: Vec<String> = events.iter().map(TraceEvent::to_json).collect();
        // One event, one line — and no raw control character anywhere.
        prop_assert!(lines.iter().all(|l| l.chars().all(|c| c >= ' ')), "{lines:?}");
        let (back, damaged) = parse_events(&lines.join("\n"));
        prop_assert!(damaged.is_empty(), "{damaged:?}");
        let mut expected = events.to_vec();
        expected[1] = span(read_back);
        prop_assert_eq!(back, expected);
    }
}
