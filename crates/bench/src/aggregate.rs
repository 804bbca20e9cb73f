//! Server-round microbenchmark: the parallel, allocation-free
//! personalized aggregation path (Eqs. 6–7), run by `repro aggregate
//! [--full]`, which installs the counting allocator (re-take the committed
//! file with `--full --out BENCH_AGGREGATE.json`).
//!
//! The grid follows the server hot path: participants `n ∈ {8, 32, 128}`
//! (one `ClientUpload` each) × flat parameter length `plen ∈ {1e4, 1e5}`
//! (SGC-head … MLP-head scale), each cell timed through
//! [`fedgta::personalized_aggregate_into`] at 1 and 4 worker threads.
//! Every cell also asserts the two thread counts produce **bit-identical**
//! outputs — the determinism contract is checked on the exact buffers the
//! timing loop touched, not a toy shape. Quick mode shrinks the grid so CI
//! can smoke the pipeline in well under a second. [`bars`] holds what a
//! run must meet.

use crate::kernels::{AllocCounter, Timing};
use fedgta::{AggregateOptions, ClientUpload, SimilarityKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One timed cell: a `(participants, plen, threads)` triple.
#[derive(Debug, Clone)]
pub struct AggregateResult {
    /// Participating clients `n` (similarity is `n²`, Eq. 7 is `n` rows).
    pub participants: usize,
    /// Flat parameter vector length per client.
    pub plen: usize,
    /// Worker threads requested for this cell.
    pub threads: usize,
    /// Wall time per full `personalized_aggregate_into` call (ns).
    pub ns_per_call: f64,
    /// Effective axpy bandwidth: bytes of member parameters streamed per
    /// second (GB/s), `4·Σᵢ|Iᵢ|·plen / t` — the Eq. 7 loop is
    /// memory-bound, so this is the honest throughput axis.
    pub gbps: f64,
    /// Heap allocations per warm call with recycled output buffers
    /// (`None` when the host binary has no counting allocator). Warm
    /// calls still pay O(n) bookkeeping (member lists, similarity rows)
    /// but **no parameter-sized allocations** — the binary enforces that
    /// this count does not change with `plen`.
    pub allocs_per_call: Option<u64>,
}

/// The full report.
#[derive(Debug, Clone)]
pub struct AggregateReport {
    /// `"quick"` or `"full"`.
    pub mode: &'static str,
    /// Hardware threads the host reports (`available_parallelism`).
    pub cores: usize,
    /// All timed cells.
    pub results: Vec<AggregateResult>,
    /// `ns(1 thread) ÷ ns(4 threads)` at the headline shape.
    pub speedup_4v1: f64,
    /// The `(participants, plen)` the speedup headline is measured at.
    pub headline: (usize, usize),
    /// Whether every cell's 4-thread output was bitwise equal to its
    /// 1-thread output (hard-asserted during the run; recorded for the
    /// JSON artifact).
    pub bit_identical: bool,
}

/// Deterministic synthetic uploads: `n` clients with `plen` parameters,
/// 60-float moment sketches in two loose clusters (so the ε-filter keeps
/// some pairs apart and the member sets are non-trivial), and positive
/// confidences.
struct Uploads {
    params: Vec<Vec<f32>>,
    moments: Vec<Vec<f32>>,
    confidence: Vec<f64>,
}

impl Uploads {
    fn synth(n: usize, plen: usize, rng: &mut StdRng) -> Self {
        const SKETCH: usize = 60; // k=5 steps × K=2 orders × |Y|=6 classes
        let mut params = Vec::with_capacity(n);
        let mut moments = Vec::with_capacity(n);
        let mut confidence = Vec::with_capacity(n);
        for i in 0..n {
            params.push((0..plen).map(|_| rng.random::<f32>() - 0.5).collect());
            // Two cluster centers ± per-client jitter.
            let center = if i % 2 == 0 { 1.0f32 } else { -1.0 };
            moments.push(
                (0..SKETCH)
                    .map(|j| center * (1.0 + j as f32 * 0.01) + 0.2 * (rng.random::<f32>() - 0.5))
                    .collect(),
            );
            confidence.push(0.5 + rng.random::<f64>());
        }
        Self { params, moments, confidence }
    }

    fn views(&self) -> Vec<ClientUpload<'_>> {
        (0..self.params.len())
            .map(|i| ClientUpload {
                params: &self.params[i],
                confidence: self.confidence[i],
                moments: &self.moments[i],
                n_train: 10 + i,
            })
            .collect()
    }
}

struct Grid {
    participants: Vec<usize>,
    plens: Vec<usize>,
    timing: Timing,
}

impl Grid {
    fn new(quick: bool) -> Self {
        if quick {
            Self {
                participants: vec![8],
                plens: vec![4_096],
                timing: Timing::Grid { min_ns: 0, max_calls: 1 },
            }
        } else {
            Self {
                participants: vec![8, 32, 128],
                plens: vec![10_000, 100_000],
                timing: Timing::Grid { min_ns: 100_000_000, max_calls: 40 },
            }
        }
    }
}

/// Runs the suite. `quick` is the CI smoke grid; `counter` enables
/// allocation counting when the host binary installed [`crate::alloc`].
pub fn run(quick: bool, counter: Option<AllocCounter>) -> AggregateReport {
    let grid = Grid::new(quick);
    let headline = if quick { (grid.participants[0], grid.plens[0]) } else { (32, 100_000) };
    let opts = AggregateOptions {
        epsilon: 0.0,
        epsilon_quantile: None,
        similarity: SimilarityKind::Cosine,
        use_moments: true,
        use_confidence: true,
    };
    let mut rng = StdRng::seed_from_u64(0xa99_4e64);
    let mut results = Vec::new();
    let (mut headline_1t, mut headline_4t) = (f64::NAN, f64::NAN);
    let mut bit_identical = true;

    for &n in &grid.participants {
        for &plen in &grid.plens {
            let uploads = Uploads::synth(n, plen, &mut rng);
            let views = uploads.views();
            // Streamed member-parameter bytes per call: Σᵢ 4·|Iᵢ|·plen.
            let probe = fedgta::personalized_aggregate(&views, &opts);
            let member_total: usize = probe.1.entries.iter().map(|e| e.members.len()).sum();
            let bytes = 4.0 * member_total as f64 * plen as f64;
            let mut reference: Option<Vec<Vec<f32>>> = None;

            for threads in [1usize, 4] {
                // Recycled output buffers: warm calls must not allocate
                // parameter-sized memory.
                let mut out: Vec<Vec<f32>> = Vec::new();
                fedgta::personalized_aggregate_into(&views, &opts, threads, &mut out);
                let (ns, allocs) = grid.timing.measure(counter, || {
                    fedgta::personalized_aggregate_into(&views, &opts, threads, &mut out);
                });
                // Determinism contract: bit-identical at any thread count.
                match &reference {
                    None => reference = Some(out.clone()),
                    Some(want) => {
                        let same = want.iter().zip(&out).all(|(a, b)| {
                            a.len() == b.len()
                                && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
                        });
                        assert!(
                            same,
                            "aggregate at n={n} plen={plen}: {threads}-thread output \
                             differs bitwise from 1-thread"
                        );
                        bit_identical &= same;
                    }
                }
                if (n, plen) == headline {
                    if threads == 1 {
                        headline_1t = ns;
                    } else {
                        headline_4t = ns;
                    }
                }
                results.push(AggregateResult {
                    participants: n,
                    plen,
                    threads,
                    ns_per_call: ns,
                    gbps: bytes / ns,
                    allocs_per_call: allocs,
                });
            }
        }
    }

    AggregateReport {
        mode: if quick { "quick" } else { "full" },
        cores: std::thread::available_parallelism().map_or(1, |c| c.get()),
        results,
        speedup_4v1: headline_1t / headline_4t,
        headline,
        bit_identical,
    }
}

/// What a run must meet: warm-call allocation counts independent of the
/// parameter length at every `(participants, threads)`, every cell
/// bit-identical across thread counts, and — in full mode, on a host with
/// the four hardware threads the comparison uses — 4 threads at least 2×
/// faster than 1 at the headline shape. With fewer the ratio is reported
/// only: the headline cell is bandwidth-bound on one thread.
pub fn bars(r: &AggregateReport) -> Result<(), String> {
    for a in &r.results {
        for b in &r.results {
            let same_cell = a.participants == b.participants && a.threads == b.threads;
            if same_cell && a.plen < b.plen && a.allocs_per_call != b.allocs_per_call {
                return Err(format!(
                    "warm-call allocations scale with plen at n={} threads={}: {:?} at plen={} vs {:?} at plen={}",
                    a.participants, a.threads, a.allocs_per_call, a.plen, b.allocs_per_call, b.plen
                ));
            }
        }
    }
    if !r.bit_identical {
        return Err("thread counts disagreed bitwise".into());
    }
    if r.mode == "full" && r.cores >= 4 && r.speedup_4v1 < 2.0 {
        return Err(format!(
            "4-thread aggregate only {:.2}x the 1-thread time at n={} plen={} on a {}-core host (need >= 2.0x)",
            r.speedup_4v1, r.headline.0, r.headline.1, r.cores
        ));
    }
    Ok(())
}

/// Hand-rolled JSON (the workspace has no serialization dependency, so
/// the report serializes itself). Floats route through
/// [`crate::format::json_fixed`] so a NaN cell (e.g. a timing ratio on a degenerate grid) renders as
/// `null` instead of breaking the parser.
pub fn to_json(r: &AggregateReport) -> String {
    use crate::format::{json_fixed, json_opt, json_rows, json_str};
    let mut s = String::with_capacity(2048);
    s.push_str("{\n");
    s.push_str(&format!("  \"mode\": {},\n", json_str(r.mode)));
    s.push_str(&format!("  \"cores\": {},\n", r.cores));
    s.push_str(&format!(
        "  \"headline\": {{\"participants\": {}, \"plen\": {}}},\n",
        r.headline.0, r.headline.1
    ));
    s.push_str(&format!("  \"speedup_4v1\": {},\n", json_fixed(r.speedup_4v1, 3)));
    s.push_str(&format!("  \"bit_identical\": {},\n", r.bit_identical));
    json_rows(&mut s, "results", &r.results, |c| {
        [
            ("participants", c.participants.to_string()),
            ("plen", c.plen.to_string()),
            ("threads", c.threads.to_string()),
            ("ns_per_call", json_fixed(c.ns_per_call, 0)),
            ("gbps", json_fixed(c.gbps, 4)),
            ("allocs_per_call", json_opt(c.allocs_per_call)),
        ]
    });
    s.push_str("\n}\n");
    s
}

/// Plain-text table for terminal output.
pub fn render_table(r: &AggregateReport) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "aggregate bench ({} mode, {} core{})\n",
        r.mode,
        r.cores,
        if r.cores == 1 { "" } else { "s" }
    ));
    s.push_str(&format!(
        "{:>12} {:>8} {:>8} {:>12} {:>8} {:>8}\n",
        "participants", "plen", "threads", "us/call", "GB/s", "allocs"
    ));
    for c in &r.results {
        let allocs = c.allocs_per_call.map_or_else(|| "-".to_string(), |a| a.to_string());
        s.push_str(&format!(
            "{:>12} {:>8} {:>8} {:>12.1} {:>8.3} {:>8}\n",
            c.participants,
            c.plen,
            c.threads,
            c.ns_per_call / 1_000.0,
            c.gbps,
            allocs
        ));
    }
    s.push_str(&format!(
        "4-thread vs 1-thread at n={} plen={}: {:.2}x\n",
        r.headline.0, r.headline.1, r.speedup_4v1
    ));
    s.push_str(&format!("outputs bit-identical across thread counts: {}\n", r.bit_identical));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_mode_produces_grid_and_valid_json() {
        let r = run(true, None);
        // 1 participants × 1 plen × 2 thread counts.
        assert_eq!(r.results.len(), 2);
        assert!(r.results.iter().all(|c| c.ns_per_call > 0.0 && c.gbps > 0.0));
        assert!(r.bit_identical);
        let json = to_json(&r);
        assert!(json.contains("\"speedup_4v1\""));
        assert!(json.contains("\"bit_identical\": true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count(), "unbalanced JSON braces");
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn alloc_counter_plumbs_through_to_every_cell() {
        fn frozen() -> u64 {
            0
        }
        let r = run(true, Some(frozen));
        for c in &r.results {
            assert_eq!(c.allocs_per_call, Some(0));
        }
    }
}
