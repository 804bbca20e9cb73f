//! The traced run: one untraced reference block, then staged blocks
//! whose spans give every per-layer metric, each checked against the
//! reference.

use crate::metrics::{Outcome, Values};
use crate::replay;
use crate::run::{check_blocks, hash_clients, run_block, Block};
use crate::spans::{self_times, Span, NONE, ROUND};
use crate::staged::{Staged, StagedRound, STAGES};
use crate::stats::{mean, median, min, tail_percentile};
use crate::workloads::{build_federation, Workload, WARMUP_ROUNDS};
use crate::{alloc, procfs};
use fedgta_obs::ObsLevel;
use std::path::Path;
use std::time::Instant;

/// No layer hides: the named stages must account for at least this share
/// of the staged rounds' wall time.
const MIN_COVERAGE_PCT: f64 = 95.0;

/// The obs-registry counters the traced run reads, snapshotted together.
#[derive(Clone, Copy, Default)]
struct Counters {
    matmul_flops: u64,
    spmm_flops: u64,
    axpy_flops: u64,
    store_bytes_read: u64,
    store_tile_reads: u64,
    allocs: u64,
    alloc_bytes: u64,
}

impl Counters {
    fn read() -> Self {
        let reg = fedgta_obs::global();
        let (allocs, alloc_bytes) = alloc::counts();
        Self {
            matmul_flops: reg.counter("kernel.matmul.flops").get(),
            spmm_flops: reg.counter("spmm.flops").get(),
            axpy_flops: reg.counter("aggregate.axpy_flops").get(),
            store_bytes_read: reg.counter("graph.store.bytes_read").get(),
            store_tile_reads: reg.counter("graph.store.tile_reads").get(),
            allocs,
            alloc_bytes,
        }
    }
}

/// Per-round stage sums of one staged block's measured rounds.
struct RoundStages {
    /// Self time per stage (indexed like [`STAGES`]), ns.
    stage_ns: Vec<u64>,
    /// Duration of the round's root span, evaluation included, ns.
    wall_ns: u64,
}

fn stage_sums(spans: &[Span]) -> Vec<RoundStages> {
    let st = self_times(spans);
    let mut rounds: Vec<RoundStages> = Vec::new();
    for s in spans.iter().filter(|s| s.round as usize > WARMUP_ROUNDS) {
        if s.parent == NONE {
            assert_eq!(s.name, ROUND, "only round roots have no parent");
            rounds.push(RoundStages {
                stage_ns: vec![0; STAGES.len()],
                wall_ns: s.dur_ns(),
            });
        } else {
            // Spans are stored in start order, so a round's root precedes
            // its stages.
            let stage = STAGES
                .iter()
                .position(|n| *n == s.name)
                .expect("every span is a named stage");
            rounds.last_mut().expect("root first").stage_ns[stage] += st[s.id as usize];
        }
    }
    rounds
}

/// Staged and reference runs must have done the same work.
fn check_equivalence(
    w: &Workload,
    reference: &Block,
    staged: &[StagedRound],
    hashes: &[u64],
) -> Vec<String> {
    let mut failed = Vec::new();
    if hashes != reference.param_hashes {
        failed.push(
            "staged equivalence: final parameter hashes differ from Simulation::run's".to_string(),
        );
    }
    for (s, r) in staged.iter().zip(&reference.records) {
        if s.mean_loss.to_bits() != r.mean_loss.to_bits()
            || s.test_acc.map(f64::to_bits) != r.test_acc.map(f64::to_bits)
        {
            failed.push(format!(
                "staged equivalence: round {} loss or accuracy differs",
                r.round
            ));
            break;
        }
        if w.wire
            && (s.bytes_uploaded_encoded, s.bytes_downloaded_encoded)
                != (r.bytes_uploaded_encoded, r.bytes_downloaded_encoded)
        {
            failed.push(format!(
                "staged equivalence: round {} encoded byte totals differ",
                r.round
            ));
            break;
        }
    }
    failed
}

pub fn run_traced(w: &Workload, seed: u64, rounds: usize, seconds: f64, scratch: &Path) -> Outcome {
    let clock = Instant::now();
    let mut v = Values::default();

    // The untraced reference: what the OS sees of one block, and the
    // round records the per-layer table reads beside the spans.
    let (stat0, status0) = procfs::read();
    let reference = run_block(w, seed, rounds, scratch);
    let (stat1, status1) = procfs::read();
    let mut failed_checks = check_blocks(w, std::slice::from_ref(&reference));
    let measured = reference.measured();

    // Staged blocks, with work counters armed.
    fedgta_obs::set_level(ObsLevel::Metrics);
    let mut per_round: Vec<RoundStages> = Vec::new();
    let mut staged_round_ms: Vec<f64> = Vec::new();
    let mut members = Vec::new();
    let mut aggregate_bytes = Vec::new();
    let mut counters = Vec::new(); // (before set-up, after warm-up, at end) per block
    let mut span_count = 0usize;
    let mut last = None;
    let mut longest = 0f64;
    // As many staged blocks as fit in `seconds`, and at least one.
    while last.is_none() || clock.elapsed().as_secs_f64() + longest <= seconds {
        let block_clock = Instant::now();
        let c0 = Counters::read();
        let fed = build_federation(w, seed, scratch);
        let mut staged = Staged::new(w, fed.clients, seed);
        let mut c1 = Counters::default();
        let mut measure = || {
            staged.run(rounds, || {
                c1 = Counters::read();
                alloc::set_counting(true);
            })
        };
        // The product trains a multi-threaded workload on worker threads,
        // whose allocator arenas behave unlike the main thread's (the
        // first, page-faulting round ran 2-3x slower on the main thread
        // in sizing runs), so its replay runs on a worker too.
        let records = if w.threads_outer > 1 {
            std::thread::scope(|s| s.spawn(&mut measure).join()).expect("staged driver panicked")
        } else {
            measure()
        };
        alloc::set_counting(false);
        counters.push((c0, c1, Counters::read()));
        failed_checks.extend(check_equivalence(
            w,
            &reference,
            &records,
            &hash_clients(&staged.clients),
        ));
        per_round.extend(stage_sums(staged.rec.spans()));
        span_count = staged.rec.spans().len();
        for r in &records[WARMUP_ROUNDS..] {
            staged_round_ms.push(r.elapsed_s * 1e3);
            members.push(r.members_mean);
            aggregate_bytes.push(r.aggregate_bytes);
        }
        last = Some(staged);
        longest = longest.max(block_clock.elapsed().as_secs_f64());
    }
    fedgta_obs::set_level(ObsLevel::Off);
    let staged = last.expect("at least one staged block");
    let spans_path = scratch.join(format!("spans-{}-{seed}.jsonl", w.name));
    if let Err(e) = staged.rec.write_jsonl(&spans_path) {
        failed_checks.push(format!("spans: cannot write {}: {e}", spans_path.display()));
    }

    // Set-up, from the reference block.
    v.set("data.load_s", reference.load_s);
    v.set("partition.split_s", reference.split_s);
    v.set("fed.build_clients_s", reference.build_s);
    v.set("fed.warmup_s", reference.warmup_s());
    let per_block = |f: &dyn Fn(&(Counters, Counters, Counters)) -> u64| {
        median(&counters.iter().map(|c| f(c) as f64).collect::<Vec<_>>())
    };
    v.set(
        "graph.store.bytes_read",
        per_block(&|c| c.1.store_bytes_read - c.0.store_bytes_read),
    );
    v.set(
        "graph.store.tile_reads",
        per_block(&|c| c.1.store_tile_reads - c.0.store_tile_reads),
    );

    // Stages.
    let wall_total: u64 = per_round.iter().map(|r| r.wall_ns).sum();
    let mut covered = 0u64;
    for (k, stage) in STAGES.iter().enumerate() {
        let total: u64 = per_round.iter().map(|r| r.stage_ns[k]).sum();
        covered += total;
        // Median over the rounds in which the stage ran at all, so a
        // stage that runs every fifth round reports its cost when it runs.
        let ran: Vec<f64> = per_round
            .iter()
            .map(|r| r.stage_ns[k] as f64 / 1e6)
            .filter(|&ms| ms > 0.0)
            .collect();
        v.set(format!("{stage}.ms_p50"), median(&ran));
        v.set(format!("{stage}.share"), total as f64 / wall_total as f64);
    }
    let coverage_pct = 100.0 * covered as f64 / wall_total as f64;
    if coverage_pct < MIN_COVERAGE_PCT {
        failed_checks.push(format!("coverage: stages cover {coverage_pct:.1}% of staged round wall, below {MIN_COVERAGE_PCT}%"));
    }

    // Server replays and counts.
    let rounds_per_block = rounds as f64;
    v.set(
        "core.similarity.ms_p50",
        replay::similarity_ms(&staged.last_sketches, w.threads_outer),
    );
    let agg_k = STAGES
        .iter()
        .position(|s| *s == "core.aggregate")
        .expect("stage exists");
    let agg_s: f64 = per_round
        .iter()
        .map(|r| r.stage_ns[agg_k] as f64 / 1e9)
        .sum();
    v.set(
        "core.aggregate.gbps",
        aggregate_bytes.iter().sum::<f64>() / agg_s / 1e9,
    );
    v.set(
        "core.aggregate.axpy_flops_per_round",
        per_block(&|c| c.2.axpy_flops - c.1.axpy_flops) / rounds_per_block,
    );
    v.set("core.aggregate.members_mean", mean(&members));

    // Kernel replays and counts.
    let rates = replay::kernels(w, &staged.clients[0]);
    v.set("nn.matmul.gflops", rates.matmul_gflops);
    v.set("nn.matmul_tn.gflops", rates.matmul_tn_gflops);
    v.set("nn.matmul_nt.gflops", rates.matmul_nt_gflops);
    v.set("graph.spmm.gflops", rates.spmm_gflops);
    v.set(
        "nn.matmul.flops_per_round",
        per_block(&|c| c.2.matmul_flops - c.1.matmul_flops) / rounds_per_block,
    );
    v.set(
        "graph.spmm.flops_per_round",
        per_block(&|c| c.2.spmm_flops - c.1.spmm_flops) / rounds_per_block,
    );

    // Round records of the reference block.
    let round_ms: Vec<f64> = measured.iter().map(|r| r.elapsed_s * 1e3).collect();
    let (tail_pct, tail_ms) = tail_percentile(&round_ms);
    v.set("fed.round_samples", round_ms.len() as f64);
    v.set("fed.round_ms_p50", median(&round_ms));
    v.set("fed.round_ms_tail", tail_ms);
    v.set("fed.round_tail_pct", tail_pct);
    v.set("fed.round_ms_min", min(&round_ms));
    v.set(
        "fed.round_ms_max",
        round_ms.iter().copied().fold(0.0, f64::max),
    );
    let eval_ms: Vec<f64> = measured
        .iter()
        .filter(|r| r.test_acc.is_some())
        .map(|r| r.eval_s * 1e3)
        .collect();
    v.set("fed.eval_ms_p50", median(&eval_ms));
    // A run that never reaches the target reports the whole run.
    let to_acc = reference
        .rounds_to_acc(w.acc_target)
        .unwrap_or(measured.len());
    let warm_cum = reference.records[WARMUP_ROUNDS - 1].cumulative_s;
    v.set("fed.rounds_to_acc", to_acc as f64);
    v.set(
        "fed.time_to_acc_s",
        measured[to_acc - 1].cumulative_s - warm_cum,
    );
    let per_round_mean = |f: &dyn Fn(&fedgta_fed::round::RoundRecord) -> f64| {
        mean(&measured.iter().map(f).collect::<Vec<_>>())
    };
    let up_raw = per_round_mean(&|r| r.bytes_uploaded_raw as f64);
    let up_enc = per_round_mean(&|r| r.bytes_uploaded_encoded as f64);
    // The direct path has no broadcast frames; its analytic download
    // size stands in on both sides, so raw = encoded off the wire.
    let down = |wire: usize, analytic: usize| if w.wire { wire } else { analytic } as f64;
    let down_raw = per_round_mean(&|r| down(r.bytes_downloaded_raw, r.bytes_downloaded));
    let down_enc = per_round_mean(&|r| down(r.bytes_downloaded_encoded, r.bytes_downloaded));
    v.set("fed.upload_bytes_raw_per_round", up_raw);
    v.set("fed.upload_bytes_encoded_per_round", up_enc);
    v.set("fed.download_bytes_raw_per_round", down_raw);
    v.set("fed.download_bytes_encoded_per_round", down_enc);
    v.set(
        "fed.codec.wire_reduction",
        (up_raw + down_raw) / (up_enc + down_enc),
    );
    v.set(
        "fed.retries_per_round",
        per_round_mean(&|r| r.retries as f64),
    );
    let attempted = reference.ops_attempted();
    let failed = reference.ops_failed();
    v.set(
        "fed.participants_dropped_share",
        failed as f64 / attempted as f64,
    );
    let skipped = measured
        .iter()
        .filter(|r| r.participants_completed == 0)
        .count();
    v.set("fed.rounds_skipped", skipped as f64);

    // The OS's view of the reference block, set-up included.
    v.set("process.cpu_user_s", stat1.cpu_user_s - stat0.cpu_user_s);
    v.set("process.cpu_sys_s", stat1.cpu_sys_s - stat0.cpu_sys_s);
    v.set(
        "process.minor_faults",
        (stat1.minor_faults - stat0.minor_faults) as f64,
    );
    v.set(
        "process.voluntary_ctx_switches",
        (status1.voluntary_ctx_switches - status0.voluntary_ctx_switches) as f64,
    );
    v.set(
        "process.allocs_per_round",
        per_block(&|c| c.2.allocs - c.1.allocs) / rounds_per_block,
    );
    v.set(
        "process.alloc_bytes_per_round",
        per_block(&|c| c.2.alloc_bytes - c.1.alloc_bytes) / rounds_per_block,
    );

    // Validity of the above.
    v.set("trace.coverage_pct", coverage_pct);
    v.set(
        "trace.overhead_pct",
        100.0 * (median(&staged_round_ms) / median(&round_ms) - 1.0),
    );
    v.set("trace.spans", span_count as f64);

    Outcome {
        values: v,
        failed_checks,
        attempted,
        failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        id: u32,
        parent: u32,
        round: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            id,
            parent,
            round,
            client: NONE,
        }
    }

    #[test]
    fn stage_sums_skip_the_warmup_and_charge_self_time_per_round() {
        let spans = vec![
            span(ROUND, 0, NONE, 1, 0, 100), // warm-up: ignored
            span("nn.train_local", 1, 0, 1, 0, 90),
            span(ROUND, 2, NONE, 2, 100, 200),
            span("nn.train_local", 3, 2, 2, 100, 150),
            span("fed.ef_commit", 4, 2, 2, 150, 190),
            span("fed.codec_decode", 5, 4, 2, 160, 180), // nested: charged to itself
            span("nn.train_local", 6, 2, 2, 190, 195),
        ];
        let rounds = stage_sums(&spans);
        assert_eq!(rounds.len(), 1);
        let ns = |stage: &str| rounds[0].stage_ns[STAGES.iter().position(|s| *s == stage).unwrap()];
        assert_eq!(rounds[0].wall_ns, 100);
        assert_eq!(ns("nn.train_local"), 55);
        assert_eq!(ns("fed.ef_commit"), 20);
        assert_eq!(ns("fed.codec_decode"), 20);
        assert_eq!(rounds[0].stage_ns.iter().sum::<u64>(), 95); // 5 ns uncovered
    }
}
