//! Blocks of set-up + `Simulation::run`, and the untraced run that
//! computes the end-to-end metrics from them.
//!
//! One *block* is what a user does once: generate the inputs from the
//! seed, build the federation, run `WARMUP_ROUNDS + rounds` rounds. Work
//! per block is fixed; `--seconds` only decides how many blocks a run
//! measures, and every metric is a statistic over blocks or over the
//! pooled measured rounds.

use crate::metrics::{Outcome, Values};
use crate::procfs;
use crate::stats::{mean, median, min, percentile};
use crate::workloads::{build_federation, Federation, Workload, WARMUP_ROUNDS};
use fedgta::FedGta;
use fedgta_fed::client::Client;
use fedgta_fed::round::{RoundRecord, Simulation};
use std::path::Path;
use std::time::Instant;

/// Everything one block measured.
pub struct Block {
    pub load_s: f64,
    pub split_s: f64,
    pub build_s: f64,
    /// All rounds, warm-up first.
    pub records: Vec<RoundRecord>,
    /// Wall time of `Simulation::run`, sampling and evaluation included.
    pub sim_wall_s: f64,
    /// FNV-1a hash of each client's final parameters.
    pub param_hashes: Vec<u64>,
    /// The process's peak resident set (`VmHWM`, KiB) when the block
    /// ended and its federation was still alive.
    pub vm_hwm_kib: u64,
}

impl Block {
    pub fn measured(&self) -> &[RoundRecord] {
        &self.records[WARMUP_ROUNDS..]
    }

    /// Wall time of the warm-up rounds, their evaluation included.
    pub fn warmup_s(&self) -> f64 {
        self.records[..WARMUP_ROUNDS]
            .iter()
            .map(|r| r.elapsed_s + r.eval_s)
            .sum()
    }

    pub fn setup_s(&self) -> f64 {
        self.load_s + self.split_s + self.build_s + self.warmup_s()
    }

    pub fn run_s(&self) -> f64 {
        self.sim_wall_s - self.warmup_s()
    }

    pub fn final_acc(&self) -> f64 {
        self.records
            .last()
            .and_then(|r| r.test_acc)
            .unwrap_or(f64::NAN)
    }

    /// First measured round (1-based among measured rounds) whose test
    /// accuracy reaches `target`.
    pub fn rounds_to_acc(&self, target: f64) -> Option<usize> {
        self.measured()
            .iter()
            .position(|r| r.test_acc.is_some_and(|a| a >= target))
            .map(|p| p + 1)
    }

    /// Bytes on the wire per measured round, both directions: the
    /// encoded frames on the channel transport, the analytic payload
    /// sizes on the direct path.
    pub fn wire_bytes_per_round(&self, wire: bool) -> f64 {
        let per_round: Vec<f64> = self
            .measured()
            .iter()
            .map(|r| {
                if wire {
                    (r.bytes_uploaded_encoded + r.bytes_downloaded_encoded) as f64
                } else {
                    (r.bytes_uploaded + r.bytes_downloaded) as f64
                }
            })
            .collect();
        mean(&per_round)
    }

    /// Sampled client-rounds over the measured rounds.
    pub fn ops_attempted(&self) -> u64 {
        self.measured()
            .iter()
            .map(|r| (r.participants_completed + r.participants_dropped) as u64)
            .sum()
    }

    /// Client-rounds that never reached the aggregate (lost, crashed, or
    /// in a skipped round), plus every participant of a round whose loss
    /// is not finite.
    pub fn ops_failed(&self) -> u64 {
        self.measured()
            .iter()
            .map(|r| {
                if r.mean_loss.is_finite() {
                    r.participants_dropped as u64
                } else {
                    (r.participants_completed + r.participants_dropped) as u64
                }
            })
            .sum()
    }
}

pub fn fnv1a(params: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in params {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

pub fn hash_clients(clients: &[Client]) -> Vec<u64> {
    clients.iter().map(|c| fnv1a(&c.model.params())).collect()
}

/// Runs one block through the product's own driver.
pub fn run_block(w: &Workload, seed: u64, rounds: usize, scratch: &Path) -> Block {
    let Federation {
        clients,
        load_s,
        split_s,
        build_s,
    } = build_federation(w, seed, scratch);
    let mut sim = Simulation::new(
        clients,
        Box::new(FedGta::with_defaults()),
        w.sim_config(seed, rounds),
    );
    if let Some(cc) = w.comms(seed) {
        sim = sim.with_comms(cc);
    }
    let t = Instant::now();
    let records = sim.run();
    let sim_wall_s = t.elapsed().as_secs_f64();
    Block {
        load_s,
        split_s,
        build_s,
        records,
        sim_wall_s,
        param_hashes: hash_clients(&sim.clients),
        vm_hwm_kib: procfs::read().1.vm_hwm_kib,
    }
}

/// Runs as many blocks as fit in `seconds` — a block is started while
/// the time used so far plus the longest block so far still fits — and
/// at least `min_blocks` (several, so that `setup_s` is a median of
/// several set-ups).
pub fn run_blocks(
    w: &Workload,
    seed: u64,
    rounds: usize,
    seconds: f64,
    min_blocks: usize,
    scratch: &Path,
) -> Vec<Block> {
    let clock = Instant::now();
    let mut blocks = Vec::new();
    let mut longest = 0f64;
    while blocks.len() < min_blocks || clock.elapsed().as_secs_f64() + longest <= seconds {
        let t = Instant::now();
        blocks.push(run_block(w, seed, rounds, scratch));
        longest = longest.max(t.elapsed().as_secs_f64());
    }
    blocks
}

/// What the user waits for the measured rounds of one block — sampling,
/// training, aggregation, comms and evaluation — had every part run as
/// fast as the run's quietest instance of it: `R` times the fastest
/// round, plus the block's evaluations at the fastest evaluation, plus
/// the smallest remainder (sampling and bookkeeping between rounds) any
/// block had.
///
/// Other tenants of the machine slow memory-bound rounds by 10-45 % for
/// seconds to minutes at a time, and speed them up by a tenth at most:
/// in a noisy five minutes of `pubmed_gcn_direct` the
/// median round of a 28-second window moved by 0.12 of itself between
/// windows (quartile distance), the tenth percentile by 0.10, the
/// quietest whole block by 0.10 and the fastest round by 0.06. The
/// fastest instance is what the code costs; a real slowdown moves it as
/// much as it moves the median.
pub fn quiet_run_s(blocks: &[Block]) -> f64 {
    let pooled = |f: fn(&RoundRecord) -> Option<f64>| {
        let xs: Vec<f64> = blocks
            .iter()
            .flat_map(|b| b.measured().iter().filter_map(f))
            .collect();
        min(&xs)
    };
    let evaluated = |r: &RoundRecord| r.test_acc.map(|_| r.eval_s);
    let first = blocks[0].measured();
    let rounds = first.len() as f64;
    let evals = first.iter().filter_map(evaluated).count() as f64;
    let between_rounds: Vec<f64> = blocks
        .iter()
        .map(|b| {
            let in_rounds: f64 = b.measured().iter().map(|r| r.elapsed_s + r.eval_s).sum();
            (b.run_s() - in_rounds).max(0.0)
        })
        .collect();
    rounds * pooled(|r| Some(r.elapsed_s)) + evals * pooled(evaluated) + min(&between_rounds)
}

/// The untraced run: blocks through the product's driver with
/// observability off, and the end-to-end metrics over them.
pub fn run_untraced(
    w: &Workload,
    seed: u64,
    rounds: usize,
    seconds: f64,
    min_blocks: usize,
    scratch: &Path,
) -> Outcome {
    let blocks = run_blocks(w, seed, rounds, seconds, min_blocks, scratch);
    let over_blocks = |f: fn(&Block) -> f64| blocks.iter().map(f).collect::<Vec<_>>();
    let round_ms: Vec<f64> = blocks
        .iter()
        .flat_map(|b| b.measured().iter().map(|r| r.elapsed_s * 1e3))
        .collect();
    let mut v = Values::default();
    v.set("setup_s", median(&over_blocks(Block::setup_s)));
    // The bounded timings read the quietest the run saw, see `quiet_run_s`.
    v.set("round_ms_min", min(&round_ms));
    v.set("run_s", quiet_run_s(&blocks));
    // Same seed, same inputs: `check_blocks` holds every block to block 0.
    v.set("final_acc", blocks[0].final_acc());
    v.set(
        "wire_bytes_per_round",
        blocks[0].wire_bytes_per_round(w.wire),
    );
    // The high-water mark of the *first* block: what one run of the
    // product peaks at. Later blocks can only add allocator residue to
    // it (freed memory stays in the worker threads' arenas; on the
    // two-thread workload the mark crept from 880 to 1140-1200 MiB in a
    // third of the runs), which no user's single run would see.
    v.set("peak_rss_mib", blocks[0].vm_hwm_kib as f64 / 1024.0);
    println!(
        "{} blocks of {WARMUP_ROUNDS}+{rounds} rounds, {} measured rounds, set-ups {:?} s",
        blocks.len(),
        round_ms.len(),
        blocks
            .iter()
            .map(|b| (b.setup_s() * 1e3).round() / 1e3)
            .collect::<Vec<_>>(),
    );
    // What the bounded low-end readings leave out, for whoever reads the log.
    println!(
        "rounds: p10 {:.3} p50 {:.3} max {:.3} ms; blocks' run_s {:?}",
        percentile(&round_ms, 10.0),
        median(&round_ms),
        percentile(&round_ms, 100.0),
        over_blocks(Block::run_s)
            .iter()
            .map(|s| (s * 1e3).round() / 1e3)
            .collect::<Vec<_>>(),
    );
    Outcome {
        values: v,
        failed_checks: check_blocks(w, &blocks),
        attempted: blocks.iter().map(Block::ops_attempted).sum(),
        failed: blocks.iter().map(Block::ops_failed).sum(),
    }
}

/// Checks that hold for every correct untraced run; returns the name of
/// each failed check.
pub fn check_blocks(w: &Workload, blocks: &[Block]) -> Vec<String> {
    let mut failed = Vec::new();
    let first = &blocks[0];
    for (i, b) in blocks.iter().enumerate() {
        if b.records.iter().any(|r| !r.mean_loss.is_finite())
            || b.records
                .iter()
                .filter_map(|r| r.test_acc)
                .any(|a| !a.is_finite())
        {
            failed.push(format!(
                "finite: block {i} has a non-finite loss or accuracy"
            ));
        }
        // A smoke run is too short to converge; the floor is for full runs.
        let floor = if b.measured().len() >= w.rounds {
            w.acc_floor
        } else {
            0.0
        };
        if b.final_acc().is_nan() || b.final_acc() < floor {
            failed.push(format!(
                "accuracy floor: block {i} final_acc {} < {floor}",
                b.final_acc()
            ));
        }
        // Same seed, same inputs: everything but the clock must repeat.
        if b.param_hashes != first.param_hashes
            || b.final_acc().to_bits() != first.final_acc().to_bits()
            || b.rounds_to_acc(w.acc_target) != first.rounds_to_acc(w.acc_target)
            || b.wire_bytes_per_round(w.wire) != first.wire_bytes_per_round(w.wire)
            || (b.ops_attempted(), b.ops_failed()) != (first.ops_attempted(), first.ops_failed())
        {
            failed.push(format!(
                "determinism: block {i} differs from block 0 on the same seed"
            ));
        }
    }
    failed
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A block whose rounds took `rounds` = (elapsed_s, eval_s; an
    /// evaluation ran when eval_s > 0), after a one-second warm-up, with
    /// `between_s` spent outside the rounds.
    fn block(rounds: &[(f64, f64)], between_s: f64) -> Block {
        let record = |&(elapsed_s, eval_s): &(f64, f64)| RoundRecord {
            round: 0,
            mean_loss: 0.5,
            test_acc: (eval_s > 0.0).then_some(0.9),
            elapsed_s,
            cumulative_s: 0.0,
            train_s: elapsed_s,
            aggregate_s: 0.0,
            eval_s,
            bytes_uploaded: 0,
            bytes_downloaded: 0,
            bytes_uploaded_raw: 0,
            bytes_uploaded_encoded: 0,
            bytes_downloaded_raw: 0,
            bytes_downloaded_encoded: 0,
            threads: 1,
            participants_completed: 1,
            participants_dropped: 0,
            retries: 0,
        };
        let warmup = (0.75, 0.25);
        let records: Vec<RoundRecord> =
            std::iter::once(&warmup).chain(rounds).map(record).collect();
        let in_rounds: f64 = records.iter().map(|r| r.elapsed_s + r.eval_s).sum();
        Block {
            load_s: 0.0,
            split_s: 0.0,
            build_s: 0.0,
            records,
            sim_wall_s: in_rounds + between_s,
            param_hashes: Vec::new(),
            vm_hwm_kib: 0,
        }
    }

    #[test]
    fn quiet_run_takes_the_fastest_instance_of_every_part() {
        // Three rounds per block, evaluated after the second and third.
        let noisy = block(&[(4.0, 0.0), (2.5, 1.0), (3.0, 0.75)], 0.5);
        let quiet = block(&[(2.0, 0.0), (9.0, 0.5), (2.25, 2.0)], 0.125);
        assert_eq!(noisy.run_s(), 11.75);
        // 3 rounds x 2.0 + 2 evaluations x 0.5 + 0.125 between rounds.
        assert_eq!(quiet_run_s(&[noisy, quiet]), 7.125);
        // One block alone: its own fastest round and evaluation.
        let alone = block(&[(4.0, 0.0), (2.5, 1.0), (3.0, 0.75)], 0.5);
        assert_eq!(quiet_run_s(&[alone]), 3.0 * 2.5 + 2.0 * 0.75 + 0.5);
    }

    #[test]
    fn fnv_is_order_and_bit_sensitive() {
        assert_ne!(fnv1a(&[1.0, 2.0]), fnv1a(&[2.0, 1.0]));
        assert_ne!(fnv1a(&[0.0]), fnv1a(&[-0.0]));
        assert_eq!(fnv1a(&[]), 0xcbf2_9ce4_8422_2325);
    }
}
