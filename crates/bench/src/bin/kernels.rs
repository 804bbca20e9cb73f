//! `kernels` — the kernel microbenchmark binary.
//!
//! ```text
//! cargo run --release -p fedgta-bench --bin kernels            # full grid
//! cargo run --release -p fedgta-bench --bin kernels -- --test  # CI smoke
//! cargo run --release -p fedgta-bench --bin kernels -- --out path.json
//! ```
//!
//! Installs the counting allocator so every `_into` kernel's allocation
//! count is measured (the `blocked matmul ≥ 2× naive` and `0 allocs per
//! call` claims in EXPERIMENTS.md come from this binary's output).

use fedgta_bench::alloc::{alloc_count, CountingAlloc};
use fedgta_bench::kernels;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let quick = std::env::args().any(|a| a == "--test");
    let out = fedgta_bench::arg_value("--out").unwrap_or_else(|| "BENCH_KERNELS.json".into());
    // Read the baseline *before* overwriting the default output path.
    let baseline_path = fedgta_bench::arg_value("--baseline");
    let baseline_json = baseline_path.as_ref().map(|p| match std::fs::read_to_string(p) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read baseline {p}: {e}");
            std::process::exit(1);
        }
    });
    let report = kernels::run(quick, Some(alloc_count));
    print!("{}", kernels::render_table(&report));
    let json = kernels::to_json(&report);
    match std::fs::write(&out, &json) {
        Ok(()) => println!("wrote {out}"),
        Err(e) => {
            eprintln!("error: cannot write {out}: {e}");
            std::process::exit(1);
        }
    }
    // In full mode the acceptance bars are part of the binary itself so a
    // regression fails loudly, not silently in a stale JSON file.
    if !quick && report.matmul_speedup_vs_naive < 2.0 {
        eprintln!(
            "error: blocked matmul only {:.2}x naive at {}^3 (need >= 2.0x)",
            report.matmul_speedup_vs_naive, report.anchor_dim
        );
        std::process::exit(1);
    }
    // The weight-gradient kernel runs on the forward micro-kernel; what it
    // pays on top is the transpose-pack, and that must stay a minor share.
    if !quick && report.matmul_tn_vs_matmul < 0.6 {
        eprintln!(
            "error: matmul_tn only {:.2}x matmul at its worst grid cell (need >= 0.6x)",
            report.matmul_tn_vs_matmul
        );
        std::process::exit(1);
    }
    // The observability contract: compiled-in hooks at ObsLevel::Off must
    // stay within the 2% budget. Enforced in full mode (quick's single
    // iterations are too noisy for a hard gate, but the number is printed).
    if !quick && report.obs_overhead_pct > 2.0 {
        eprintln!(
            "error: ObsLevel::Off hook overhead {:.2}% exceeds 2% budget",
            report.obs_overhead_pct
        );
        std::process::exit(1);
    }
    // The always-on flight recorder records at span granularity, never
    // per kernel op — arming it must not move the per-op hook off the
    // same budget.
    if !quick && report.recorder_overhead_pct > 2.0 {
        eprintln!(
            "error: hook overhead with flight recorder armed {:.2}% exceeds 2% budget",
            report.recorder_overhead_pct
        );
        std::process::exit(1);
    }
    // `--baseline BENCH_KERNELS.json`: fail if the anchor matmul lost
    // more than 2% GFLOP/s vs the recorded run (enforced in both modes —
    // quick mode re-times the anchor overhead pair with a real budget).
    if let Some(base) = &baseline_json {
        match kernels::check_against_baseline(&report, base, 2.0) {
            Ok(Some(delta)) => println!("baseline check: anchor within budget ({delta:+.2}%)"),
            Ok(None) => println!("baseline check: no comparable anchor cell, skipped"),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }
}
