//! The thread-policy guard and the description of the machine and build
//! that every output carries.

use crate::json::Json;
use crate::workloads::{Workload, THREADS_KERNEL};

/// Pins the kernel thread count by setting `FEDGTA_THREADS` before the
/// first kernel call reads (and caches) it. A conflicting value already
/// in the environment is refused: a benchmark that silently ran under
/// another thread policy would report numbers for a different system.
pub fn pin_threads() -> Result<(), String> {
    let want = THREADS_KERNEL.to_string();
    match std::env::var("FEDGTA_THREADS") {
        Ok(have) if have != want => Err(format!(
            "FEDGTA_THREADS={have} is set, but every workload pins it to {want}; unset it"
        )),
        _ => {
            std::env::set_var("FEDGTA_THREADS", &want);
            fedgta_graph::par::refresh_thread_env();
            Ok(())
        }
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` under the working directory
/// without starting a process; a benchmark checkout need not be a git
/// repository, and then this is "unknown".
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Machine, build and thread policy of this run. `rustc` and
/// `target_cpu` are captured by `build.rs` when the harness is compiled.
pub fn describe(w: &Workload) -> Json {
    Json::obj([
        ("threads_outer", Json::Num(w.threads_outer as f64)),
        ("threads_kernel", Json::Num(THREADS_KERNEL as f64)),
        ("nproc", Json::Num(nproc() as f64)),
        ("cpu_model", Json::Str(cpu_model())),
        ("rustc", Json::Str(env!("BENCH_RUSTC").into())),
        ("target_cpu", Json::Str(env!("BENCH_TARGET_CPU").into())),
        ("commit", Json::Str(commit())),
    ])
}
