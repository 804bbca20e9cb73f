//! Captures the compiler version and the `target-cpu` flag at compile
//! time, so every benchmark output can say what produced it.

use std::process::Command;

fn stdout_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version =
        stdout_of(Command::new(rustc).arg("--version")).unwrap_or_else(|| "unknown".into());
    // Flags arrive 0x1f-separated; `-C target-cpu=x` may be one or two
    // arguments.
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    let target_cpu = flags
        .split('\x1f')
        .find_map(|f| {
            f.strip_prefix("-Ctarget-cpu=")
                .or_else(|| f.strip_prefix("target-cpu="))
        })
        .unwrap_or("generic")
        .to_string();
    println!("cargo:rustc-env=BENCH_RUSTC={version}");
    println!("cargo:rustc-env=BENCH_TARGET_CPU={target_cpu}");
    println!("cargo:rerun-if-changed=build.rs");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
}
