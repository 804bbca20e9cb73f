//! The FedGTA benchmark harness behind `BENCHMARK.json`: four pinned
//! federated workloads, end-to-end metrics from untraced runs of the
//! product's own driver, and per-layer metrics from a staged replay with
//! a span around every call into a layer. `README.md` has the glossary.

pub mod alloc;
pub mod compare;
pub mod env;
pub mod json;
pub mod metrics;
pub mod procfs;
pub mod replay;
pub mod run;
pub mod spans;
pub mod staged;
pub mod stats;
pub mod trace;
pub mod workloads;
