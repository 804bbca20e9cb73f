//! # fedgta-bench — the reproduction harness
//!
//! [`runner`] is the experiment protocol behind the paper's tables: load a
//! synthetic benchmark, partition it with Louvain or Metis, build the
//! federation, run a strategy for `R` rounds over `runs` seeds, report
//! `mean ± std` best test accuracy. [`tables`] and [`artefacts`] describe
//! every table and figure over it, [`claims`] what the paper says about
//! them, and [`repro`] runs both; [`kernels`], [`aggregate`], [`comms`]
//! and [`scale`] are the four microbenchmark suites. The `repro` binary is
//! the one entry point to all of it.

pub mod aggregate;
pub mod alloc;
pub mod artefacts;
pub mod claims;
pub mod comms;
pub mod format;
pub mod kernels;
pub mod plot;
pub mod repro;
pub mod runner;
pub mod scale;
pub mod tables;

pub use runner::{
    make_strategy, partition_benchmark, run_experiment, run_global, strategy_named, ExperimentResult,
    ExperimentSpec, SplitKind, StrategySpec, STRATEGY_NAMES,
};
