//! Reproduction harness for *"A High-Performance Parallel Implementation of
//! the Chambolle Algorithm"* (Akin et al., DATE 2011).
//!
//! - [`baselines`] — the published Table II rows (GPU state of the art);
//! - [`tables`] — text-table rendering;
//! - [`workloads`] — deterministic frames and host timing helpers;
//! - the `repro` binary regenerates every table and figure (see
//!   `EXPERIMENTS.md` at the workspace root).
//!
//! Performance is measured by the benchmark harness in `benchmark/` at the
//! repository root (`bash benchmark/run.sh --workload NAME ...`), not here.

#![warn(missing_docs)]

pub mod baselines;
pub mod dataset;
pub mod tables;
pub mod workloads;
