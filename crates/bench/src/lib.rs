//! Reproduction harness for *"A High-Performance Parallel Implementation of
//! the Chambolle Algorithm"* (Akin et al., DATE 2011).
//!
//! - [`baselines`] — the published Table II rows (GPU state of the art);
//! - [`robustness`] — fault-injection sweeps over the guarded accelerator;
//! - [`tables`] — text-table rendering;
//! - [`tunereport`] — `tune` CLI parsing and report-schema validation;
//! - [`workloads`] — deterministic frames and host timing helpers;
//! - the `repro` binary regenerates every table and figure (see
//!   `EXPERIMENTS.md` at the workspace root);
//! - the `tune` binary searches the service's batch window and writes a
//!   per-machine tuning profile.
//!
//! Performance is measured by the benchmark harness in `benchmark/` at the
//! repository root (`bash benchmark/run.sh --workload NAME ...`), not here.

#![warn(missing_docs)]

pub mod baselines;
pub mod dataset;
pub mod robustness;
pub mod tables;
pub mod tunereport;
pub mod workloads;
