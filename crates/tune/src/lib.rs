//! Names the benchmark harness in `benchmark/` still compiles against.
//!
//! The service schedule is three constants set by
//! `chambolle_service::ServiceConfig::new`: batches of up to 8 requests,
//! watermarks at 3/4 and 1/4 of queue capacity. Nothing searches it and
//! nothing reads a tuning profile, so this crate holds only shims:
//!
//! - [`Fingerprint`] — the host identity the benchmark stamps on every run
//!   it records;
//! - [`active`] and [`Tunables`] — an empty value that
//!   `ExecCtx::from_tunables` ignores;
//! - [`PROFILE_ENV`] and [`DEFAULT_PROFILE_PATH`] — the environment
//!   variable and file name the benchmark refuses to run beside. No program
//!   reads either.
//!
//! No workspace crate depends on this one.

pub mod fingerprint;

pub use fingerprint::{Fingerprint, ASSUMED_CACHE_LINE};

/// The environment variable that once named a tuning profile. Nothing
/// reads it.
pub const PROFILE_ENV: &str = "CHAMBOLLE_PROFILE";

/// The file name a tuning profile was once probed under in the working
/// directory. Nothing reads it.
pub const DEFAULT_PROFILE_PATH: &str = "chambolle.profile.json";

/// An empty schedule: no knob is left to tune.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tunables;

/// Returns [`Tunables`]. Reads no file and no environment variable.
pub fn active() -> Tunables {
    Tunables
}
