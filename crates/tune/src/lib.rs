//! Auto-tuning subsystem for the service schedule.
//!
//! The service's batching window and admission watermarks were constants
//! picked for the paper's 2011-era hardware. This crate makes them
//! first-class:
//!
//! - [`knobs`] — the [`Tunables`] registry: each service knob with its
//!   documented default (exactly the historical constant), validation and
//!   hand-rolled-JSON serialization. No knob reaches a solve: the solver's
//!   schedule follows from the frame and the pool width.
//! - [`search`] — the enumerate-then-filter engine: coordinate descent
//!   with early pruning on a cheap proxy workload, then full measurement
//!   of the survivors. Measurement is injected as closures, so the engine
//!   has no opinion about workloads.
//! - [`fingerprint`] / [`profile`] — the per-machine profile store: a
//!   versioned `chambolle.tuning_profile.v2` JSON document keyed by host
//!   [`Fingerprint`], written by the `tune` bin and loaded at startup with
//!   total, non-panicking fallback to defaults.
//!
//! The crate sits *below* `chambolle-core` and `chambolle-service` (it
//! depends only on `chambolle-telemetry`), so the service reads its
//! schedule constants from the process-wide [`active`] tunables.
//!
//! # Process-wide tunables
//!
//! [`active`] resolves once on first use — from the profile named by
//! `CHAMBOLLE_PROFILE` (or `chambolle.profile.json` in the working
//! directory, if present), falling back to [`Tunables::default`] on any
//! problem — and is then shared by every component that doesn't get an
//! explicit configuration.

pub mod fingerprint;
pub mod knobs;
pub mod profile;
pub mod search;

pub use fingerprint::{Fingerprint, ASSUMED_CACHE_LINE};
pub use knobs::Tunables;
pub use profile::{
    env_profile_path, fallback_count, load_with_fallback, Profile, ProfileError,
    DEFAULT_PROFILE_PATH, PROFILE_ENV, PROFILE_SCHEMA,
};
pub use search::{
    coordinate_descent, SearchOptions, SearchOutcome, SearchSpace, Trial, TrialPhase,
};

use std::sync::OnceLock;

use chambolle_telemetry::Telemetry;

/// The process-wide active tunables.
///
/// The first call resolves them from the environment (see the crate docs);
/// later calls return the same value. Total: never panics, never fails —
/// the worst case is [`Tunables::default`], the exact historical constants.
pub fn active() -> Tunables {
    static ACTIVE: OnceLock<Tunables> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        let path = profile::env_profile_path();
        profile::load_with_fallback(path.as_deref(), &Telemetry::disabled()).0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_is_the_defaults_without_a_profile() {
        // No CHAMBOLLE_PROFILE in the test environment: active() must be
        // the historical defaults.
        assert_eq!(active(), Tunables::default());
    }
}
