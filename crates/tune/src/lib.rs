//! Auto-tuning subsystem (ROADMAP item 3).
//!
//! The schedule knobs of this workspace — pool width, imaging band
//! heuristics, kernel backend, numerics tier, service batching and
//! admission watermarks — were constants
//! picked for the paper's 2011-era hardware. This crate makes them
//! first-class:
//!
//! - [`knobs`] — the [`Tunables`] registry: every schedule knob with its
//!   documented default (exactly the historical constant), validation and
//!   hand-rolled-JSON serialization. Tuning changes *schedule, never
//!   math*: any valid `Tunables` produces bit-identical pixels.
//! - [`search`] — the enumerate-then-filter engine: coordinate descent
//!   with early pruning on a cheap proxy workload, then full measurement
//!   of the survivors. Measurement is injected as closures, so the engine
//!   has no opinion about workloads.
//! - [`fingerprint`] / [`profile`] — the per-machine profile store: a
//!   versioned `chambolle.tuning_profile.v2` JSON document keyed by host
//!   [`Fingerprint`], written by the `tune` bin and loaded at startup with
//!   total, non-panicking fallback to defaults.
//!
//! The crate sits *below* `chambolle-core` (it depends only on
//! `chambolle-telemetry` and on `chambolle-par`, whose
//! [`KernelBackend`](chambolle_par::KernelBackend) names the `backend`
//! knob), so core, imaging and service all read their schedule constants
//! from the process-wide [`active`] tunables.
//!
//! # Process-wide tunables
//!
//! [`active`] resolves once on first use — from the profile named by
//! `CHAMBOLLE_PROFILE` (or `chambolle.profile.json` in the working
//! directory, if present), falling back to [`Tunables::default`] on any
//! problem — and is then shared by every component that doesn't get an
//! explicit configuration. [`install`] swaps the active knobs (validated)
//! for drivers like the `tune` bin that measure many configurations in
//! one process.

pub mod fingerprint;
pub mod knobs;
pub mod profile;
pub mod search;

pub use fingerprint::{Fingerprint, ASSUMED_CACHE_LINE};
pub use knobs::{NumericsChoice, Tunables};
pub use profile::{
    env_profile_path, fallback_count, load_with_fallback, Profile, ProfileError,
    DEFAULT_PROFILE_PATH, PROFILE_ENV, PROFILE_SCHEMA,
};
pub use search::{
    coordinate_descent, SearchOptions, SearchOutcome, SearchSpace, Trial, TrialPhase,
};

use std::sync::{OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

use chambolle_telemetry::Telemetry;

static ACTIVE: OnceLock<RwLock<Tunables>> = OnceLock::new();

fn active_cell() -> &'static RwLock<Tunables> {
    ACTIVE.get_or_init(|| {
        let path = profile::env_profile_path();
        let (tunables, _err) = profile::load_with_fallback(path.as_deref(), &Telemetry::disabled());
        RwLock::new(tunables)
    })
}

fn read_active() -> RwLockReadGuard<'static, Tunables> {
    active_cell().read().unwrap_or_else(|e| e.into_inner())
}

fn write_active() -> RwLockWriteGuard<'static, Tunables> {
    active_cell().write().unwrap_or_else(|e| e.into_inner())
}

/// The process-wide active tunables.
///
/// The first call resolves them from the environment (see the crate docs);
/// later calls return the installed value. Total: never panics, never
/// fails — the worst case is [`Tunables::default`], the exact historical
/// constants.
pub fn active() -> Tunables {
    *read_active()
}

/// Replaces the process-wide active tunables, returning the previous ones.
///
/// # Errors
///
/// Rejects (and leaves the active knobs untouched) when `tunables` fails
/// [`Tunables::validate`].
pub fn install(tunables: Tunables) -> Result<Tunables, String> {
    tunables.validate()?;
    Ok(std::mem::replace(&mut *write_active(), tunables))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_defaults_and_install_round_trip() {
        // No CHAMBOLLE_PROFILE in the test environment: active() must be
        // the historical defaults.
        let initial = active();
        assert_eq!(initial, Tunables::default());

        let custom = Tunables {
            threads: 3,
            band_rows_divisor: 2,
            ..Tunables::default()
        };
        let previous = install(custom).unwrap();
        assert_eq!(previous, initial);
        assert_eq!(active(), custom);

        // Invalid knobs are rejected without clobbering the active set.
        let invalid = Tunables {
            threads: 0,
            ..Tunables::default()
        };
        assert!(install(invalid).is_err());
        assert_eq!(active(), custom);

        install(initial).unwrap();
        assert_eq!(active(), Tunables::default());
    }
}
