//! The versioned, fingerprinted tuning-profile store.
//!
//! A profile is a hand-rolled-JSON document with the stable schema
//! [`PROFILE_SCHEMA`] (`chambolle.tuning_profile.v2`):
//!
//! ```json
//! {
//!   "schema": "chambolle.tuning_profile.v2",
//!   "fingerprint": { "arch": "x86_64", "cores": 8, "sse2": true,
//!                    "avx2": true, "cache_line": 64 },
//!   "tunables": { "batch_window": 8, ... },
//!   "provenance": { ... }
//! }
//! ```
//!
//! Loading is **total**: every failure mode — missing file, truncated or
//! bit-flipped bytes, unknown schema version, a fingerprint from another
//! machine, knob values that fail validation — produces a structured
//! [`ProfileError`] and a fallback to [`Tunables::default`], never a panic.
//! Fallbacks are observable through the `tune.profile.fallback` telemetry
//! counter and the process-wide [`fallback_count`].

use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use chambolle_telemetry::json::JsonValue;
use chambolle_telemetry::{names, Telemetry};

use crate::fingerprint::Fingerprint;
use crate::knobs::Tunables;

/// Schema identifier of every profile this version reads and writes.
///
/// v2 added the `numerics` knob, which this build ignores on load like
/// every other retired solver knob. Loading is strict about the version: a
/// v1 (or any unknown-schema) document takes the total non-panicking
/// fallback to defaults below, exactly like any other unreadable profile —
/// old profiles can never be half-applied.
pub const PROFILE_SCHEMA: &str = "chambolle.tuning_profile.v2";

/// Environment variable naming the profile to load at startup.
pub const PROFILE_ENV: &str = "CHAMBOLLE_PROFILE";

/// Default profile path probed when [`PROFILE_ENV`] is unset.
pub const DEFAULT_PROFILE_PATH: &str = "chambolle.profile.json";

/// Process-wide tally of profile-load fallbacks (always on, unlike the
/// telemetry counter, so tests and operators can observe fallbacks from
/// paths that run with telemetry disabled).
static FALLBACKS: AtomicU64 = AtomicU64::new(0);

/// How many profile loads have fallen back to defaults in this process.
pub fn fallback_count() -> u64 {
    FALLBACKS.load(Ordering::Relaxed)
}

/// Why a profile could not be applied.
#[derive(Debug, Clone, PartialEq)]
pub enum ProfileError {
    /// The file could not be read (missing, unreadable, not UTF-8).
    Io(String),
    /// The bytes are not a JSON document of the expected shape.
    Parse(String),
    /// The document carries a different (e.g. future) schema version.
    Schema {
        /// The schema string found in the document, if any.
        found: Option<String>,
    },
    /// The profile was produced on a different machine.
    Fingerprint {
        /// The mismatching fingerprint recorded in the profile.
        profile: Box<Fingerprint>,
        /// The fingerprint of the current host.
        host: Box<Fingerprint>,
    },
    /// The knob values fail [`Tunables::validate`].
    Invalid(String),
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::Io(e) => write!(f, "cannot read profile: {e}"),
            ProfileError::Parse(e) => write!(f, "cannot parse profile: {e}"),
            ProfileError::Schema { found: Some(s) } => {
                write!(f, "unsupported profile schema {s:?} (expected {PROFILE_SCHEMA:?})")
            }
            ProfileError::Schema { found: None } => {
                write!(f, "profile carries no schema field (expected {PROFILE_SCHEMA:?})")
            }
            ProfileError::Fingerprint { profile, host } => write!(
                f,
                "profile was tuned for another machine ({} cores, avx2={}) — this host is ({} cores, avx2={})",
                profile.cores, profile.avx2, host.cores, host.avx2
            ),
            ProfileError::Invalid(e) => write!(f, "profile knobs are invalid: {e}"),
        }
    }
}

impl std::error::Error for ProfileError {}

/// A tuning profile: a fingerprint, the winning knobs, and optional
/// free-form provenance (search trials, speedups) that loaders preserve
/// but never interpret.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// The host the profile was tuned on.
    pub fingerprint: Fingerprint,
    /// The winning schedule.
    pub tunables: Tunables,
    /// Free-form provenance recorded by the `tune` bin (ignored on load).
    pub provenance: Option<JsonValue>,
}

impl Profile {
    /// A profile of `tunables` for the host `fingerprint`.
    pub fn new(fingerprint: Fingerprint, tunables: Tunables) -> Profile {
        Profile {
            fingerprint,
            tunables,
            provenance: None,
        }
    }

    /// Attaches free-form provenance (search trials, speedup summary).
    pub fn with_provenance(mut self, provenance: JsonValue) -> Profile {
        self.provenance = Some(provenance);
        self
    }

    /// Serializes the profile as a [`PROFILE_SCHEMA`] document.
    pub fn to_json(&self) -> JsonValue {
        let mut fields = vec![
            ("schema".into(), PROFILE_SCHEMA.into()),
            ("fingerprint".into(), self.fingerprint.to_json()),
            ("tunables".into(), self.tunables.to_json()),
        ];
        if let Some(p) = &self.provenance {
            fields.push(("provenance".into(), p.clone()));
        }
        JsonValue::Object(fields)
    }

    /// Parses a profile document, checking schema and knob validity but
    /// **not** the fingerprint (callers that apply the profile must check
    /// it against the host; [`Profile::load_for_host`] does both).
    ///
    /// # Errors
    ///
    /// [`ProfileError::Parse`], [`ProfileError::Schema`] or
    /// [`ProfileError::Invalid`].
    pub fn parse(text: &str) -> Result<Profile, ProfileError> {
        let doc = JsonValue::parse(text).map_err(|e| ProfileError::Parse(e.to_string()))?;
        let schema = doc.get("schema").and_then(JsonValue::as_str);
        if schema != Some(PROFILE_SCHEMA) {
            return Err(ProfileError::Schema {
                found: schema.map(str::to_string),
            });
        }
        let fingerprint = doc
            .get("fingerprint")
            .ok_or_else(|| ProfileError::Parse("missing fingerprint object".into()))
            .and_then(|v| Fingerprint::from_json(v).map_err(ProfileError::Parse))?;
        let tunables = doc
            .get("tunables")
            .ok_or_else(|| ProfileError::Parse("missing tunables object".into()))
            .and_then(|v| Tunables::from_json(v).map_err(ProfileError::Invalid))?;
        Ok(Profile {
            fingerprint,
            tunables,
            provenance: doc.get("provenance").cloned(),
        })
    }

    /// Writes the profile to `path` (pretty-printed, trailing newline).
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().to_string_pretty() + "\n")
    }

    /// Reads and parses the profile at `path` (no fingerprint check).
    ///
    /// # Errors
    ///
    /// Any [`ProfileError`]; never panics.
    pub fn load(path: impl AsRef<Path>) -> Result<Profile, ProfileError> {
        let text =
            std::fs::read_to_string(path.as_ref()).map_err(|e| ProfileError::Io(e.to_string()))?;
        Profile::parse(&text)
    }

    /// Reads the profile at `path` and checks it against `host`.
    ///
    /// # Errors
    ///
    /// Any [`ProfileError`], including [`ProfileError::Fingerprint`] when
    /// the profile was tuned on a different machine; never panics.
    pub fn load_for_host(
        path: impl AsRef<Path>,
        host: &Fingerprint,
    ) -> Result<Profile, ProfileError> {
        let profile = Profile::load(path)?;
        if !profile.fingerprint.matches(host) {
            return Err(ProfileError::Fingerprint {
                profile: Box::new(profile.fingerprint),
                host: Box::new(host.clone()),
            });
        }
        Ok(profile)
    }
}

/// Loads the knobs to run with: the profile at `path` if it exists, parses,
/// matches this host and validates — [`Tunables::default`] otherwise.
///
/// This is the **total** loader every startup path uses: it cannot panic
/// and cannot fail. A fallback bumps the `tune.profile.fallback` counter on
/// `telemetry` and the process-wide [`fallback_count`], and hands the error
/// back for optional operator-facing logging; a success bumps
/// `tune.profile.loaded`.
pub fn load_with_fallback(
    path: Option<&str>,
    telemetry: &Telemetry,
) -> (Tunables, Option<ProfileError>) {
    let Some(path) = path else {
        return (Tunables::default(), None);
    };
    match Profile::load_for_host(path, &Fingerprint::detect()) {
        Ok(profile) => {
            telemetry.counter_add(names::TUNE_PROFILE_LOADED, 1);
            (profile.tunables, None)
        }
        Err(err) => {
            FALLBACKS.fetch_add(1, Ordering::Relaxed);
            telemetry.counter_add(names::TUNE_PROFILE_FALLBACK, 1);
            (Tunables::default(), Some(err))
        }
    }
}

/// The profile path named by the environment, if any: [`PROFILE_ENV`] when
/// set (empty disables), else [`DEFAULT_PROFILE_PATH`] when such a file
/// exists.
pub fn env_profile_path() -> Option<String> {
    match std::env::var(PROFILE_ENV) {
        Ok(path) if !path.is_empty() => Some(path),
        Ok(_) => None,
        Err(_) => Path::new(DEFAULT_PROFILE_PATH)
            .exists()
            .then(|| DEFAULT_PROFILE_PATH.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("chambolle_tune_{}_{name}", std::process::id()));
        p
    }

    #[test]
    fn save_load_round_trip_preserves_the_profile() {
        let profile = Profile::new(
            Fingerprint::detect(),
            Tunables {
                batch_window: 4,
                ..Tunables::default()
            },
        )
        .with_provenance(JsonValue::Object(vec![(
            "speedup".into(),
            JsonValue::from(1.25),
        )]));
        let path = tmp("roundtrip.json");
        profile.save(&path).unwrap();
        let back = Profile::load(&path).unwrap();
        assert_eq!(profile, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_with_fallback_is_total() {
        let before = fallback_count();
        // Missing file.
        let (t, err) =
            load_with_fallback(Some("/nonexistent/profile.json"), &Telemetry::disabled());
        assert_eq!(t, Tunables::default());
        assert!(matches!(err, Some(ProfileError::Io(_))));
        // Garbage bytes.
        let path = tmp("garbage.json");
        std::fs::write(&path, b"{ not json").unwrap();
        let (t, err) = load_with_fallback(path.to_str(), &Telemetry::disabled());
        assert_eq!(t, Tunables::default());
        assert!(matches!(err, Some(ProfileError::Parse(_))));
        // Wrong schema version (a future one).
        let bumped = Profile::new(Fingerprint::detect(), Tunables::default())
            .to_json()
            .to_string()
            .replace("tuning_profile.v2", "tuning_profile.v3");
        std::fs::write(&path, bumped).unwrap();
        let (_, err) = load_with_fallback(path.to_str(), &Telemetry::disabled());
        assert!(matches!(err, Some(ProfileError::Schema { found: Some(_) })));
        // An old v1 profile (pre-`numerics` schema): total fallback, no
        // panic, no half-applied knobs.
        let v1 = Profile::new(Fingerprint::detect(), Tunables::default())
            .to_json()
            .to_string()
            .replace("tuning_profile.v2", "tuning_profile.v1");
        std::fs::write(&path, v1).unwrap();
        let (t, err) = load_with_fallback(path.to_str(), &Telemetry::disabled());
        assert_eq!(t, Tunables::default());
        assert!(
            matches!(err, Some(ProfileError::Schema { found: Some(ref s) }) if s.ends_with("v1"))
        );
        // Wrong machine.
        let mut fp = Fingerprint::detect();
        fp.cores += 1;
        Profile::new(fp, Tunables::default()).save(&path).unwrap();
        let tele = Telemetry::null();
        let (t, err) = load_with_fallback(path.to_str(), &tele);
        assert_eq!(t, Tunables::default());
        assert!(matches!(err, Some(ProfileError::Fingerprint { .. })));
        assert_eq!(
            tele.snapshot().counter(names::TUNE_PROFILE_FALLBACK),
            Some(1)
        );
        assert!(fallback_count() >= before + 4);
        // A matching profile loads (and bumps the loaded counter).
        Profile::new(Fingerprint::detect(), Tunables::default())
            .save(&path)
            .unwrap();
        let tele = Telemetry::null();
        let (t, err) = load_with_fallback(path.to_str(), &tele);
        assert_eq!(t, Tunables::default());
        assert!(err.is_none());
        assert_eq!(tele.snapshot().counter(names::TUNE_PROFILE_LOADED), Some(1));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn errors_render_operator_readable_messages() {
        let host = Fingerprint::detect();
        let mut other = host.clone();
        other.cores += 2;
        let err = ProfileError::Fingerprint {
            profile: Box::new(other),
            host: Box::new(host),
        };
        assert!(err.to_string().contains("another machine"));
        assert!(ProfileError::Schema { found: None }
            .to_string()
            .contains(PROFILE_SCHEMA));
    }
}
