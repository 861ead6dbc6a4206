//! Corruption robustness of the tuning-profile loader.
//!
//! The loader contract is **totality**: whatever bytes sit at the profile
//! path — truncated documents, bit-flipped bytes, future schema versions,
//! profiles tuned on another machine — `load_with_fallback` returns a
//! schedule that validates (the defaults on any failure), reports the
//! failure through the `tune.profile.fallback` counter and the process-wide
//! [`fallback_count`], and never panics.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use chambolle_par::KernelBackend;
use chambolle_telemetry::{names, Telemetry};
use chambolle_tune::{
    fallback_count, load_with_fallback, Fingerprint, NumericsChoice, Profile, ProfileError,
    Tunables,
};
use proptest::prelude::*;

/// A distinct temp path per call, so proptest cases never race each other.
fn tmp(name: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let mut p = std::env::temp_dir();
    p.push(format!(
        "chambolle_tune_robust_{}_{n}_{name}",
        std::process::id()
    ));
    p
}

/// An arbitrary *valid* schedule drawn from the given raw knob values
/// (`None` if the combination fails validation — callers `prop_assume`).
fn tunables_from(
    threads: usize,
    band_rows_divisor: usize,
    backend: u8,
    batch_window: usize,
    low_pct: u8,
    high_pct: u8,
) -> Option<Tunables> {
    let numerics = match backend / 5 % 3 {
        0 => NumericsChoice::Auto,
        1 => NumericsChoice::Exact,
        _ => NumericsChoice::Fast,
    };
    let backend = match backend % 5 {
        0 => None,
        1 => Some(KernelBackend::Scalar),
        2 => Some(KernelBackend::Sse2),
        3 => Some(KernelBackend::Avx2),
        _ => Some(KernelBackend::Avx512),
    };
    let t = Tunables {
        threads,
        band_rows_divisor,
        backend,
        numerics,
        batch_window,
        high_watermark_pct: high_pct,
        low_watermark_pct: low_pct,
    };
    t.validate().ok().map(|()| t)
}

/// Runs `f` while no other test loads a profile. A failed load bumps the
/// process-wide [`fallback_count`], and the tests of this binary run on
/// parallel threads, so without this a concurrent fallback could land
/// between a reading of the count and its check.
fn serialized<T>(f: impl FnOnce() -> T) -> T {
    static LOADS: Mutex<()> = Mutex::new(());
    let _guard = LOADS.lock().unwrap_or_else(|e| e.into_inner());
    f()
}

/// Loads `text` from disk through the total loader and checks the
/// invariant: the returned schedule always validates, and on any reported
/// error it is exactly the default with both fallback tallies bumped.
fn assert_total(text: &[u8], label: &str) -> Result<(), TestCaseError> {
    let path = tmp(label);
    std::fs::write(&path, text).expect("write corrupted profile");
    let telemetry = Telemetry::null();
    let (before, (tunables, err), after) = serialized(|| {
        let before = fallback_count();
        let loaded = load_with_fallback(path.to_str(), &telemetry);
        (before, loaded, fallback_count())
    });
    std::fs::remove_file(&path).ok();

    prop_assert!(
        tunables.validate().is_ok(),
        "loader returned an invalid schedule for {label}: {tunables:?}"
    );
    let snap = telemetry.snapshot();
    if err.is_some() {
        prop_assert_eq!(
            tunables,
            Tunables::default(),
            "a fallback must hand back the defaults"
        );
        prop_assert_eq!(after, before + 1);
        prop_assert_eq!(snap.counter(names::TUNE_PROFILE_FALLBACK), Some(1));
    } else {
        prop_assert_eq!(snap.counter(names::TUNE_PROFILE_LOADED), Some(1));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Save → parse round-trips every valid schedule exactly.
    #[test]
    fn round_trip_preserves_arbitrary_valid_schedules(
        schedule in (1usize..17, 1usize..17, any::<u8>(), 1usize..33),
        watermarks in (0u8..60, 40u8..101),
    ) {
        let (threads, divisor, backend, batch) = schedule;
        let (low, high) = watermarks;
        let candidate = tunables_from(threads, divisor, backend, batch, low, high);
        prop_assume!(candidate.is_some());
        let profile = Profile::new(Fingerprint::detect(), candidate.unwrap());
        let back = Profile::parse(&profile.to_json().to_string_pretty())
            .expect("serialized profile must parse");
        prop_assert_eq!(profile, back);
    }

    /// Truncating a valid profile anywhere before its closing brace falls
    /// back to defaults without panicking.
    #[test]
    fn truncated_profiles_fall_back(cut_frac in 0.0f64..1.0) {
        let text = Profile::new(Fingerprint::detect(), Tunables::default())
            .to_json()
            .to_string_pretty();
        let close = text.rfind('}').expect("document has a closing brace");
        let cut = (cut_frac * close as f64) as usize;
        assert_total(&text.as_bytes()[..cut], "truncated")?;
    }

    /// A single flipped bit anywhere in the document never panics the
    /// loader: it either still yields a valid schedule (the flip landed in
    /// provenance-grade content) or falls back to defaults.
    #[test]
    fn bit_flipped_profiles_never_panic(byte_frac in 0.0f64..1.0, bit in 0u32..8) {
        let mut bytes = Profile::new(Fingerprint::detect(), Tunables::default())
            .to_json()
            .to_string_pretty()
            .into_bytes();
        let idx = (byte_frac * (bytes.len() - 1) as f64) as usize;
        bytes[idx] ^= 1 << bit;
        assert_total(&bytes, "bitflip")?;
    }

    /// Arbitrary byte soup — not even JSON — falls back cleanly.
    #[test]
    fn random_bytes_fall_back(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // A random blob is not a valid profile unless it miraculously spells
        // one out; the totality invariant covers both outcomes.
        assert_total(&bytes, "soup")?;
    }
}

/// A document nested far deeper than any profile falls back instead of
/// overflowing the parser's stack.
#[test]
fn deeply_nested_profile_falls_back() {
    assert_total("[".repeat(200_000).as_bytes(), "deep").expect("the loader stays total");
}

#[test]
fn version_bumped_schema_falls_back() {
    let bumped = Profile::new(Fingerprint::detect(), Tunables::default())
        .to_json()
        .to_string_pretty()
        .replace("tuning_profile.v2", "tuning_profile.v3");
    let path = tmp("schema_bump");
    std::fs::write(&path, bumped).unwrap();
    let telemetry = Telemetry::null();
    let (tunables, err) = serialized(|| load_with_fallback(path.to_str(), &telemetry));
    std::fs::remove_file(&path).ok();

    assert_eq!(tunables, Tunables::default());
    assert!(matches!(err, Some(ProfileError::Schema { found: Some(s) }) if s.ends_with("v3")));
    assert_eq!(
        telemetry.snapshot().counter(names::TUNE_PROFILE_FALLBACK),
        Some(1)
    );
}

#[test]
fn v1_profile_without_numerics_knob_falls_back_totally() {
    // A faithful pre-PR-10 document: v1 schema string and no `numerics`
    // knob. The loader must take the total fallback (defaults, fallback
    // counter bumped) rather than guess at the missing tier.
    let mut text = Profile::new(Fingerprint::detect(), Tunables::default())
        .to_json()
        .to_string_pretty()
        .replace("tuning_profile.v2", "tuning_profile.v1");
    let numerics_line = text
        .lines()
        .find(|l| l.contains("\"numerics\""))
        .expect("v2 documents carry the numerics knob")
        .to_string();
    text = text.replace(&format!("{numerics_line}\n"), "");
    let path = tmp("v1_legacy");
    std::fs::write(&path, &text).unwrap();
    let telemetry = Telemetry::null();
    let (tunables, err) = serialized(|| load_with_fallback(path.to_str(), &telemetry));
    std::fs::remove_file(&path).ok();

    assert_eq!(tunables, Tunables::default());
    assert!(matches!(err, Some(ProfileError::Schema { found: Some(s) }) if s.ends_with("v1")));
    assert_eq!(
        telemetry.snapshot().counter(names::TUNE_PROFILE_FALLBACK),
        Some(1)
    );
}

#[test]
fn v2_profile_missing_numerics_knob_falls_back() {
    // Claims the current schema but lost the numerics knob: strict knob
    // parsing refuses it and the loader falls back whole.
    let text = Profile::new(Fingerprint::detect(), Tunables::default())
        .to_json()
        .to_string_pretty();
    let numerics_line = text
        .lines()
        .find(|l| l.contains("\"numerics\""))
        .expect("v2 documents carry the numerics knob")
        .to_string();
    let text = text.replace(&format!("{numerics_line}\n"), "");
    let path = tmp("v2_missing_numerics");
    std::fs::write(&path, &text).unwrap();
    let (tunables, err) = serialized(|| load_with_fallback(path.to_str(), &Telemetry::disabled()));
    std::fs::remove_file(&path).ok();

    assert_eq!(tunables, Tunables::default());
    assert!(matches!(err, Some(ProfileError::Invalid(msg)) if msg.contains("numerics")));
}

#[test]
fn wrong_fingerprint_falls_back() {
    let mut other = Fingerprint::detect();
    other.cores += 7;
    let profile = Profile::new(
        other,
        Tunables {
            threads: 3,
            ..Tunables::default()
        },
    );
    let path = tmp("wrong_host");
    profile.save(&path).unwrap();
    let telemetry = Telemetry::null();
    let (tunables, err) = serialized(|| load_with_fallback(path.to_str(), &telemetry));
    std::fs::remove_file(&path).ok();

    assert_eq!(
        tunables,
        Tunables::default(),
        "another machine's schedule must not apply"
    );
    assert!(matches!(err, Some(ProfileError::Fingerprint { .. })));
    assert_eq!(
        telemetry.snapshot().counter(names::TUNE_PROFILE_FALLBACK),
        Some(1)
    );
}

#[test]
fn valid_knobs_that_fail_validation_fall_back() {
    // Structurally perfect JSON, semantically impossible schedule: a batch
    // window that coalesces no request.
    let profile = Profile::new(Fingerprint::detect(), Tunables::default());
    let text = profile
        .to_json()
        .to_string_pretty()
        .replace("\"batch_window\": 8", "\"batch_window\": 0");
    let path = tmp("invalid_knobs");
    std::fs::write(&path, text).unwrap();
    let (tunables, err) = serialized(|| load_with_fallback(path.to_str(), &Telemetry::disabled()));
    std::fs::remove_file(&path).ok();

    assert_eq!(tunables, Tunables::default());
    assert!(matches!(err, Some(ProfileError::Invalid(_))));
}

/// This host's own profile asking for a million workers would make every
/// default solve try to spawn them. It falls back to the defaults instead.
/// The check runs through parsing and validation only; no pool is built.
#[test]
fn absurd_thread_count_falls_back() {
    let text = Profile::new(Fingerprint::detect(), Tunables::default())
        .to_json()
        .to_string_pretty()
        .replace("\"threads\": 2", "\"threads\": 1000000");
    assert!(text.contains("1000000"), "the knob was rewritten");
    let path = tmp("absurd_threads");
    std::fs::write(&path, text).unwrap();
    let telemetry = Telemetry::null();
    let (tunables, err) = serialized(|| load_with_fallback(path.to_str(), &telemetry));
    std::fs::remove_file(&path).ok();

    assert_eq!(tunables, Tunables::default());
    assert!(matches!(err, Some(ProfileError::Invalid(msg)) if msg.contains("threads")));
    assert_eq!(
        telemetry.snapshot().counter(names::TUNE_PROFILE_FALLBACK),
        Some(1)
    );
}
