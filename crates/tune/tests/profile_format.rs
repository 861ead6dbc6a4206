//! The on-disk tuning-profile format, pinned by literal documents.
//!
//! The round-trip suites only prove that a profile this build writes is one
//! this build reads. A renamed token would pass them and still send every
//! profile saved by an earlier build to the fallback. The two input
//! documents are verbatim `chambolle.tuning_profile.v2` output of an
//! earlier `Profile::to_json`, which still wrote the four retired
//! window-geometry knobs. They must keep parsing to the same knobs, and
//! save back to the same bytes without those four lines.

use std::path::PathBuf;

use chambolle_par::KernelBackend;
use chambolle_tune::{Fingerprint, NumericsChoice, Profile, Tunables};

/// A profile with every knob at its default, `backend` included.
const AUTO_DOC: &str = r#"{
  "schema": "chambolle.tuning_profile.v2",
  "fingerprint": {
    "arch": "x86_64",
    "cores": 2,
    "sse2": true,
    "avx2": true,
    "cache_line": 64
  },
  "tunables": {
    "tile_width": 92,
    "tile_height": 88,
    "merge_factor": 2,
    "halo_margin": 0,
    "threads": 2,
    "band_rows_divisor": 4,
    "backend": "auto",
    "numerics": "auto",
    "batch_window": 8,
    "high_watermark_pct": 75,
    "low_watermark_pct": 25
  }
}"#;

/// A tuned profile that pins the AVX2 backend and the Exact tier.
const AVX2_DOC: &str = r#"{
  "schema": "chambolle.tuning_profile.v2",
  "fingerprint": {
    "arch": "x86_64",
    "cores": 2,
    "sse2": true,
    "avx2": true,
    "cache_line": 64
  },
  "tunables": {
    "tile_width": 128,
    "tile_height": 96,
    "merge_factor": 3,
    "halo_margin": 1,
    "threads": 2,
    "band_rows_divisor": 2,
    "backend": "avx2",
    "numerics": "exact",
    "batch_window": 4,
    "high_watermark_pct": 80,
    "low_watermark_pct": 20
  }
}"#;

/// What this build saves for [`AUTO_DOC`].
const AUTO_SAVED: &str = r#"{
  "schema": "chambolle.tuning_profile.v2",
  "fingerprint": {
    "arch": "x86_64",
    "cores": 2,
    "sse2": true,
    "avx2": true,
    "cache_line": 64
  },
  "tunables": {
    "threads": 2,
    "band_rows_divisor": 4,
    "backend": "auto",
    "numerics": "auto",
    "batch_window": 8,
    "high_watermark_pct": 75,
    "low_watermark_pct": 25
  }
}"#;

/// What this build saves for [`AVX2_DOC`].
const AVX2_SAVED: &str = r#"{
  "schema": "chambolle.tuning_profile.v2",
  "fingerprint": {
    "arch": "x86_64",
    "cores": 2,
    "sse2": true,
    "avx2": true,
    "cache_line": 64
  },
  "tunables": {
    "threads": 2,
    "band_rows_divisor": 2,
    "backend": "avx2",
    "numerics": "exact",
    "batch_window": 4,
    "high_watermark_pct": 80,
    "low_watermark_pct": 20
  }
}"#;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "chambolle_tune_format_{}_{name}",
        std::process::id()
    ));
    p
}

#[test]
fn literal_v2_profiles_parse_and_save_unchanged() {
    let avx2 = Tunables {
        threads: 2,
        band_rows_divisor: 2,
        backend: Some(KernelBackend::Avx2),
        numerics: NumericsChoice::Exact,
        batch_window: 4,
        high_watermark_pct: 80,
        low_watermark_pct: 20,
    };
    let host = Fingerprint {
        arch: "x86_64".into(),
        cores: 2,
        sse2: true,
        avx2: true,
        cache_line: 64,
    };
    for (name, doc, saved_doc, tunables, token) in [
        ("auto", AUTO_DOC, AUTO_SAVED, Tunables::default(), "auto"),
        ("avx2", AVX2_DOC, AVX2_SAVED, avx2, "avx2"),
    ] {
        let profile = Profile::parse(doc).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(profile.tunables, tunables, "{name}");
        assert_eq!(profile.fingerprint, host, "{name}");

        let path = tmp(name);
        profile.save(&path).expect("temp dir is writable");
        let saved = std::fs::read_to_string(&path).expect("just written");
        let _ = std::fs::remove_file(&path);
        let line = format!("\"backend\": \"{token}\",");
        assert!(saved.contains(&line), "{name}: {saved}");
        assert_eq!(saved.trim_end(), saved_doc, "{name}");
        let reparsed = Profile::parse(&saved).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(reparsed, profile, "{name}");
    }
}
