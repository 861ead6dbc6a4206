//! Host fingerprinting for tuning profiles.
//!
//! A tuning profile encodes a schedule that won a search **on one
//! machine**: its batch window fits that machine's cores. Loading it
//! elsewhere would be silently wrong (never incorrect — batching is
//! bit-exact — but arbitrarily slow), so every profile carries the
//! [`Fingerprint`] of the host that produced it and loaders reject
//! mismatches.

use chambolle_telemetry::json::JsonValue;

/// The cache-line size every schedule in this workspace assumes.
pub const ASSUMED_CACHE_LINE: usize = 64;

/// The identity of a host, as far as the schedule space cares.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Fingerprint {
    /// Target architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// Logical cores available to the process.
    pub cores: usize,
    /// Whether the CPU executes SSE2 (always true on x86-64).
    pub sse2: bool,
    /// Whether the CPU executes AVX2.
    pub avx2: bool,
    /// Cache-line size the schedule assumes, in bytes.
    pub cache_line: usize,
}

impl Fingerprint {
    /// Fingerprints the current host.
    pub fn detect() -> Fingerprint {
        #[cfg(target_arch = "x86_64")]
        let (sse2, avx2) = (
            std::arch::is_x86_feature_detected!("sse2"),
            std::arch::is_x86_feature_detected!("avx2"),
        );
        #[cfg(not(target_arch = "x86_64"))]
        let (sse2, avx2) = (false, false);
        Fingerprint {
            arch: std::env::consts::ARCH.to_string(),
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            sse2,
            avx2,
            cache_line: ASSUMED_CACHE_LINE,
        }
    }

    /// Whether a profile fingerprinted as `self` may be applied on a host
    /// fingerprinted as `other`: every field must agree.
    pub fn matches(&self, other: &Fingerprint) -> bool {
        self == other
    }

    /// Serializes the fingerprint as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("arch".into(), self.arch.as_str().into()),
            ("cores".into(), (self.cores as u64).into()),
            ("sse2".into(), self.sse2.into()),
            ("avx2".into(), self.avx2.into()),
            ("cache_line".into(), (self.cache_line as u64).into()),
        ])
    }

    /// Parses a profile `fingerprint` object.
    ///
    /// # Errors
    ///
    /// Returns a description of the missing or ill-typed field.
    pub fn from_json(value: &JsonValue) -> Result<Fingerprint, String> {
        let arch = value
            .get("arch")
            .and_then(JsonValue::as_str)
            .ok_or("missing fingerprint field \"arch\"")?
            .to_string();
        let num = |key: &str| -> Result<usize, String> {
            let raw = value
                .get(key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("missing fingerprint field {key:?}"))?;
            if !(raw.is_finite() && raw >= 0.0 && raw.fract() == 0.0) {
                return Err(format!("fingerprint field {key:?} must be an integer"));
            }
            Ok(raw as usize)
        };
        let flag = |key: &str| -> Result<bool, String> {
            match value.get(key) {
                Some(JsonValue::Bool(b)) => Ok(*b),
                _ => Err(format!("missing fingerprint field {key:?}")),
            }
        };
        Ok(Fingerprint {
            arch,
            cores: num("cores")?,
            sse2: flag("sse2")?,
            avx2: flag("avx2")?,
            cache_line: num("cache_line")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_is_stable_and_plausible() {
        let a = Fingerprint::detect();
        let b = Fingerprint::detect();
        assert!(a.matches(&b));
        assert!(a.cores >= 1);
        assert_eq!(a.cache_line, ASSUMED_CACHE_LINE);
        assert_eq!(a.arch, std::env::consts::ARCH);
    }

    #[test]
    fn json_round_trip_and_mismatch_detection() {
        let fp = Fingerprint::detect();
        let back = Fingerprint::from_json(&fp.to_json()).unwrap();
        assert!(fp.matches(&back));

        let other = Fingerprint {
            cores: fp.cores + 1,
            ..back
        };
        assert!(!fp.matches(&other));

        let err = Fingerprint::from_json(&JsonValue::Object(vec![])).unwrap_err();
        assert!(err.contains("arch"));
    }
}
