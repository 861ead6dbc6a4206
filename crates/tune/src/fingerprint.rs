//! Host fingerprinting: the benchmark stamps every run it records with the
//! [`Fingerprint`] of the host, and compares numbers only within one.

use chambolle_telemetry::json::JsonValue;

/// The cache-line size every schedule in this workspace assumes.
pub const ASSUMED_CACHE_LINE: usize = 64;

/// The identity of a host, as far as a measured number cares.
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_is_stable_and_plausible() {
        let a = Fingerprint::detect();
        let b = Fingerprint::detect();
        assert_eq!(a, b);
        assert!(a.cores >= 1);
        assert_eq!(a.cache_line, ASSUMED_CACHE_LINE);
        assert_eq!(a.arch, std::env::consts::ARCH);
    }
}
