//! Runtime SIMD capability detection and backend selection.
//!
//! The kernel backends in `chambolle-core` and the row kernels in
//! `chambolle-imaging` dispatch on a [`SimdLevel`]: how wide a vector unit
//! the current process may use for the `f32` hot loops. The level is
//! resolved **once** per process by [`active`]:
//!
//! 1. if the `CHAMBOLLE_BACKEND` environment variable ([`BACKEND_ENV`]) is
//!    set to `scalar`, `sse2`, `avx2` or `avx512`, that level is requested;
//! 2. a requested level the CPU cannot run (or an unrecognised value) falls
//!    back to the best detected level, never to undefined behavior;
//! 3. with no override, the best supported level wins ([`detect`]).
//!
//! Under the default **Exact** numerics tier every level computes
//! **bit-identical** results for the elementwise kernels — vector lanes
//! replay the scalar operation order with no fused multiply-add and no
//! reassociation — so the choice is purely a throughput knob. That contract
//! is pinned by the backend-exactness test matrix at the workspace root.
//! (Not every level has its own bodies: the Exact core kernels run the
//! scalar reference at SSE2 and the AVX2 bodies at AVX-512, and the imaging
//! gradient and residual fill run their SSE2 bodies at every vector level.
//! The AVX-512 level's 16-lane FMA kernels belong to the Fast numerics
//! tier, which is validated by tolerance instead — see `chambolle-core`.)

use std::sync::OnceLock;

/// Environment variable that overrides the detected SIMD level.
pub const BACKEND_ENV: &str = "CHAMBOLLE_BACKEND";

/// Vector width class used by the `f32` row kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SimdLevel {
    /// Plain scalar Rust — the reference everything else must match.
    #[default]
    Scalar,
    /// 128-bit SSE2 (4 × `f32` lanes). Baseline on every x86-64 CPU.
    Sse2,
    /// 256-bit AVX2 (8 × `f32` lanes).
    Avx2,
    /// 512-bit AVX-512F (16 × `f32` lanes).
    Avx512,
}

impl SimdLevel {
    /// Stable identifier used by `CHAMBOLLE_BACKEND`, telemetry and reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
        }
    }

    /// `f32` lanes processed per vector op (1 for scalar).
    pub fn lanes(&self) -> usize {
        match self {
            SimdLevel::Scalar => 1,
            SimdLevel::Sse2 => 4,
            SimdLevel::Avx2 => 8,
            SimdLevel::Avx512 => 16,
        }
    }

    /// Parses a `CHAMBOLLE_BACKEND` value (case-insensitive).
    pub fn parse(s: &str) -> Option<SimdLevel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(SimdLevel::Scalar),
            "sse2" => Some(SimdLevel::Sse2),
            "avx2" => Some(SimdLevel::Avx2),
            "avx512" => Some(SimdLevel::Avx512),
            _ => None,
        }
    }

    /// Whether the current CPU can execute this level.
    pub fn is_supported(&self) -> bool {
        match self {
            SimdLevel::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Sse2 => is_x86_feature_detected!("sse2"),
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => is_x86_feature_detected!("avx2"),
            // The AVX-512 level also requires AVX2 (its Exact tier runs the
            // AVX2 bodies) and FMA (its Fast-tier kernels contract); every
            // AVX-512F part ships both, but the dispatch contract must not
            // rest on that convention.
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx512 => {
                is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("avx2")
                    && is_x86_feature_detected!("fma")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }
}

/// The widest [`SimdLevel`] the current CPU supports.
pub fn detect() -> SimdLevel {
    if SimdLevel::Avx512.is_supported() {
        SimdLevel::Avx512
    } else if SimdLevel::Avx2.is_supported() {
        SimdLevel::Avx2
    } else if SimdLevel::Sse2.is_supported() {
        SimdLevel::Sse2
    } else {
        SimdLevel::Scalar
    }
}

/// Resolves an optional override string against the detected capabilities.
///
/// A requested level the CPU supports wins; anything else (unsupported
/// level, unrecognised value, no override) resolves to [`detect`]. This is
/// the pure core of [`active`], kept separate so tests can exercise the
/// policy without touching the process environment.
pub fn resolve(requested: Option<&str>) -> SimdLevel {
    match requested.and_then(SimdLevel::parse) {
        Some(level) if level.is_supported() => level,
        _ => detect(),
    }
}

/// The process-wide SIMD level: `CHAMBOLLE_BACKEND` override if valid and
/// supported, else the best detected level. Resolved once and cached.
pub fn active() -> SimdLevel {
    static ACTIVE: OnceLock<SimdLevel> = OnceLock::new();
    *ACTIVE.get_or_init(|| resolve(std::env::var(BACKEND_ENV).ok().as_deref()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_known_levels_case_insensitively() {
        assert_eq!(SimdLevel::parse("scalar"), Some(SimdLevel::Scalar));
        assert_eq!(SimdLevel::parse("SSE2"), Some(SimdLevel::Sse2));
        assert_eq!(SimdLevel::parse(" Avx2 "), Some(SimdLevel::Avx2));
        assert_eq!(SimdLevel::parse("AVX512"), Some(SimdLevel::Avx512));
        assert_eq!(SimdLevel::parse("avx512vl"), None);
        assert_eq!(SimdLevel::parse(""), None);
    }

    #[test]
    fn lanes_and_names_are_consistent() {
        for level in [
            SimdLevel::Scalar,
            SimdLevel::Sse2,
            SimdLevel::Avx2,
            SimdLevel::Avx512,
        ] {
            assert_eq!(SimdLevel::parse(level.as_str()), Some(level));
            assert!(level.lanes().is_power_of_two());
        }
        assert_eq!(SimdLevel::Scalar.lanes(), 1);
    }

    #[test]
    fn scalar_is_always_supported_and_detect_returns_supported() {
        assert!(SimdLevel::Scalar.is_supported());
        assert!(detect().is_supported());
    }

    #[test]
    fn resolve_honors_supported_overrides_and_rejects_the_rest() {
        assert_eq!(resolve(Some("scalar")), SimdLevel::Scalar);
        assert_eq!(resolve(Some("nonsense")), detect());
        assert_eq!(resolve(None), detect());
        if SimdLevel::Avx2.is_supported() {
            assert_eq!(resolve(Some("avx2")), SimdLevel::Avx2);
        } else {
            // An unsupported request clamps to the detected level.
            assert_eq!(resolve(Some("avx2")), detect());
        }
    }

    #[test]
    fn active_is_stable_across_calls() {
        assert_eq!(active(), active());
        assert!(active().is_supported());
    }
}
