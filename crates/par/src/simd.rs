//! Runtime SIMD capability detection and backend selection.
//!
//! Every vector kernel in the workspace — the Chambolle row kernels of
//! `chambolle-core` at both numerics tiers and the pooled row kernels of
//! `chambolle-imaging` — dispatches on one [`KernelBackend`]: how wide a
//! vector unit the `f32` hot loops may use. The process-wide level is
//! resolved **once** by [`active`]:
//!
//! 1. if the `CHAMBOLLE_BACKEND` environment variable ([`BACKEND_ENV`]) is
//!    set to `scalar`, `sse2`, `avx2` or `avx512`, that level is requested;
//! 2. a requested level the CPU cannot run (or an unrecognised value) falls
//!    back to the best detected level, never to undefined behavior;
//! 3. with no override, the best supported level wins ([`detect`]).
//!
//! A backend can also be named explicitly (a test, a benchmark), including
//! one the host lacks. Every kernel family then
//! follows one rule: it runs the widest body the host supports at or below
//! the named level ([`KernelBackend::clamp_to_host`]).
//!
//! Under the default **Exact** numerics tier every level computes
//! **bit-identical** results — vector lanes replay the scalar operation
//! order with no fused multiply-add and no reassociation — so the choice,
//! and the clamp, change speed only. That contract is pinned by the
//! backend-exactness test matrix at the workspace root. Not every level has
//! its own bodies: the Exact core kernels run the scalar reference at SSE2
//! and the AVX2 bodies at AVX-512, the imaging vertical blur runs scalar at
//! SSE2, and the imaging gradient runs its SSE2 body at every vector level.
//! The Fast numerics tier (one fused row step each on AVX2+FMA and 16-lane
//! AVX-512, with the Exact term and an approximate-reciprocal update) is
//! validated by tolerance instead — see `chambolle-core`.

use std::sync::OnceLock;

use chambolle_telemetry::{names, Telemetry};

/// Environment variable that overrides the detected SIMD level.
pub const BACKEND_ENV: &str = "CHAMBOLLE_BACKEND";

/// The SIMD level a kernel runs at: the one vector-width selector of the
/// workspace.
///
/// Constructed explicitly (tests, benchmarks) or via
/// [`KernelBackend::active`] (production paths). A level the CPU lacks is
/// never executed: kernels clamp it with [`KernelBackend::clamp_to_host`],
/// so selection can change *speed*, never safety — and at the Exact tier
/// never bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelBackend {
    /// Plain scalar Rust — the reference everything else must match.
    Scalar,
    /// 128-bit SSE2 (4 × `f32` lanes). Baseline on every x86-64 CPU.
    Sse2,
    /// 256-bit AVX2 (8 × `f32` lanes).
    Avx2,
    /// 512-bit AVX-512F (16 × `f32` lanes).
    Avx512,
}

/// Every level, narrowest first.
const LEVELS: [KernelBackend; 4] = [
    KernelBackend::Scalar,
    KernelBackend::Sse2,
    KernelBackend::Avx2,
    KernelBackend::Avx512,
];

impl Default for KernelBackend {
    /// The process-wide active backend ([`KernelBackend::active`]).
    fn default() -> Self {
        KernelBackend::active()
    }
}

impl KernelBackend {
    /// The process-wide backend ([`active`]).
    pub fn active() -> Self {
        active()
    }

    /// The backend's SIMD level, which is the backend itself. The identity
    /// stays for the `benchmark/` harness, which still spells the
    /// conversion.
    pub fn simd_level(&self) -> KernelBackend {
        *self
    }

    /// Stable identifier used by `CHAMBOLLE_BACKEND`, telemetry and
    /// reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Sse2 => "sse2",
            KernelBackend::Avx2 => "avx2",
            KernelBackend::Avx512 => "avx512",
        }
    }

    /// `f32` lanes processed per vector op (1 for scalar).
    #[inline]
    pub fn lanes(&self) -> usize {
        match self {
            KernelBackend::Scalar => 1,
            KernelBackend::Sse2 => 4,
            KernelBackend::Avx2 => 8,
            KernelBackend::Avx512 => 16,
        }
    }

    /// Parses a `CHAMBOLLE_BACKEND` value (case-insensitive).
    pub fn parse(s: &str) -> Option<KernelBackend> {
        let s = s.trim().to_ascii_lowercase();
        LEVELS.into_iter().find(|level| level.as_str() == s)
    }

    /// Whether the current CPU can execute this level.
    #[inline]
    pub fn is_supported(&self) -> bool {
        match self {
            KernelBackend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Sse2 => is_x86_feature_detected!("sse2"),
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Avx2 => is_x86_feature_detected!("avx2"),
            // The AVX-512 level also requires AVX2 (its Exact tier runs the
            // AVX2 bodies) and FMA (its Fast-tier kernels contract); every
            // AVX-512F part ships both, but the dispatch contract must not
            // rest on that convention.
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Avx512 => {
                is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("avx2")
                    && is_x86_feature_detected!("fma")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The widest level at or below this one that the current CPU runs:
    /// the level a kernel family actually dispatches on. Always
    /// [`is_supported`](KernelBackend::is_supported).
    ///
    /// Inlined, with the supported case first, because the row kernels
    /// call it once per row.
    #[inline]
    pub fn clamp_to_host(self) -> KernelBackend {
        if self.is_supported() {
            return self;
        }
        LEVELS
            .into_iter()
            .rev()
            .find(|level| level.lanes() < self.lanes() && level.is_supported())
            .unwrap_or(KernelBackend::Scalar)
    }

    /// Records the `backend.*` gauges describing this backend and the
    /// host's capabilities into `telemetry`.
    pub fn record_telemetry(&self, telemetry: &Telemetry) {
        telemetry.gauge_set(names::BACKEND_SIMD_LANES, self.lanes() as f64);
        telemetry.gauge_set(
            names::BACKEND_SSE2_SUPPORTED,
            f64::from(KernelBackend::Sse2.is_supported()),
        );
        telemetry.gauge_set(
            names::BACKEND_AVX2_SUPPORTED,
            f64::from(KernelBackend::Avx2.is_supported()),
        );
        telemetry.gauge_set(
            names::BACKEND_AVX512_SUPPORTED,
            f64::from(KernelBackend::Avx512.is_supported()),
        );
    }
}

/// The widest [`KernelBackend`] the current CPU supports.
pub fn detect() -> KernelBackend {
    KernelBackend::Avx512.clamp_to_host()
}

/// Resolves an optional override string against the detected capabilities.
///
/// A requested level the CPU supports wins; anything else (unsupported
/// level, unrecognised value, no override) resolves to [`detect`]. This is
/// the pure core of [`active`], kept separate so tests can exercise the
/// policy without touching the process environment.
pub fn resolve(requested: Option<&str>) -> KernelBackend {
    match requested.and_then(KernelBackend::parse) {
        Some(level) if level.is_supported() => level,
        _ => detect(),
    }
}

/// The process-wide SIMD level: `CHAMBOLLE_BACKEND` override if valid and
/// supported, else the best detected level. Resolved once and cached.
pub fn active() -> KernelBackend {
    static ACTIVE: OnceLock<KernelBackend> = OnceLock::new();
    *ACTIVE.get_or_init(|| resolve(std::env::var(BACKEND_ENV).ok().as_deref()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_known_levels_case_insensitively() {
        assert_eq!(KernelBackend::parse("scalar"), Some(KernelBackend::Scalar));
        assert_eq!(KernelBackend::parse("SSE2"), Some(KernelBackend::Sse2));
        assert_eq!(KernelBackend::parse(" Avx2 "), Some(KernelBackend::Avx2));
        assert_eq!(KernelBackend::parse("AVX512"), Some(KernelBackend::Avx512));
        assert_eq!(KernelBackend::parse("avx512vl"), None);
        assert_eq!(KernelBackend::parse(""), None);
    }

    #[test]
    fn lanes_and_names_are_consistent() {
        for level in [
            KernelBackend::Scalar,
            KernelBackend::Sse2,
            KernelBackend::Avx2,
            KernelBackend::Avx512,
        ] {
            assert_eq!(KernelBackend::parse(level.as_str()), Some(level));
            assert!(level.lanes().is_power_of_two());
        }
        assert_eq!(KernelBackend::Scalar.lanes(), 1);
    }

    #[test]
    fn scalar_is_always_supported_and_detect_returns_supported() {
        assert!(KernelBackend::Scalar.is_supported());
        assert!(detect().is_supported());
    }

    #[test]
    fn clamp_keeps_supported_levels_and_narrows_the_rest() {
        for level in LEVELS {
            let clamped = level.clamp_to_host();
            assert!(clamped.is_supported(), "{level:?}");
            assert!(clamped.lanes() <= level.lanes(), "{level:?}");
            if level.is_supported() {
                assert_eq!(clamped, level);
            }
        }
        assert_eq!(KernelBackend::Scalar.clamp_to_host(), KernelBackend::Scalar);
    }

    #[test]
    fn resolve_honors_supported_overrides_and_rejects_the_rest() {
        assert_eq!(resolve(Some("scalar")), KernelBackend::Scalar);
        assert_eq!(resolve(Some("nonsense")), detect());
        assert_eq!(resolve(None), detect());
        if KernelBackend::Avx2.is_supported() {
            assert_eq!(resolve(Some("avx2")), KernelBackend::Avx2);
        } else {
            // An unsupported request clamps to the detected level.
            assert_eq!(resolve(Some("avx2")), detect());
        }
    }

    #[test]
    fn active_is_stable_across_calls() {
        assert_eq!(active(), active());
        assert!(active().is_supported());
        assert_eq!(KernelBackend::default(), KernelBackend::active());
    }
}
