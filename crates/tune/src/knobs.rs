//! The knob registry: every schedule constant the stack used to hardcode,
//! pulled into one serializable [`Tunables`] value.
//!
//! The defaults are **exactly** the constants the code shipped with before
//! auto-tuning existed — two pool workers, the `height / (threads * 4)`
//! band heuristic of `imaging::grid::par_band_rows`, batches of up to 8
//! with watermarks at 3/4 and 1/4 of queue capacity
//! (`service::ServiceConfig::new`), and the auto-detected kernel backend —
//! so a process that never loads a profile behaves byte-for-byte as before.
//!
//! Every knob but `numerics` is a *schedule* choice: by the exactness
//! contracts pinned across the workspace (pooled == sequential, every
//! backend bit-identical, batched == solo), changing it changes **time,
//! never bits**.

use chambolle_par::KernelBackend;
use chambolle_telemetry::json::JsonValue;

/// The profile token of a backend knob: `auto` for `None`, else the
/// level's [`KernelBackend::as_str`].
fn backend_token(backend: Option<KernelBackend>) -> &'static str {
    backend.map_or("auto", |b| b.as_str())
}

/// Parses a profile backend token: exactly one of `auto`, `scalar`,
/// `sse2`, `avx2` or `avx512` (profiles are machine-written, so unlike
/// `CHAMBOLLE_BACKEND` the match is exact).
fn parse_backend_token(token: &str) -> Option<Option<KernelBackend>> {
    if token == "auto" {
        return Some(None);
    }
    KernelBackend::parse(token)
        .filter(|b| b.as_str() == token)
        .map(Some)
}

/// Which numerics tier solves built from a profile run at.
///
/// Mirrors `core::NumericsPolicy` as plain data (the profile store sits
/// below `core` in the crate graph). `Auto` defers to the process-wide
/// resolution (the `CHAMBOLLE_NUMERICS` override, else Exact). Unlike every
/// other knob, a profile that pins `Fast` **changes bits** — within the
/// declared energy/duality-gap tolerance — which is why the `tune` binary
/// only persists it on explicit operator opt-in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NumericsChoice {
    /// Defer to the process-wide resolution (`CHAMBOLLE_NUMERICS`, else
    /// the bit-exact tier).
    #[default]
    Auto,
    /// The bit-exact reference tier.
    Exact,
    /// The tolerance-validated fast tier (FMA, reassociation, AVX-512).
    Fast,
}

impl NumericsChoice {
    /// Stable identifier used in profiles (`auto`/`exact`/`fast`).
    pub fn as_str(&self) -> &'static str {
        match self {
            NumericsChoice::Auto => "auto",
            NumericsChoice::Exact => "exact",
            NumericsChoice::Fast => "fast",
        }
    }

    /// Parses a stable identifier back into a choice.
    pub fn parse(s: &str) -> Option<NumericsChoice> {
        match s {
            "auto" => Some(NumericsChoice::Auto),
            "exact" => Some(NumericsChoice::Exact),
            "fast" => Some(NumericsChoice::Fast),
            _ => None,
        }
    }
}

/// The tunable schedule of the whole stack, as one plain value.
///
/// | knob | replaces | layer |
/// |------|----------|-------|
/// | `threads` | the hardware's two sliding windows / pool workers | `core`, `par`, CLIs |
/// | `band_rows_divisor` | the `4` in `height / (threads * 4)` | `imaging::grid` |
/// | `backend` | runtime SIMD detection | `par::simd` |
/// | `numerics` | the process-wide numerics tier (Exact) | `core::ctx` |
/// | `batch_window` | micro-batch coalescing window of 8 requests | `service` |
/// | `high_watermark_pct`/`low_watermark_pct` | admission watermarks at 75% / 25% | `service` |
///
/// `Tunables` is `Copy` and cheap to pass around; [`Tunables::validate`]
/// gates every value that could make a schedule unconstructible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tunables {
    /// Worker-pool width: the pool the CLIs solve on by default and the
    /// one `ExecCtx::auto` attaches. At most [`Tunables::MAX_THREADS`].
    pub threads: usize,
    /// Divisor of the row-band heuristic `height / (threads * divisor)`
    /// used by the pooled imaging kernels.
    pub band_rows_divisor: usize,
    /// Kernel backend the row kernels run on; `None` defers to the
    /// process-wide runtime detection (including the `CHAMBOLLE_BACKEND`
    /// override). Profiles spell `None` as `auto`.
    pub backend: Option<KernelBackend>,
    /// Numerics tier the solves run at (`Auto` = process default).
    pub numerics: NumericsChoice,
    /// Micro-batcher coalescing window: most requests coalesced into one
    /// pool dispatch.
    pub batch_window: usize,
    /// Queue-congestion rising edge, as a percentage of queue capacity.
    pub high_watermark_pct: u8,
    /// Queue-congestion falling edge, as a percentage of queue capacity.
    pub low_watermark_pct: u8,
}

impl Default for Tunables {
    /// The pre-auto-tuning constants, verbatim.
    fn default() -> Self {
        Tunables {
            threads: 2,
            band_rows_divisor: 4,
            backend: None,
            numerics: NumericsChoice::Auto,
            batch_window: 8,
            high_watermark_pct: 75,
            low_watermark_pct: 25,
        }
    }
}

impl Tunables {
    /// The widest pool a profile may ask for. A pool spawns `threads − 1`
    /// OS threads up front, so an absurd width in a profile picked up from
    /// the working directory would otherwise fail (or exhaust the host)
    /// before a single pixel is solved. 1024 is far above any tuned width.
    pub const MAX_THREADS: usize = 1024;

    /// Checks every knob for a value that would make the schedule
    /// unconstructible.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first invalid knob.
    pub fn validate(&self) -> Result<(), String> {
        if self.threads == 0 || self.threads > Tunables::MAX_THREADS {
            return Err(format!(
                "threads must be in 1..={} (got {})",
                Tunables::MAX_THREADS,
                self.threads
            ));
        }
        if self.band_rows_divisor == 0 {
            return Err("band_rows_divisor must be at least 1".into());
        }
        if self.batch_window == 0 {
            return Err("batch_window must be at least 1".into());
        }
        if self.high_watermark_pct > 100 || self.low_watermark_pct >= self.high_watermark_pct {
            return Err(format!(
                "watermarks must satisfy low < high <= 100 (got {} / {})",
                self.low_watermark_pct, self.high_watermark_pct
            ));
        }
        Ok(())
    }

    /// The row-band height the pooled imaging kernels split work by —
    /// byte-identical to the historical
    /// `height.div_ceil(threads * 4).max(1)` at the default divisor.
    pub fn band_rows(&self, height: usize, threads: usize) -> usize {
        height
            .div_ceil(threads.max(1) * self.band_rows_divisor.max(1))
            .max(1)
    }

    /// The admission high watermark for a queue of `capacity` — identical
    /// to the historical `(capacity * 3 / 4).max(1)` at the default 75%.
    pub fn high_watermark(&self, capacity: usize) -> usize {
        (capacity * usize::from(self.high_watermark_pct) / 100).max(1)
    }

    /// The admission low watermark for a queue of `capacity` — identical
    /// to the historical `capacity / 4` at the default 25%.
    pub fn low_watermark(&self, capacity: usize) -> usize {
        capacity * usize::from(self.low_watermark_pct) / 100
    }

    /// Serializes the knobs as a JSON object (profile `tunables` section).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("threads".into(), (self.threads as u64).into()),
            (
                "band_rows_divisor".into(),
                (self.band_rows_divisor as u64).into(),
            ),
            ("backend".into(), backend_token(self.backend).into()),
            ("numerics".into(), self.numerics.as_str().into()),
            ("batch_window".into(), (self.batch_window as u64).into()),
            (
                "high_watermark_pct".into(),
                u64::from(self.high_watermark_pct).into(),
            ),
            (
                "low_watermark_pct".into(),
                u64::from(self.low_watermark_pct).into(),
            ),
        ])
    }

    /// Parses a profile `tunables` object. Every knob must be present with
    /// the right type and the combination must pass [`Tunables::validate`];
    /// unknown keys are ignored, so profiles that still carry the four
    /// retired window-geometry knobs keep loading.
    ///
    /// # Errors
    ///
    /// Returns a description of the missing/ill-typed/invalid knob.
    pub fn from_json(value: &JsonValue) -> Result<Tunables, String> {
        fn num(value: &JsonValue, key: &str) -> Result<u64, String> {
            let raw = value
                .get(key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("missing or non-numeric knob {key:?}"))?;
            if !(raw.is_finite() && raw >= 0.0 && raw.fract() == 0.0) {
                return Err(format!("knob {key:?} must be a non-negative integer"));
            }
            Ok(raw as u64)
        }
        let backend_raw = value
            .get("backend")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| "missing or non-string knob \"backend\"".to_string())?;
        let backend = parse_backend_token(backend_raw)
            .ok_or_else(|| format!("unknown backend {backend_raw:?}"))?;
        let numerics_raw = value
            .get("numerics")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| "missing or non-string knob \"numerics\"".to_string())?;
        let numerics = NumericsChoice::parse(numerics_raw)
            .ok_or_else(|| format!("unknown numerics tier {numerics_raw:?}"))?;
        let tunables = Tunables {
            threads: usize::try_from(num(value, "threads")?)
                .map_err(|_| "threads out of range".to_string())?,
            band_rows_divisor: num(value, "band_rows_divisor")? as usize,
            backend,
            numerics,
            batch_window: num(value, "batch_window")? as usize,
            high_watermark_pct: u8::try_from(num(value, "high_watermark_pct")?)
                .map_err(|_| "high_watermark_pct out of range".to_string())?,
            low_watermark_pct: u8::try_from(num(value, "low_watermark_pct")?)
                .map_err(|_| "low_watermark_pct out of range".to_string())?,
        };
        tunables.validate()?;
        Ok(tunables)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_reproduce_the_historical_constants() {
        let t = Tunables::default();
        assert_eq!(t.threads, 2);
        assert_eq!(t.backend, None);
        assert_eq!(t.numerics, NumericsChoice::Auto);
        assert_eq!(t.batch_window, 8);
        // The band heuristic must be byte-identical to
        // `height.div_ceil(threads * 4).max(1)` for every shape.
        for h in [1usize, 7, 88, 480, 1080] {
            for threads in [1usize, 2, 3, 8] {
                assert_eq!(t.band_rows(h, threads), h.div_ceil(threads * 4).max(1));
            }
        }
        // Watermarks must be identical to `(cap * 3 / 4).max(1)` / `cap / 4`.
        for cap in [1usize, 2, 4, 7, 13, 64, 1000] {
            assert_eq!(t.high_watermark(cap), (cap * 3 / 4).max(1));
            assert_eq!(t.low_watermark(cap), cap / 4);
        }
        t.validate().unwrap();
    }

    #[test]
    fn validate_rejects_every_degenerate_knob() {
        let ok = Tunables::default();
        let cases: Vec<(Tunables, &str)> = vec![
            (Tunables { threads: 0, ..ok }, "threads"),
            (
                Tunables {
                    band_rows_divisor: 0,
                    ..ok
                },
                "band_rows_divisor",
            ),
            (
                Tunables {
                    batch_window: 0,
                    ..ok
                },
                "batch_window",
            ),
            (
                Tunables {
                    high_watermark_pct: 101,
                    ..ok
                },
                "watermarks",
            ),
            (
                Tunables {
                    low_watermark_pct: 80,
                    ..ok
                },
                "watermarks",
            ),
        ];
        for (t, needle) in cases {
            let err = t.validate().unwrap_err();
            assert!(err.contains(needle), "{err:?} should mention {needle:?}");
        }
    }

    #[test]
    fn json_round_trip_preserves_every_knob() {
        let t = Tunables {
            threads: 6,
            band_rows_divisor: 2,
            backend: Some(KernelBackend::Sse2),
            numerics: NumericsChoice::Fast,
            batch_window: 16,
            high_watermark_pct: 80,
            low_watermark_pct: 10,
        };
        let back = Tunables::from_json(&t.to_json()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn from_json_rejects_missing_and_invalid_knobs() {
        let mut doc = Tunables::default().to_json();
        assert!(Tunables::from_json(&doc).is_ok());
        if let JsonValue::Object(fields) = &mut doc {
            fields.retain(|(k, _)| k != "threads");
        }
        assert!(Tunables::from_json(&doc).unwrap_err().contains("threads"));

        let parsed = JsonValue::parse(
            &Tunables::default()
                .to_json()
                .to_string()
                .replace("\"auto\"", "\"quantum\""),
        )
        .unwrap();
        assert!(Tunables::from_json(&parsed)
            .unwrap_err()
            .contains("quantum"));

        // A structurally valid document with an invalid combination: the
        // low watermark sits above the high one.
        let t = Tunables {
            low_watermark_pct: 80,
            ..Tunables::default()
        };
        assert!(Tunables::from_json(&t.to_json()).is_err());
    }

    #[test]
    fn threads_are_capped_far_above_any_tuned_width() {
        let at = |threads| Tunables {
            threads,
            ..Tunables::default()
        };
        at(Tunables::MAX_THREADS).validate().unwrap();
        for threads in [Tunables::MAX_THREADS + 1, 1_000_000, usize::MAX] {
            let err = at(threads).validate().unwrap_err();
            assert!(err.contains("threads"), "{err:?}");
        }
        // The same cap holds when the width arrives through a document.
        let doc = JsonValue::parse(
            &Tunables::default()
                .to_json()
                .to_string()
                .replace("\"threads\":2", "\"threads\":1000000"),
        )
        .unwrap();
        assert!(Tunables::from_json(&doc).unwrap_err().contains("threads"));
    }

    #[test]
    fn backend_choice_identifiers_round_trip() {
        for c in [
            None,
            Some(KernelBackend::Scalar),
            Some(KernelBackend::Sse2),
            Some(KernelBackend::Avx2),
            Some(KernelBackend::Avx512),
        ] {
            assert_eq!(parse_backend_token(backend_token(c)), Some(c));
        }
        assert_eq!(parse_backend_token("avx1024"), None);
    }

    #[test]
    fn numerics_choice_identifiers_round_trip() {
        for c in [
            NumericsChoice::Auto,
            NumericsChoice::Exact,
            NumericsChoice::Fast,
        ] {
            assert_eq!(NumericsChoice::parse(c.as_str()), Some(c));
        }
        assert_eq!(NumericsChoice::parse("approximate"), None);
    }

    #[test]
    fn from_json_rejects_missing_or_unknown_numerics() {
        let mut doc = Tunables::default().to_json();
        if let JsonValue::Object(fields) = &mut doc {
            fields.retain(|(k, _)| k != "numerics");
        }
        assert!(Tunables::from_json(&doc).unwrap_err().contains("numerics"));

        let mut doc = Tunables::default().to_json();
        if let JsonValue::Object(fields) = &mut doc {
            for (k, v) in fields.iter_mut() {
                if k == "numerics" {
                    *v = "sloppy".into();
                }
            }
        }
        assert!(Tunables::from_json(&doc).unwrap_err().contains("sloppy"));
    }
}
