//! The knob registry: every schedule constant the stack used to hardcode,
//! pulled into one serializable [`Tunables`] value.
//!
//! The defaults are **exactly** the constants the code shipped with before
//! auto-tuning existed — 92×88 paper windows at K=2 on two workers
//! (`core::tiling::TileConfig::default`), the `height / (threads * 4)` band
//! heuristic of `imaging::grid::par_band_rows`, batches of up to 8 with
//! watermarks at 3/4 and 1/4 of queue capacity
//! (`service::ServiceConfig::new`), and the auto-detected kernel backend —
//! so a process that never loads a profile behaves byte-for-byte as before.
//!
//! Every knob is a *schedule* choice: by the exactness contracts pinned
//! across the workspace (tiled == sequential, pooled == sequential, every
//! backend bit-identical, batched == solo), changing a knob changes **time,
//! never bits**.

use chambolle_telemetry::json::JsonValue;

/// Which fused-row-kernel implementation solves should run on.
///
/// Mirrors `core::KernelBackend` as plain data so the profile store (which
/// sits below `core` in the crate graph) can name a backend without
/// depending on it. `Auto` defers to the process-wide runtime detection
/// (including the `CHAMBOLLE_BACKEND` override).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendChoice {
    /// Runtime detection picks the widest supported vector unit.
    #[default]
    Auto,
    /// Portable scalar reference kernels.
    Scalar,
    /// 128-bit SSE2 level (the imaging SSE2 kernels; Exact core solves
    /// run the scalar reference).
    Sse2,
    /// 256-bit AVX2 kernels.
    Avx2,
    /// 512-bit AVX-512 kernels (Fast tier; Exact solves run the AVX2
    /// bit-exact kernels when this backend is selected).
    Avx512,
}

impl BackendChoice {
    /// Stable identifier used in profiles
    /// (`auto`/`scalar`/`sse2`/`avx2`/`avx512`).
    pub fn as_str(&self) -> &'static str {
        match self {
            BackendChoice::Auto => "auto",
            BackendChoice::Scalar => "scalar",
            BackendChoice::Sse2 => "sse2",
            BackendChoice::Avx2 => "avx2",
            BackendChoice::Avx512 => "avx512",
        }
    }

    /// Parses a stable identifier back into a choice.
    pub fn parse(s: &str) -> Option<BackendChoice> {
        match s {
            "auto" => Some(BackendChoice::Auto),
            "scalar" => Some(BackendChoice::Scalar),
            "sse2" => Some(BackendChoice::Sse2),
            "avx2" => Some(BackendChoice::Avx2),
            "avx512" => Some(BackendChoice::Avx512),
            _ => None,
        }
    }
}

/// Which numerics tier solves built from a profile run at.
///
/// Mirrors `core::NumericsPolicy` as plain data, the way [`BackendChoice`]
/// mirrors `core::KernelBackend`. `Auto` defers to the process-wide
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
/// | `tile_width`/`tile_height` | the paper's hardcoded 92×88 window | `core::tiling` |
/// | `merge_factor` | decomposition depth K = 2 | `core::tiling` |
/// | `halo_margin` | extra halo cells beyond the required K / K+1 | `core::tiling` |
/// | `threads` | two sliding windows / pool workers | `core`, `par` |
/// | `band_rows_divisor` | the `4` in `height / (threads * 4)` | `imaging::grid` |
/// | `backend` | runtime SIMD detection | `core::backend` |
/// | `numerics` | the process-wide numerics tier (Exact) | `core::ctx` |
/// | `batch_window` | micro-batch coalescing window of 8 requests | `service` |
/// | `high_watermark_pct`/`low_watermark_pct` | admission watermarks at 75% / 25% | `service` |
///
/// `Tunables` is `Copy` and cheap to pass around; [`Tunables::validate`]
/// gates every value that could make a schedule unconstructible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tunables {
    /// Solver sub-matrix width in cells.
    pub tile_width: usize,
    /// Solver sub-matrix height in cells.
    pub tile_height: usize,
    /// Iterations merged per window pass (the paper's K).
    pub merge_factor: u32,
    /// Extra halo cells loaded beyond the exactness-required K leading /
    /// K+1 trailing. Pure redundancy-vs-window-count trade; never changes
    /// bits.
    pub halo_margin: usize,
    /// Worker-pool width: tiled-solver windows, solver row bands, and the
    /// pool `ExecCtx::auto` attaches.
    pub threads: usize,
    /// Divisor of the row-band heuristic `height / (threads * divisor)`
    /// used by the pooled imaging kernels.
    pub band_rows_divisor: usize,
    /// Kernel backend the fused row kernels run on.
    pub backend: BackendChoice,
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
            tile_width: 92,
            tile_height: 88,
            merge_factor: 2,
            halo_margin: 0,
            threads: 2,
            band_rows_divisor: 4,
            backend: BackendChoice::Auto,
            numerics: NumericsChoice::Auto,
            batch_window: 8,
            high_watermark_pct: 75,
            low_watermark_pct: 25,
        }
    }
}

impl Tunables {
    /// Checks every knob for a value that would make the schedule
    /// unconstructible.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first invalid knob.
    pub fn validate(&self) -> Result<(), String> {
        if self.tile_width == 0 || self.tile_height == 0 {
            return Err("tile dimensions must be positive".into());
        }
        if self.merge_factor == 0 {
            return Err("merge_factor must be at least 1".into());
        }
        let halo = 2 * (self.merge_factor as usize + self.halo_margin) + 1;
        if halo >= self.tile_width || halo >= self.tile_height {
            return Err(format!(
                "halo 2(K+margin)+1 = {halo} leaves no profitable interior in a {}x{} tile",
                self.tile_width, self.tile_height
            ));
        }
        if self.threads == 0 {
            return Err("threads must be at least 1".into());
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
            ("tile_width".into(), (self.tile_width as u64).into()),
            ("tile_height".into(), (self.tile_height as u64).into()),
            ("merge_factor".into(), u64::from(self.merge_factor).into()),
            ("halo_margin".into(), (self.halo_margin as u64).into()),
            ("threads".into(), (self.threads as u64).into()),
            (
                "band_rows_divisor".into(),
                (self.band_rows_divisor as u64).into(),
            ),
            ("backend".into(), self.backend.as_str().into()),
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
    /// unknown keys are ignored (forward compatibility).
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
        let backend = BackendChoice::parse(backend_raw)
            .ok_or_else(|| format!("unknown backend {backend_raw:?}"))?;
        let numerics_raw = value
            .get("numerics")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| "missing or non-string knob \"numerics\"".to_string())?;
        let numerics = NumericsChoice::parse(numerics_raw)
            .ok_or_else(|| format!("unknown numerics tier {numerics_raw:?}"))?;
        let tunables = Tunables {
            tile_width: num(value, "tile_width")? as usize,
            tile_height: num(value, "tile_height")? as usize,
            merge_factor: u32::try_from(num(value, "merge_factor")?)
                .map_err(|_| "merge_factor out of range".to_string())?,
            halo_margin: num(value, "halo_margin")? as usize,
            threads: num(value, "threads")? as usize,
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
        assert_eq!((t.tile_width, t.tile_height), (92, 88));
        assert_eq!(t.merge_factor, 2);
        assert_eq!(t.halo_margin, 0);
        assert_eq!(t.threads, 2);
        assert_eq!(t.backend, BackendChoice::Auto);
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
            (
                Tunables {
                    tile_width: 0,
                    ..ok
                },
                "tile",
            ),
            (
                Tunables {
                    merge_factor: 0,
                    ..ok
                },
                "merge_factor",
            ),
            (
                Tunables {
                    merge_factor: 50,
                    ..ok
                },
                "halo",
            ),
            (
                Tunables {
                    halo_margin: 60,
                    ..ok
                },
                "halo",
            ),
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
            tile_width: 48,
            tile_height: 40,
            merge_factor: 3,
            halo_margin: 1,
            threads: 6,
            band_rows_divisor: 2,
            backend: BackendChoice::Sse2,
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
            fields.retain(|(k, _)| k != "tile_width");
        }
        assert!(Tunables::from_json(&doc)
            .unwrap_err()
            .contains("tile_width"));

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
        // halo 2(K+margin)+1 = 101 exceeds the default 92x88 tile.
        let t = Tunables {
            merge_factor: 50,
            ..Tunables::default()
        };
        assert!(Tunables::from_json(&t.to_json()).is_err());
    }

    #[test]
    fn backend_choice_identifiers_round_trip() {
        for c in [
            BackendChoice::Auto,
            BackendChoice::Scalar,
            BackendChoice::Sse2,
            BackendChoice::Avx2,
            BackendChoice::Avx512,
        ] {
            assert_eq!(BackendChoice::parse(c.as_str()), Some(c));
        }
        assert_eq!(BackendChoice::parse("avx1024"), None);
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
