//! The knob registry: the service schedule constants the stack used to
//! hardcode, pulled into one serializable [`Tunables`] value.
//!
//! The defaults are **exactly** the constants the code shipped with before
//! auto-tuning existed — batches of up to 8 with watermarks at 3/4 and 1/4
//! of queue capacity (`service::ServiceConfig::new`) — so a process that
//! never loads a profile behaves byte-for-byte as before.
//!
//! No knob reaches a solve. The batch window is a pure schedule choice
//! (batched == solo, pinned by the service suites); the watermarks decide
//! when a service that carries a degradation policy sheds fidelity.

use chambolle_telemetry::json::JsonValue;

/// The tunable schedule of the service, as one plain value.
///
/// | knob | replaces | layer |
/// |------|----------|-------|
/// | `batch_window` | micro-batch coalescing window of 8 requests | `service` |
/// | `high_watermark_pct`/`low_watermark_pct` | admission watermarks at 75% / 25% | `service` |
///
/// `Tunables` is `Copy` and cheap to pass around; [`Tunables::validate`]
/// gates every value that could make a schedule unconstructible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tunables {
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
    /// unknown keys are ignored, so profiles that still carry retired
    /// knobs (the window geometry, `threads`, `band_rows_divisor`,
    /// `backend`, `numerics`) keep loading their service knobs.
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
        let tunables = Tunables {
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
        assert_eq!(t.batch_window, 8);
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
            fields.retain(|(k, _)| k != "batch_window");
        }
        assert!(Tunables::from_json(&doc)
            .unwrap_err()
            .contains("batch_window"));

        let parsed = JsonValue::parse(
            &Tunables::default()
                .to_json()
                .to_string()
                .replace("\"batch_window\":8", "\"batch_window\":\"eight\""),
        )
        .unwrap();
        assert!(Tunables::from_json(&parsed)
            .unwrap_err()
            .contains("batch_window"));

        // A structurally valid document with an invalid combination: the
        // low watermark sits above the high one.
        let t = Tunables {
            low_watermark_pct: 80,
            ..Tunables::default()
        };
        assert!(Tunables::from_json(&t.to_json()).is_err());
    }
}
