//! Solver parameters and their validation.

use std::fmt;

/// Parameters of the Chambolle fixed-point iteration (Algorithm 1).
///
/// `theta` and `tau` are the paper's "predefined values that determine the
/// precision"; Chambolle's convergence analysis requires the step ratio
/// `tau / theta <= 1/4`.
///
/// # Examples
///
/// ```
/// use chambolle_core::ChambolleParams;
///
/// let p = ChambolleParams::new(0.25, 0.25 / 4.0, 100)?;
/// assert_eq!(p.iterations, 100);
/// # Ok::<(), chambolle_core::InvalidParamsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChambolleParams {
    /// Coupling constant θ of the quadratic term `‖u − v‖² / (2θ)`.
    pub theta: f32,
    /// Dual gradient step τ (the paper's `dt` control input).
    pub tau: f32,
    /// Number of fixed-point iterations (`Niterations`).
    pub iterations: u32,
}

impl ChambolleParams {
    /// Largest stable step ratio `tau / theta` (Chambolle 2004, Thm. 3.1
    /// as sharpened in its remark).
    pub const MAX_STEP_RATIO: f32 = 0.25;

    /// Creates validated parameters.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidParamsError`] if `theta` or `tau` is not positive and
    /// finite, `tau / theta > 1/4`, or `iterations == 0`.
    pub fn new(theta: f32, tau: f32, iterations: u32) -> Result<Self, InvalidParamsError> {
        // NaN fails `> 0.0`; an infinity would make `tau / theta` NaN (or
        // zero), which the step-ratio check below cannot catch.
        if !(theta > 0.0 && theta.is_finite()) {
            return Err(InvalidParamsError::new(format!(
                "theta must be positive and finite, got {theta}"
            )));
        }
        if !(tau > 0.0 && tau.is_finite()) {
            return Err(InvalidParamsError::new(format!(
                "tau must be positive and finite, got {tau}"
            )));
        }
        if tau / theta > Self::MAX_STEP_RATIO + 1e-6 {
            return Err(InvalidParamsError::new(format!(
                "tau/theta = {} exceeds the stable limit 1/4",
                tau / theta
            )));
        }
        if iterations == 0 {
            return Err(InvalidParamsError::new(
                "iterations must be at least 1".to_owned(),
            ));
        }
        Ok(ChambolleParams {
            theta,
            tau,
            iterations,
        })
    }

    /// Parameters with the standard θ = 0.25, the maximal stable step, and
    /// the given iteration count.
    ///
    /// # Panics
    ///
    /// Panics if `iterations == 0`.
    pub fn with_iterations(iterations: u32) -> Self {
        ChambolleParams::new(0.25, 0.25 * Self::MAX_STEP_RATIO, iterations)
            .expect("default ratio is always valid for positive iteration counts")
    }

    /// The paper's evaluation settings: θ = 0.25 with the maximal stable
    /// step τ = θ/4 = 0.0625, and the given iteration count (clamped up to
    /// 1 so the result is always valid).
    ///
    /// Infallible by construction — the fixed θ/τ pair satisfies every
    /// invariant [`ChambolleParams::new`] checks — so call sites that only
    /// vary the iteration knob (Table II sweeps, tests, examples) need
    /// neither `unwrap` nor error plumbing.
    pub const fn paper(iterations: u32) -> Self {
        ChambolleParams {
            theta: 0.25,
            tau: 0.25 * Self::MAX_STEP_RATIO,
            iterations: if iterations == 0 { 1 } else { iterations },
        }
    }

    /// The step ratio `tau / theta` used inside the update.
    pub fn step_ratio(&self) -> f32 {
        self.tau / self.theta
    }
}

impl Default for ChambolleParams {
    /// θ = 0.25, τ = θ/4, 100 iterations (the middle row of Table II).
    fn default() -> Self {
        ChambolleParams::with_iterations(100)
    }
}

/// Parameters of the TV-L1 optical-flow outer loop (Zach et al. 2007 — the
/// numerical scheme of the paper's references \[11\] and \[13\]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TvL1Params {
    /// Data-term weight λ.
    ///
    /// Calibrated for intensities in `[0, 1]`: the common literature value
    /// λ = 0.15 assumes 0–255 intensities, which is λ ≈ 38 at unit scale.
    pub lambda: f32,
    /// Chambolle parameters used by each inner TV denoising solve.
    pub inner: ChambolleParams,
    /// Number of warps (re-linearizations of the data term) per level.
    pub warps: u32,
    /// Thresholding/Chambolle alternations per warp (the fixed-point loop on
    /// the coupled energy; each alternation runs one full inner solve per
    /// flow component).
    pub outer_iterations: u32,
    /// Maximum number of pyramid levels.
    pub pyramid_levels: usize,
    /// Per-level pyramid scale factor in `(0, 1)`; 0.5 is the classic
    /// halving, gentler values (e.g. 0.8) handle larger motions.
    pub scale_factor: f32,
    /// Apply a 3×3 median filter to the flow after each warp (the Wedel et
    /// al. 2009 robustification; off by default, matching the plain Zach
    /// scheme the paper implements).
    pub median_filter: bool,
}

impl TvL1Params {
    /// Creates validated parameters.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidParamsError`] if `lambda <= 0`, `warps == 0`, or
    /// `pyramid_levels == 0`.
    pub fn new(
        lambda: f32,
        inner: ChambolleParams,
        warps: u32,
        outer_iterations: u32,
        pyramid_levels: usize,
    ) -> Result<Self, InvalidParamsError> {
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(lambda > 0.0) {
            return Err(InvalidParamsError::new(format!(
                "lambda must be positive, got {lambda}"
            )));
        }
        if warps == 0 {
            return Err(InvalidParamsError::new("warps must be at least 1".into()));
        }
        if outer_iterations == 0 {
            return Err(InvalidParamsError::new(
                "outer_iterations must be at least 1".into(),
            ));
        }
        if pyramid_levels == 0 {
            return Err(InvalidParamsError::new(
                "pyramid_levels must be at least 1".into(),
            ));
        }
        Ok(TvL1Params {
            lambda,
            inner,
            warps,
            outer_iterations,
            pyramid_levels,
            scale_factor: 0.5,
            median_filter: false,
        })
    }

    /// Copy of the parameters with a different pyramid scale factor.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidParamsError`] unless `0 < factor < 1`.
    pub fn with_scale_factor(mut self, factor: f32) -> Result<Self, InvalidParamsError> {
        if !(factor > 0.0 && factor < 1.0) {
            return Err(InvalidParamsError::new(format!(
                "scale factor must be in (0, 1), got {factor}"
            )));
        }
        self.scale_factor = factor;
        Ok(self)
    }

    /// Copy of the parameters with the median-filter robustification
    /// enabled.
    pub fn with_median_filter(mut self) -> Self {
        self.median_filter = true;
        self
    }
}

impl Default for TvL1Params {
    /// λ = 38 (≡ 0.15 on 0–255 intensities), 5 warps of 5 alternations,
    /// 5 pyramid levels, 30 inner iterations per solve — the usual TV-L1
    /// settings of Zach et al. rescaled to unit intensities.
    fn default() -> Self {
        TvL1Params {
            lambda: 38.0,
            inner: ChambolleParams::with_iterations(30),
            warps: 5,
            outer_iterations: 5,
            pyramid_levels: 5,
            scale_factor: 0.5,
            median_filter: false,
        }
    }
}

/// Error produced when solver parameters are out of their valid domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidParamsError {
    message: String,
}

impl InvalidParamsError {
    pub(crate) fn new(message: String) -> Self {
        InvalidParamsError { message }
    }
}

impl fmt::Display for InvalidParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid solver parameters: {}", self.message)
    }
}

impl std::error::Error for InvalidParamsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_params_accepted() {
        let p = ChambolleParams::new(0.25, 0.0625, 10).unwrap();
        assert!((p.step_ratio() - 0.25).abs() < 1e-6);
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(ChambolleParams::new(0.0, 0.1, 10).is_err());
        assert!(ChambolleParams::new(-1.0, 0.1, 10).is_err());
        assert!(ChambolleParams::new(0.25, 0.0, 10).is_err());
        assert!(ChambolleParams::new(0.25, 0.25, 10).is_err()); // ratio 1 > 1/4
        assert!(ChambolleParams::new(0.25, 0.0625, 0).is_err());
        assert!(ChambolleParams::new(f32::NAN, 0.1, 10).is_err());
        assert!(ChambolleParams::new(f32::INFINITY, 0.1, 10).is_err());
        assert!(ChambolleParams::new(0.25, f32::INFINITY, 10).is_err());
        assert!(ChambolleParams::new(f32::INFINITY, f32::INFINITY, 10).is_err());
    }

    #[test]
    fn paper_params_are_valid_and_clamped() {
        let p = ChambolleParams::paper(50);
        assert_eq!(p, ChambolleParams::new(0.25, 0.0625, 50).unwrap());
        assert_eq!(ChambolleParams::paper(0).iterations, 1);
    }

    #[test]
    fn default_is_valid() {
        let p = ChambolleParams::default();
        assert!(p.step_ratio() <= ChambolleParams::MAX_STEP_RATIO + 1e-6);
        assert_eq!(p.iterations, 100);
    }

    #[test]
    fn tvl1_validation() {
        assert!(TvL1Params::new(0.0, ChambolleParams::default(), 3, 5, 3).is_err());
        assert!(TvL1Params::new(0.1, ChambolleParams::default(), 0, 5, 3).is_err());
        assert!(TvL1Params::new(0.1, ChambolleParams::default(), 3, 0, 3).is_err());
        assert!(TvL1Params::new(0.1, ChambolleParams::default(), 3, 5, 0).is_err());
        assert!(TvL1Params::new(0.1, ChambolleParams::default(), 3, 5, 3).is_ok());
    }

    #[test]
    fn scale_factor_validation() {
        let p = TvL1Params::default();
        assert_eq!(p.scale_factor, 0.5);
        assert!(p.with_scale_factor(0.8).is_ok());
        assert!(p.with_scale_factor(1.0).is_err());
        assert!(p.with_scale_factor(0.0).is_err());
        assert!(p.with_scale_factor(f32::NAN).is_err());
    }

    #[test]
    fn median_filter_flag() {
        let p = TvL1Params::default();
        assert!(!p.median_filter);
        assert!(p.with_median_filter().median_filter);
    }

    #[test]
    fn error_display_mentions_cause() {
        let e = ChambolleParams::new(0.25, 0.25, 10).unwrap_err();
        assert!(e.to_string().contains("1/4"));
    }
}
