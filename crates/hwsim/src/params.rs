//! Hardware parameter set: the `θ`, `Niterations` and `dt` control inputs of
//! the accelerator (Figure 2), held in the exact fixed-point encoding the
//! datapath consumes.

use std::fmt;

use chambolle_core::ChambolleParams;
use chambolle_fixed::{FixedSolverParams, WordFixed};

/// Chambolle parameters as the hardware sees them: the Q-format constants
/// `θ`, `1/θ` and `τ/θ` of the PE datapath, plus the iteration count.
///
/// # Examples
///
/// ```
/// use chambolle_core::ChambolleParams;
/// use chambolle_hwsim::HwParams;
///
/// let hw = HwParams::try_from(ChambolleParams::with_iterations(100))?;
/// assert_eq!(hw.iterations, 100);
/// # Ok::<(), chambolle_hwsim::HwParamsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HwParams {
    /// `θ` (the `θ` input pin bundle), the precomputed `1/θ` (the hardware
    /// multiplies rather than divides) and `τ/θ` (derived from the `dt`
    /// input), as the PE datapath consumes them.
    pub datapath: FixedSolverParams,
    /// `Niterations` control input.
    pub iterations: u32,
}

impl HwParams {
    /// The standard configuration: θ = 1/4, τ/θ = 1/4, and the given
    /// iteration count (the values used throughout the evaluation).
    pub fn standard(iterations: u32) -> Self {
        HwParams {
            datapath: FixedSolverParams::standard(),
            iterations,
        }
    }

    /// The equivalent floating-point parameters (for running the software
    /// solver side by side).
    ///
    /// # Panics
    ///
    /// Panics if the stored constants violate the software validation rules;
    /// this cannot happen for values built via `try_from`/`standard`.
    pub fn to_chambolle_params(self) -> ChambolleParams {
        let theta = self.datapath.theta.to_f32();
        let tau = self.datapath.step_ratio.to_f32() * theta;
        ChambolleParams::new(theta, tau, self.iterations)
            .expect("hardware parameters are validated at construction")
    }
}

impl TryFrom<ChambolleParams> for HwParams {
    type Error = HwParamsError;

    /// Encodes solver parameters for the hardware.
    ///
    /// # Errors
    ///
    /// Returns [`HwParamsError`] if `θ`, `1/θ` or `τ/θ` is not exactly
    /// representable in the Q-format datapath — the hardware has no rounding
    /// logic on its control inputs, so inexact constants would silently
    /// change the algorithm.
    fn try_from(p: ChambolleParams) -> Result<Self, HwParamsError> {
        let exact = |v: f32, what: &'static str| -> Result<WordFixed, HwParamsError> {
            let enc = WordFixed::from_f32(v);
            if enc.to_f32() != v {
                return Err(HwParamsError { what, value: v });
            }
            Ok(enc)
        };
        Ok(HwParams {
            datapath: FixedSolverParams {
                theta: exact(p.theta, "theta")?,
                inv_theta: exact(1.0 / p.theta, "1/theta")?,
                step_ratio: exact(p.tau / p.theta, "tau/theta")?,
            },
            iterations: p.iterations,
        })
    }
}

/// Error: a parameter is not exactly representable in the hardware Q-format.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HwParamsError {
    what: &'static str,
    value: f32,
}

impl fmt::Display for HwParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} = {} is not exactly representable in the Q-format datapath",
            self.what, self.value
        )
    }
}

impl std::error::Error for HwParamsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_roundtrips_to_software_params() {
        let hw = HwParams::standard(200);
        let sw = hw.to_chambolle_params();
        assert_eq!(sw.theta, 0.25);
        assert_eq!(sw.iterations, 200);
        assert!((sw.step_ratio() - 0.25).abs() < 1e-6);
    }

    #[test]
    fn exact_params_accepted() {
        let p = ChambolleParams::new(0.5, 0.125, 10).unwrap();
        let hw = HwParams::try_from(p).unwrap();
        assert_eq!(hw.datapath.inv_theta.to_f32(), 2.0);
        assert_eq!(hw.datapath.step_ratio.to_f32(), 0.25);
    }

    #[test]
    fn inexact_params_rejected() {
        // theta = 0.3: neither 0.3 nor 1/0.3 is a multiple of 2^-8.
        let p = ChambolleParams::new(0.3, 0.05, 10).unwrap();
        let err = HwParams::try_from(p).unwrap_err();
        assert!(err.to_string().contains("not exactly representable"));
    }
}
