//! Convergence diagnostics for the Chambolle iteration: dual energy,
//! duality gap, and a gap-driven solver with per-iteration history.
//!
//! The paper treats `Niterations` as a free precision knob (Table II sweeps
//! 50/100/200). The duality gap makes that knob quantitative: for the ROF
//! problem `min_u TV(u) + ‖u−v‖²/(2θ)` and its dual
//! `max_{|p|≤1} ⟨v, div p⟩ − (θ/2)‖div p‖²`, every feasible pair bounds the
//! distance to optimality by `E(u) − D(p) ≥ 0`, and for the primal recovered
//! as `u = v − θ·div p` the gap simplifies to `TV(u) + ⟨∇u, p⟩`.

use chambolle_imaging::Grid;
use chambolle_telemetry::names;

use crate::cancel::Cancelled;
use crate::ctx::ExecCtx;
use crate::ops::{divergence, forward_diff_x, forward_diff_y, inner_product, total_variation};
use crate::params::{ChambolleParams, InvalidParamsError};
use crate::real::Real;
use crate::solver::{chambolle_iterate_with_ctx, recover_u, rof_energy, DualField};

/// The dual ROF objective `D(p) = ⟨v, div p⟩ − (θ/2)‖div p‖²`.
///
/// For any `p` with `|p| ≤ 1` pointwise, `D(p) ≤ E(u)` for every `u`
/// ([`rof_energy`]); equality holds only at the saddle point.
///
/// # Panics
///
/// Panics if dimensions differ or `theta <= 0`; [`try_rof_dual_energy`] is
/// the non-panicking form.
pub fn rof_dual_energy<R: Real>(p: &DualField<R>, v: &Grid<R>, theta: f32) -> f64 {
    try_rof_dual_energy(p, v, theta).expect("invalid rof_dual_energy input")
}

/// [`rof_dual_energy`] with validated preconditions instead of panics.
///
/// # Errors
///
/// Returns [`InvalidParamsError`] if dimensions differ or `theta` is not
/// positive (NaN included).
pub fn try_rof_dual_energy<R: Real>(
    p: &DualField<R>,
    v: &Grid<R>,
    theta: f32,
) -> Result<f64, InvalidParamsError> {
    if p.dims() != v.dims() {
        return Err(InvalidParamsError::new(format!(
            "dual field {:?} and v {:?} must match in size",
            p.dims(),
            v.dims()
        )));
    }
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN must be rejected too
    if !(theta > 0.0) {
        return Err(InvalidParamsError::new(format!(
            "theta must be positive, got {theta}"
        )));
    }
    let div = divergence(&p.px, &p.py);
    let norm_sq: f64 = div
        .as_slice()
        .iter()
        .map(|&d| d.to_f64() * d.to_f64())
        .sum();
    Ok(inner_product(v, &div) - 0.5 * theta as f64 * norm_sq)
}

/// Duality gap of a primal/dual pair: `E(u) − D(p)`.
///
/// Non-negative whenever `|p| ≤ 1` pointwise; zero exactly at the optimum.
///
/// # Panics
///
/// Panics if dimensions differ or `theta <= 0`; [`try_duality_gap`] is the
/// non-panicking form.
pub fn duality_gap<R: Real>(u: &Grid<R>, p: &DualField<R>, v: &Grid<R>, theta: f32) -> f64 {
    try_duality_gap(u, p, v, theta).expect("invalid duality_gap input")
}

/// [`duality_gap`] with validated preconditions instead of panics.
///
/// # Errors
///
/// Returns [`InvalidParamsError`] if any dimensions differ or `theta` is not
/// positive (NaN included).
pub fn try_duality_gap<R: Real>(
    u: &Grid<R>,
    p: &DualField<R>,
    v: &Grid<R>,
    theta: f32,
) -> Result<f64, InvalidParamsError> {
    Ok(crate::solver::try_rof_energy(u, v, theta)? - try_rof_dual_energy(p, v, theta)?)
}

/// The algebraically simplified gap for `u = v − θ·div p`:
/// `TV(u) + ⟨∇u, p⟩` (avoids recomputing the quadratic terms).
///
/// # Panics
///
/// Panics if dimensions differ; [`try_duality_gap_compact`] is the
/// non-panicking form.
pub fn duality_gap_compact<R: Real>(u: &Grid<R>, p: &DualField<R>) -> f64 {
    try_duality_gap_compact(u, p).expect("invalid duality_gap_compact input")
}

/// [`duality_gap_compact`] with validated preconditions instead of panics.
///
/// # Errors
///
/// Returns [`InvalidParamsError`] if `u` and the dual field differ in size.
pub fn try_duality_gap_compact<R: Real>(
    u: &Grid<R>,
    p: &DualField<R>,
) -> Result<f64, InvalidParamsError> {
    if u.dims() != p.dims() {
        return Err(InvalidParamsError::new(format!(
            "u {:?} and dual field {:?} must match in size",
            u.dims(),
            p.dims()
        )));
    }
    let gx = forward_diff_x(u);
    let gy = forward_diff_y(u);
    Ok(total_variation(u) + inner_product(&gx, &p.px) + inner_product(&gy, &p.py))
}

/// One sampled point of a monitored solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergencePoint {
    /// Iterations completed when the sample was taken.
    pub iteration: u32,
    /// Primal ROF energy of `u = v − θ·div p`.
    pub energy: f64,
    /// Duality gap at the sample.
    pub gap: f64,
}

/// Result of [`chambolle_denoise_monitored`].
#[derive(Debug, Clone, PartialEq)]
pub struct SolveReport<R: Real> {
    /// The denoised image.
    pub u: Grid<R>,
    /// The final dual field.
    pub p: DualField<R>,
    /// Iterations actually executed (≤ `params.iterations` when the gap
    /// tolerance stopped the solve early).
    pub iterations_run: u32,
    /// Sampled convergence history (one entry per check interval, plus the
    /// final state).
    pub history: Vec<ConvergencePoint>,
}

impl<R: Real> SolveReport<R> {
    /// The final duality gap.
    pub fn final_gap(&self) -> f64 {
        self.history.last().map_or(f64::INFINITY, |pt| pt.gap)
    }
}

/// Runs the Chambolle iteration with convergence monitoring: the duality gap
/// is evaluated every `check_every` iterations and the solve stops early
/// once it falls below `gap_tolerance` (use `0.0` to always run the full
/// `params.iterations`).
///
/// # Panics
///
/// Panics if `check_every == 0`.
pub fn chambolle_denoise_monitored<R: Real>(
    v: &Grid<R>,
    params: &ChambolleParams,
    check_every: u32,
    gap_tolerance: f64,
) -> SolveReport<R> {
    chambolle_denoise_monitored_with_ctx(v, params, check_every, gap_tolerance, &ExecCtx::default())
        .expect("an inert context carries no cancellation token")
}

/// [`chambolle_denoise_monitored`] under an [`ExecCtx`]: the iteration
/// chunks between gap checks run on the context's pool and kernel backend,
/// and the context's cancellation token is polled at iteration boundaries.
///
/// The context's telemetry records the whole solve in a
/// `solver.monitored_denoise` span, one `solver.convergence_point` event
/// (iteration/energy/gap payload) per gap check, and on return the
/// `solver.iterations` and `solver.gap_checks` counters and the final
/// energy/gap gauges. With disabled telemetry every hook is a single branch
/// and the output is bit-identical to an uninstrumented solve (asserted by
/// `tests/telemetry_noop.rs`).
///
/// The gap and energy evaluations themselves are sequential left-to-right
/// `f64` sums on every backend and pool size (see [`crate::kernels`]), so
/// the report — history included — is bit-identical across contexts.
///
/// # Errors
///
/// Returns [`Cancelled`] if the context's token reports cancellation before
/// the solve finishes; `p` progress up to the last completed iteration is
/// discarded along with the partial report.
///
/// # Panics
///
/// Panics if `check_every == 0`.
pub fn chambolle_denoise_monitored_with_ctx<R: Real>(
    v: &Grid<R>,
    params: &ChambolleParams,
    check_every: u32,
    gap_tolerance: f64,
    ctx: &ExecCtx,
) -> Result<SolveReport<R>, Cancelled> {
    assert!(check_every > 0, "check interval must be positive");
    let telemetry = ctx.telemetry();
    let _solve_span = telemetry.span("solver.monitored_denoise");
    let mut p = DualField::zeros(v.width(), v.height());
    let mut history = Vec::new();
    let mut done = 0u32;
    while done < params.iterations {
        let chunk = check_every.min(params.iterations - done);
        chambolle_iterate_with_ctx(&mut p, v, params, chunk, ctx)?;
        done += chunk;
        let u = recover_u(v, &p, params.theta);
        let gap = duality_gap(&u, &p, v, params.theta);
        let energy = rof_energy(&u, v, params.theta);
        telemetry.counter_add(names::SOLVER_GAP_CHECKS, 1);
        telemetry.event(
            names::SOLVER_CONVERGENCE_POINT,
            vec![
                ("iteration".into(), done.into()),
                ("energy".into(), energy.into()),
                ("gap".into(), gap.into()),
            ],
        );
        history.push(ConvergencePoint {
            iteration: done,
            energy,
            gap,
        });
        if gap <= gap_tolerance {
            break;
        }
    }
    let u = recover_u(v, &p, params.theta);
    telemetry.counter_add(names::SOLVER_ITERATIONS, u64::from(done));
    if let Some(last) = history.last() {
        telemetry.gauge_set(names::SOLVER_FINAL_ENERGY, last.energy);
        telemetry.gauge_set(names::SOLVER_FINAL_GAP, last.gap);
    }
    Ok(SolveReport {
        u,
        p,
        iterations_run: done,
        history,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::chambolle_iterate;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn noisy(w: usize, h: usize, seed: u64) -> Grid<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        Grid::from_fn(w, h, |x, _| {
            (if x < w / 2 { 0.2 } else { 0.8 }) + rng.gen_range(-0.1..0.1)
        })
    }

    fn params(iters: u32) -> ChambolleParams {
        ChambolleParams::paper(iters)
    }

    #[test]
    fn telemetry_records_convergence_trajectory() {
        use chambolle_telemetry::sink::EventKind;
        use chambolle_telemetry::Telemetry;

        let v = noisy(12, 10, 20);
        let (tele, events) = Telemetry::memory();
        let ctx = ExecCtx::default().with_telemetry(tele.clone());
        let report = chambolle_denoise_monitored_with_ctx(&v, &params(45), 20, 0.0, &ctx).unwrap();
        let snap = tele.snapshot();
        assert_eq!(snap.counter(names::SOLVER_ITERATIONS), Some(45));
        assert_eq!(
            snap.counter(names::SOLVER_GAP_CHECKS),
            Some(report.history.len() as u64)
        );
        assert_eq!(
            snap.gauge(names::SOLVER_FINAL_GAP),
            Some(report.final_gap())
        );
        let points = events
            .lock()
            .unwrap()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Instant(_)))
            .count();
        assert_eq!(points, report.history.len());
    }

    #[test]
    fn weak_duality_holds() {
        let v = noisy(16, 12, 1);
        let mut p = DualField::zeros(16, 12);
        chambolle_iterate(&mut p, &v, &params(10), 10);
        let u = recover_u(&v, &p, 0.25);
        assert!(p.max_norm() <= 1.0 + 1e-12);
        let gap = duality_gap(&u, &p, &v, 0.25);
        assert!(gap >= -1e-9, "weak duality violated: gap = {gap}");
    }

    #[test]
    fn compact_gap_matches_definition() {
        let v = noisy(14, 10, 2);
        let mut p = DualField::zeros(14, 10);
        chambolle_iterate(&mut p, &v, &params(25), 25);
        let u = recover_u(&v, &p, 0.25);
        let full = duality_gap(&u, &p, &v, 0.25);
        let compact = duality_gap_compact(&u, &p);
        assert!(
            (full - compact).abs() < 1e-8,
            "gap formulations disagree: {full} vs {compact}"
        );
    }

    #[test]
    fn gap_decreases_toward_zero() {
        let v = noisy(20, 16, 3);
        let report = chambolle_denoise_monitored(&v, &params(800), 100, 0.0);
        let gaps: Vec<f64> = report.history.iter().map(|pt| pt.gap).collect();
        assert!(gaps.len() >= 4);
        assert!(
            gaps.last().unwrap() < &(0.2 * gaps[0]),
            "gap should shrink substantially: {gaps:?}"
        );
        for w in gaps.windows(2) {
            assert!(
                w[1] <= w[0] * 1.05,
                "gap should be (near-)monotone: {gaps:?}"
            );
        }
    }

    #[test]
    fn early_stop_on_tolerance() {
        let v = noisy(16, 12, 4);
        let full = chambolle_denoise_monitored(&v, &params(2000), 50, 0.0);
        let target_gap = full.history[full.history.len() / 2].gap;
        let early = chambolle_denoise_monitored(&v, &params(2000), 50, target_gap);
        assert!(early.iterations_run < 2000);
        assert!(early.final_gap() <= target_gap);
    }

    #[test]
    fn monitored_solve_matches_plain_solve() {
        use crate::solver::chambolle_denoise;
        let v = noisy(16, 12, 5);
        let report = chambolle_denoise_monitored(&v, &params(60), 20, 0.0);
        let (u_plain, p_plain) = chambolle_denoise(&v, &params(60));
        assert_eq!(report.iterations_run, 60);
        assert_eq!(report.u.as_slice(), u_plain.as_slice());
        assert_eq!(report.p.px.as_slice(), p_plain.px.as_slice());
    }

    #[test]
    fn dual_energy_of_zero_p_is_zero() {
        let v = noisy(8, 8, 6);
        let p = DualField::zeros(8, 8);
        assert_eq!(rof_dual_energy(&p, &v, 0.25), 0.0);
    }

    #[test]
    fn try_variants_accept_valid_inputs() {
        let v = noisy(12, 10, 9);
        let mut p = DualField::zeros(12, 10);
        chambolle_iterate(&mut p, &v, &params(15), 15);
        let u = recover_u(&v, &p, 0.25);
        assert_eq!(
            try_rof_dual_energy(&p, &v, 0.25).unwrap(),
            rof_dual_energy(&p, &v, 0.25)
        );
        assert_eq!(
            try_duality_gap(&u, &p, &v, 0.25).unwrap(),
            duality_gap(&u, &p, &v, 0.25)
        );
        assert_eq!(
            try_duality_gap_compact(&u, &p).unwrap(),
            duality_gap_compact(&u, &p)
        );
    }

    #[test]
    fn try_variants_reject_mismatched_dims() {
        let v = noisy(12, 10, 10);
        let p = DualField::<f64>::zeros(11, 10);
        let u = Grid::<f64>::new(12, 10, 0.0);
        assert!(try_rof_dual_energy(&p, &v, 0.25).is_err());
        assert!(try_duality_gap(&u, &p, &v, 0.25).is_err());
        assert!(try_duality_gap_compact(&u, &p).is_err());
        let u_bad = Grid::<f64>::new(12, 9, 0.0);
        assert!(try_duality_gap(&u_bad, &DualField::zeros(12, 10), &v, 0.25).is_err());
    }

    #[test]
    fn try_variants_reject_bad_theta() {
        let v = noisy(8, 8, 11);
        let p = DualField::<f64>::zeros(8, 8);
        let u = Grid::<f64>::new(8, 8, 0.0);
        for theta in [0.0, -1.0, f32::NAN] {
            assert!(try_rof_dual_energy(&p, &v, theta).is_err(), "theta={theta}");
            assert!(try_duality_gap(&u, &p, &v, theta).is_err(), "theta={theta}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid rof_dual_energy input")]
    fn panicking_form_still_panics_on_bad_dims() {
        let v = Grid::<f64>::new(8, 8, 0.0);
        let p = DualField::<f64>::zeros(7, 8);
        rof_dual_energy(&p, &v, 0.25);
    }

    #[test]
    fn monitoring_works_in_f32_too() {
        let v64 = noisy(12, 10, 8);
        let v32 = v64.map(|&x| x as f32);
        let report = chambolle_denoise_monitored(&v32, &params(80), 40, 0.0);
        assert_eq!(report.iterations_run, 80);
        assert!(report.final_gap().is_finite());
        assert!(report.final_gap() >= -1e-3, "weak duality up to f32 noise");
    }

    #[test]
    fn history_records_iteration_numbers() {
        let v = noisy(10, 8, 7);
        let report = chambolle_denoise_monitored(&v, &params(45), 20, 0.0);
        let iters: Vec<u32> = report.history.iter().map(|pt| pt.iteration).collect();
        assert_eq!(iters, vec![20, 40, 45]);
    }
}
