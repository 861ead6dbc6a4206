//! Guarded solver pipeline: input validation, divergence detection, and
//! graceful degradation for the Chambolle/TV-L1 stack.
//!
//! The unguarded solvers ([`crate::solver`], [`crate::tiling`]) assume
//! well-formed inputs and a fault-free substrate; a single NaN or corrupted
//! intermediate silently poisons the whole output. This module adds the
//! error-handling architecture around them:
//!
//! - **Input validation** — [`scrub_non_finite`] repairs NaN/Inf pixels from
//!   their neighborhood; parameter and shape checks return `Result` instead
//!   of panicking.
//! - **Output validation** — [`output_is_valid`] checks finiteness and that
//!   the ROF energy did not increase (the iteration is a descent method, so
//!   an energy increase beyond quantization slack means divergence or
//!   corruption).
//! - **Divergence detection** — [`guarded_denoise_monitored`] watches the
//!   duality-gap history of [`chambolle_denoise_monitored`] and reacts to a
//!   growing or non-finite gap by halving the dual step `τ` (the classic
//!   stability backoff: Chambolle's analysis needs `τ/θ ≤ 1/4`).
//! - **Recovery policy** — [`GuardedDenoiser`] retries a failed backend a
//!   bounded number of times and then falls back to the sequential reference
//!   solver, reporting every action in a structured [`RecoveryReport`].
//!
//! The same report vocabulary is reused by the hardware simulator's
//! fault-injection harness (`chambolle-hwsim`), so a TV-L1 pipeline has one
//! uniform story for "what went wrong and what was done about it" from the
//! BRAM bit level up to the outer optimization loop.

use std::fmt;

use chambolle_imaging::Grid;
use chambolle_telemetry::{names, Telemetry};

use crate::cancel::Cancelled;
use crate::ctx::ExecCtx;
use crate::diagnostics::{chambolle_denoise_monitored, SolveReport};
use crate::params::{ChambolleParams, InvalidParamsError};
use crate::solver::{chambolle_denoise_with_ctx, rof_energy, SequentialSolver, TvDenoiser};
use crate::tiling::{TileConfig, TiledSolver};

/// One corrective step taken by a guarded solver path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecoveryAction {
    /// Non-finite input pixels were replaced from their neighborhoods.
    ScrubbedInput {
        /// Number of repaired cells.
        cells: usize,
    },
    /// The primary backend was re-run after an invalid output.
    Retry {
        /// 1-based retry attempt.
        attempt: u32,
    },
    /// One tile of a round was recomputed from the round's intact input.
    TileRecompute {
        /// Iteration round.
        round: u32,
        /// Tile index within the round's plan.
        tile: usize,
    },
    /// An entire round was recomputed (e.g. after repairing a corrupted
    /// functional unit that poisoned every tile).
    RoundRecompute {
        /// Iteration round.
        round: u32,
    },
    /// Corrupted sqrt-LUT tables were rebuilt from the generator.
    LutRepair {
        /// Iteration round.
        round: u32,
        /// Number of tables repaired.
        repairs: u32,
    },
    /// Dual-modular-redundancy disagreement on a tile was arbitrated by
    /// re-execution.
    DatapathArbitration {
        /// Iteration round.
        round: u32,
        /// Tile index within the round's plan.
        tile: usize,
    },
    /// The dual step was halved after divergence was detected.
    StepBackoff {
        /// The reduced `τ` that the retry used.
        tau: f32,
    },
    /// The computation fell back to the sequential reference solver.
    SequentialFallback,
}

impl RecoveryAction {
    /// Stable snake-case identifier of the action kind, used as the suffix
    /// of the per-action telemetry counters
    /// (`guard.action.<metric_suffix>`).
    pub fn metric_suffix(&self) -> &'static str {
        match self {
            RecoveryAction::ScrubbedInput { .. } => "scrubbed_input",
            RecoveryAction::Retry { .. } => "retry",
            RecoveryAction::TileRecompute { .. } => "tile_recompute",
            RecoveryAction::RoundRecompute { .. } => "round_recompute",
            RecoveryAction::LutRepair { .. } => "lut_repair",
            RecoveryAction::DatapathArbitration { .. } => "datapath_arbitration",
            RecoveryAction::StepBackoff { .. } => "step_backoff",
            RecoveryAction::SequentialFallback => "sequential_fallback",
        }
    }
}

impl fmt::Display for RecoveryAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryAction::ScrubbedInput { cells } => {
                write!(f, "scrubbed {cells} non-finite input cells")
            }
            RecoveryAction::Retry { attempt } => write!(f, "retry #{attempt}"),
            RecoveryAction::TileRecompute { round, tile } => {
                write!(f, "recomputed tile {tile} of round {round}")
            }
            RecoveryAction::RoundRecompute { round } => {
                write!(f, "recomputed round {round}")
            }
            RecoveryAction::LutRepair { round, repairs } => {
                write!(f, "repaired {repairs} sqrt LUT(s) in round {round}")
            }
            RecoveryAction::DatapathArbitration { round, tile } => {
                write!(f, "arbitrated DMR mismatch on tile {tile} of round {round}")
            }
            RecoveryAction::StepBackoff { tau } => {
                write!(f, "halved dual step to tau = {tau}")
            }
            RecoveryAction::SequentialFallback => write!(f, "fell back to sequential solver"),
        }
    }
}

/// Structured account of what a guarded solve detected and did.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RecoveryReport {
    /// Number of detected anomalies (invalid outputs, corrupted regions,
    /// diverging gaps, redundancy mismatches).
    pub detections: u32,
    /// Corrective actions, in execution order.
    pub actions: Vec<RecoveryAction>,
    /// True when the result came from a degraded path (the fallback solver)
    /// rather than the primary backend.
    pub degraded: bool,
}

impl RecoveryReport {
    /// True when nothing was detected and nothing had to be done.
    pub fn is_clean(&self) -> bool {
        self.detections == 0 && self.actions.is_empty() && !self.degraded
    }

    /// Number of recorded tile recomputations.
    pub fn tile_recomputes(&self) -> usize {
        self.actions
            .iter()
            .filter(|a| matches!(a, RecoveryAction::TileRecompute { .. }))
            .count()
    }

    /// Folds the report into a telemetry registry: `guard.detections`,
    /// `guard.recoveries` (corrective actions other than the fallback),
    /// `guard.fallbacks`, `guard.degraded`, plus one
    /// `guard.action.<kind>` counter per action
    /// ([`RecoveryAction::metric_suffix`]).
    ///
    /// Reports accumulate — call this once per solve and the registry holds
    /// run totals, the same shape `chambolle-hwsim`'s fault harness feeds.
    pub fn record_telemetry(&self, telemetry: &Telemetry) {
        if !telemetry.is_enabled() {
            return;
        }
        telemetry.counter_add(names::GUARD_DETECTIONS, u64::from(self.detections));
        let fallbacks = self
            .actions
            .iter()
            .filter(|a| matches!(a, RecoveryAction::SequentialFallback))
            .count() as u64;
        telemetry.counter_add(
            names::GUARD_RECOVERIES,
            self.actions.len() as u64 - fallbacks,
        );
        telemetry.counter_add(names::GUARD_FALLBACKS, fallbacks);
        telemetry.counter_add(names::GUARD_DEGRADED, u64::from(self.degraded));
        for action in &self.actions {
            telemetry.counter_add(
                &format!("{}{}", names::GUARD_ACTION_PREFIX, action.metric_suffix()),
                1,
            );
        }
    }
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} detection(s), {} action(s){}",
            self.detections,
            self.actions.len(),
            if self.degraded { ", degraded" } else { "" }
        )
    }
}

/// Error returned by the guarded solver paths.
#[derive(Debug, Clone, PartialEq)]
pub enum GuardError {
    /// Parameters failed validation before any compute started.
    InvalidParams(InvalidParamsError),
    /// The input grid has no cells.
    EmptyInput,
    /// Every recovery avenue (retries, step backoff, fallback) was exhausted
    /// without producing a valid output.
    Unrecoverable(RecoveryReport),
    /// The solve was cancelled via the context's
    /// [`CancelToken`](crate::CancelToken) (see [`guarded_denoise_with_ctx`]).
    Cancelled(Cancelled),
}

impl fmt::Display for GuardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GuardError::InvalidParams(e) => write!(f, "{e}"),
            GuardError::EmptyInput => write!(f, "input grid has no cells"),
            GuardError::Unrecoverable(report) => {
                write!(f, "recovery exhausted: {report}")
            }
            GuardError::Cancelled(c) => write!(f, "{c}"),
        }
    }
}

impl std::error::Error for GuardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GuardError::InvalidParams(e) => Some(e),
            GuardError::Cancelled(c) => Some(c),
            _ => None,
        }
    }
}

impl From<InvalidParamsError> for GuardError {
    fn from(e: InvalidParamsError) -> Self {
        GuardError::InvalidParams(e)
    }
}

/// Retry budget and validation strictness of a guarded path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// How many times a failed stage may be re-attempted before degrading
    /// (falling back or giving up).
    pub max_retries: u32,
    /// Whether output validation includes the energy-descent check in
    /// addition to finiteness.
    pub check_energy: bool,
}

impl Default for RecoveryPolicy {
    /// Two retries, energy checking on.
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 2,
            check_energy: true,
        }
    }
}

/// Validates the parameter fields a guarded solve cannot work around:
/// positive finite `theta`/`tau` and a nonzero iteration count.
///
/// A too-large step ratio `τ/θ` is deliberately *not* rejected here — that
/// failure mode is observable (the duality gap grows) and recoverable (step
/// backoff), which is exactly what [`guarded_denoise_monitored`] does.
///
/// # Errors
///
/// Returns [`InvalidParamsError`] when a field is non-finite, non-positive,
/// or `iterations == 0`.
pub fn validate_solvable(params: &ChambolleParams) -> Result<(), InvalidParamsError> {
    if !(params.theta.is_finite() && params.theta > 0.0) {
        return Err(InvalidParamsError::new(format!(
            "theta must be positive and finite, got {}",
            params.theta
        )));
    }
    if !(params.tau.is_finite() && params.tau > 0.0) {
        return Err(InvalidParamsError::new(format!(
            "tau must be positive and finite, got {}",
            params.tau
        )));
    }
    if params.iterations == 0 {
        return Err(InvalidParamsError::new(
            "iterations must be at least 1".to_owned(),
        ));
    }
    Ok(())
}

/// Replaces every non-finite cell with the mean of its finite 4-neighbors
/// (or 0 when the whole neighborhood is bad), returning the number of
/// repaired cells.
///
/// Replacement values are read from the *pre-scrub* grid, so the result does
/// not depend on traversal order.
pub fn scrub_non_finite(v: &mut Grid<f32>) -> usize {
    let bad: Vec<(usize, usize)> = v
        .iter()
        .filter(|&(_, _, &val)| !val.is_finite())
        .map(|(x, y, _)| (x, y))
        .collect();
    if bad.is_empty() {
        return 0;
    }
    let (w, h) = v.dims();
    let snapshot = v.clone();
    for &(x, y) in &bad {
        let mut sum = 0.0f64;
        let mut n = 0u32;
        let mut visit = |xx: usize, yy: usize| {
            let val = snapshot[(xx, yy)];
            if val.is_finite() {
                sum += val as f64;
                n += 1;
            }
        };
        if x > 0 {
            visit(x - 1, y);
        }
        if x + 1 < w {
            visit(x + 1, y);
        }
        if y > 0 {
            visit(x, y - 1);
        }
        if y + 1 < h {
            visit(x, y + 1);
        }
        v[(x, y)] = if n > 0 { (sum / n as f64) as f32 } else { 0.0 };
    }
    bad.len()
}

/// Checks a denoised output against its input: every cell finite, and the
/// ROF energy not increased beyond quantization slack.
///
/// The slack admits a fixed-point backend quantizing to 8 fractional bits
/// (one LSB of value error per cell contributes at most ~3 LSB of energy),
/// while still rejecting the orders-of-magnitude energy blow-up of a
/// diverging or corrupted solve.
pub fn output_is_valid(u: &Grid<f32>, v: &Grid<f32>, theta: f32, check_energy: bool) -> bool {
    if u.dims() != v.dims() {
        return false;
    }
    if !u.as_slice().iter().all(|x| x.is_finite()) {
        return false;
    }
    if !check_energy {
        return true;
    }
    let e_u = rof_energy(u, v, theta);
    let e_v = rof_energy(v, v, theta);
    let quant_slack = u.len() as f64 * (3.0 / 256.0);
    e_u.is_finite() && e_u <= e_v + quant_slack
}

/// A [`TvDenoiser`] wrapper adding validation, bounded retries, and fallback
/// to a reference backend.
///
/// `P` is the primary backend (tiled solver, FPGA simulator, ...); `F` is
/// the fallback, by default the [`SequentialSolver`] reference. On every
/// solve the input is scrubbed, the primary output validated, invalid
/// outputs retried up to [`RecoveryPolicy::max_retries`] times, and finally
/// the fallback consulted; the whole history lands in a [`RecoveryReport`].
#[derive(Debug, Clone)]
pub struct GuardedDenoiser<P, F = SequentialSolver> {
    primary: P,
    fallback: F,
    policy: RecoveryPolicy,
}

impl<P: TvDenoiser> GuardedDenoiser<P, SequentialSolver> {
    /// Guards `primary` with the sequential reference as fallback and the
    /// default policy.
    pub fn new(primary: P) -> Self {
        GuardedDenoiser {
            primary,
            fallback: SequentialSolver::new(),
            policy: RecoveryPolicy::default(),
        }
    }
}

impl GuardedDenoiser<TiledSolver, SequentialSolver> {
    /// Guards a tiled solver with the given window configuration — the
    /// tiled→sequential degradation pair of the paper's software stack.
    pub fn tiled(config: TileConfig) -> Self {
        GuardedDenoiser::new(TiledSolver::new(config))
    }
}

impl<P: TvDenoiser, F: TvDenoiser> GuardedDenoiser<P, F> {
    /// Replaces the fallback backend.
    pub fn with_fallback<G: TvDenoiser>(self, fallback: G) -> GuardedDenoiser<P, G> {
        GuardedDenoiser {
            primary: self.primary,
            fallback,
            policy: self.policy,
        }
    }

    /// Replaces the recovery policy.
    pub fn with_policy(mut self, policy: RecoveryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The active policy.
    pub fn policy(&self) -> &RecoveryPolicy {
        &self.policy
    }

    /// The guarded solve: scrub, run, validate, retry, degrade.
    ///
    /// # Errors
    ///
    /// [`GuardError::InvalidParams`] / [`GuardError::EmptyInput`] for inputs
    /// no backend could serve; [`GuardError::Unrecoverable`] when the
    /// fallback's output is invalid too.
    pub fn denoise_checked(
        &self,
        v: &Grid<f32>,
        params: &ChambolleParams,
    ) -> Result<(Grid<f32>, RecoveryReport), GuardError> {
        validate_solvable(params)?;
        if v.is_empty() {
            return Err(GuardError::EmptyInput);
        }
        let mut report = RecoveryReport::default();
        let mut input = v.clone();
        let scrubbed = scrub_non_finite(&mut input);
        if scrubbed > 0 {
            report.detections += 1;
            report
                .actions
                .push(RecoveryAction::ScrubbedInput { cells: scrubbed });
        }

        for attempt in 0..=self.policy.max_retries {
            if attempt > 0 {
                report.actions.push(RecoveryAction::Retry { attempt });
            }
            let u = self.primary.denoise(&input, params);
            if output_is_valid(&u, &input, params.theta, self.policy.check_energy) {
                return Ok((u, report));
            }
            report.detections += 1;
        }

        report.degraded = true;
        report.actions.push(RecoveryAction::SequentialFallback);
        let u = self.fallback.denoise(&input, params);
        if output_is_valid(&u, &input, params.theta, self.policy.check_energy) {
            Ok((u, report))
        } else {
            report.detections += 1;
            Err(GuardError::Unrecoverable(report))
        }
    }
}

impl<P: TvDenoiser, F: TvDenoiser> TvDenoiser for GuardedDenoiser<P, F> {
    /// Infallible trait form of [`GuardedDenoiser::denoise_checked`]: when
    /// even the fallback fails validation the scrubbed input is returned
    /// unchanged — the identity denoiser is the safest degraded output, and
    /// it keeps an outer TV-L1 loop numerically alive.
    fn denoise(&self, v: &Grid<f32>, params: &ChambolleParams) -> Grid<f32> {
        match self.denoise_checked(v, params) {
            Ok((u, _)) => u,
            Err(_) => {
                let mut input = v.clone();
                scrub_non_finite(&mut input);
                input
            }
        }
    }

    fn name(&self) -> &str {
        "guarded"
    }
}

/// The guarded solve under an [`ExecCtx`]: scrub, run the context-driven
/// solver ([`chambolle_denoise_with_ctx`] — pool, telemetry, cancellation
/// and kernel backend all honored), validate, retry, and finally give up.
///
/// With an inert context the output is bit-identical to
/// `GuardedDenoiser::new(SequentialSolver::new())`; with a pool or a
/// non-scalar backend it still is, because the banded solver and every
/// kernel backend are bit-identical to the sequential reference.
///
/// # Errors
///
/// [`GuardError::Cancelled`] when the context's token fires mid-solve;
/// [`GuardError::InvalidParams`] / [`GuardError::EmptyInput`] for inputs no
/// backend could serve; [`GuardError::Unrecoverable`] when retries are
/// exhausted.
pub fn guarded_denoise_with_ctx(
    v: &Grid<f32>,
    params: &ChambolleParams,
    policy: &RecoveryPolicy,
    ctx: &ExecCtx,
) -> Result<(Grid<f32>, RecoveryReport), GuardError> {
    validate_solvable(params)?;
    if v.is_empty() {
        return Err(GuardError::EmptyInput);
    }
    let mut report = RecoveryReport::default();
    let mut input = v.clone();
    let scrubbed = scrub_non_finite(&mut input);
    if scrubbed > 0 {
        report.detections += 1;
        report
            .actions
            .push(RecoveryAction::ScrubbedInput { cells: scrubbed });
    }

    for attempt in 0..=policy.max_retries {
        if attempt > 0 {
            report.actions.push(RecoveryAction::Retry { attempt });
        }
        let (u, _) =
            chambolle_denoise_with_ctx(&input, params, ctx).map_err(GuardError::Cancelled)?;
        if output_is_valid(&u, &input, params.theta, policy.check_energy) {
            return Ok((u, report));
        }
        report.detections += 1;
    }
    report.degraded = true;
    Err(GuardError::Unrecoverable(report))
}

/// Divergence-aware monitored solve: runs [`chambolle_denoise_monitored`],
/// inspects the duality-gap history, and on divergence (non-finite or
/// growing gap) halves `τ` and retries, up to `policy.max_retries` times.
///
/// A step ratio `τ/θ` beyond Chambolle's `1/4` stability bound is the
/// canonical way to end up here; each halving moves the ratio back toward
/// the stable region, trading speed for a convergent solve.
///
/// # Errors
///
/// [`GuardError::InvalidParams`] for unsolvable parameters (see
/// [`validate_solvable`]) or `check_every == 0`;
/// [`GuardError::Unrecoverable`] when the solve still diverges after all
/// backoffs.
pub fn guarded_denoise_monitored(
    v: &Grid<f32>,
    params: &ChambolleParams,
    check_every: u32,
    gap_tolerance: f64,
    policy: &RecoveryPolicy,
) -> Result<(SolveReport<f32>, RecoveryReport), GuardError> {
    validate_solvable(params)?;
    if check_every == 0 {
        return Err(GuardError::InvalidParams(InvalidParamsError::new(
            "check interval must be positive".to_owned(),
        )));
    }
    if v.is_empty() {
        return Err(GuardError::EmptyInput);
    }
    let mut report = RecoveryReport::default();
    let mut input = v.clone();
    let scrubbed = scrub_non_finite(&mut input);
    if scrubbed > 0 {
        report.detections += 1;
        report
            .actions
            .push(RecoveryAction::ScrubbedInput { cells: scrubbed });
    }

    let mut tau = params.tau;
    for _ in 0..=policy.max_retries {
        let attempt_params = ChambolleParams {
            theta: params.theta,
            tau,
            iterations: params.iterations,
        };
        let solve =
            chambolle_denoise_monitored(&input, &attempt_params, check_every, gap_tolerance);
        if !solve_diverged(&solve) {
            return Ok((solve, report));
        }
        report.detections += 1;
        tau *= 0.5;
        report.actions.push(RecoveryAction::StepBackoff { tau });
        report.degraded = true;
    }
    Err(GuardError::Unrecoverable(report))
}

/// Divergence test over a monitored solve: any non-finite energy/gap sample,
/// a non-finite output, or a duality gap that fails to decay.
///
/// Chambolle's update is self-normalizing (`|p| ≤ 1` always), so an unstable
/// step never produces infinities — it *oscillates*, which shows up as a gap
/// that stays flat (hundreds) instead of decaying O(1/k). A last checkpoint
/// still at ≥ 3/4 of the first, above the numerical floor, is that
/// signature; detection therefore needs at least two checkpoints.
fn solve_diverged(solve: &SolveReport<f32>) -> bool {
    if !solve.u.as_slice().iter().all(|x| x.is_finite()) {
        return true;
    }
    if solve
        .history
        .iter()
        .any(|pt| !pt.gap.is_finite() || !pt.energy.is_finite())
    {
        return true;
    }
    let gaps: Vec<f64> = solve.history.iter().map(|pt| pt.gap).collect();
    if gaps.len() < 2 {
        return false;
    }
    let floor = 1e-9 * solve.u.len() as f64;
    let (first, last) = (gaps[0], *gaps.last().unwrap());
    last > floor && last > 0.75 * first
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CancelToken;
    use crate::solver::chambolle_denoise;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn noisy(w: usize, h: usize, seed: u64) -> Grid<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        Grid::from_fn(w, h, |x, _| {
            (if x < w / 2 { 0.2f32 } else { 0.8 }) + rng.gen_range(-0.1..0.1)
        })
    }

    fn params(iters: u32) -> ChambolleParams {
        ChambolleParams::paper(iters)
    }

    /// The token-driven guarded solve, spelled through the canonical
    /// context API.
    fn guarded_with_token(
        v: &Grid<f32>,
        params: &ChambolleParams,
        policy: &RecoveryPolicy,
        token: &CancelToken,
    ) -> Result<(Grid<f32>, RecoveryReport), GuardError> {
        let ctx = ExecCtx::default().with_cancel(token.clone());
        guarded_denoise_with_ctx(v, params, policy, &ctx)
    }

    #[test]
    fn report_telemetry_counts_actions_by_kind() {
        let mut report = RecoveryReport {
            detections: 3,
            ..Default::default()
        };
        report
            .actions
            .push(RecoveryAction::ScrubbedInput { cells: 2 });
        report.actions.push(RecoveryAction::Retry { attempt: 1 });
        report
            .actions
            .push(RecoveryAction::TileRecompute { round: 0, tile: 4 });
        report.actions.push(RecoveryAction::SequentialFallback);
        report.degraded = true;
        let tele = Telemetry::null();
        report.record_telemetry(&tele);
        let snap = tele.snapshot();
        assert_eq!(snap.counter(names::GUARD_DETECTIONS), Some(3));
        assert_eq!(snap.counter(names::GUARD_RECOVERIES), Some(3));
        assert_eq!(snap.counter(names::GUARD_FALLBACKS), Some(1));
        assert_eq!(snap.counter(names::GUARD_DEGRADED), Some(1));
        assert_eq!(snap.counter("guard.action.retry"), Some(1));
        assert_eq!(snap.counter("guard.action.sequential_fallback"), Some(1));
        // Disabled handles record nothing.
        let off = Telemetry::disabled();
        report.record_telemetry(&off);
        assert!(off.snapshot().is_empty());
    }

    #[test]
    fn scrub_repairs_from_neighbors() {
        let mut v = Grid::new(3, 3, 0.5f32);
        v[(1, 1)] = f32::NAN;
        v[(0, 0)] = f32::INFINITY;
        assert_eq!(scrub_non_finite(&mut v), 2);
        assert_eq!(v[(1, 1)], 0.5);
        assert_eq!(v[(0, 0)], 0.5);
        assert!(v.as_slice().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn scrub_is_order_independent_and_zeroes_isolated_cells() {
        let mut v = Grid::new(1, 1, f32::NAN);
        assert_eq!(scrub_non_finite(&mut v), 1);
        assert_eq!(v[(0, 0)], 0.0);
        // A fully poisoned grid scrubs to zeros (neighbors read pre-scrub).
        let mut all_bad = Grid::new(4, 4, f32::NAN);
        assert_eq!(scrub_non_finite(&mut all_bad), 16);
        assert!(all_bad.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn scrub_leaves_clean_grids_untouched() {
        let v0 = noisy(8, 6, 1);
        let mut v = v0.clone();
        assert_eq!(scrub_non_finite(&mut v), 0);
        assert_eq!(v.as_slice(), v0.as_slice());
    }

    #[test]
    fn clean_solve_has_clean_report() {
        let v = noisy(20, 16, 2);
        let guard = GuardedDenoiser::tiled(TileConfig::new(12, 10, 2, 2).unwrap());
        let (u, report) = guard.denoise_checked(&v, &params(15)).unwrap();
        assert!(report.is_clean());
        // Same result as the unguarded tiled solver (no behavioral change).
        let plain =
            TiledSolver::new(TileConfig::new(12, 10, 2, 2).unwrap()).denoise(&v, &params(15));
        assert_eq!(u.as_slice(), plain.as_slice());
    }

    #[test]
    fn nan_input_is_scrubbed_and_solved() {
        let mut v = noisy(16, 12, 3);
        v[(5, 5)] = f32::NAN;
        v[(10, 2)] = f32::NEG_INFINITY;
        let guard = GuardedDenoiser::new(SequentialSolver::new());
        let (u, report) = guard.denoise_checked(&v, &params(10)).unwrap();
        assert!(u.as_slice().iter().all(|x| x.is_finite()));
        assert_eq!(report.detections, 1);
        assert_eq!(
            report.actions,
            vec![RecoveryAction::ScrubbedInput { cells: 2 }]
        );
        assert!(!report.degraded);
    }

    #[test]
    fn invalid_params_rejected_up_front() {
        let v = noisy(8, 8, 4);
        let guard = GuardedDenoiser::new(SequentialSolver::new());
        let mut p = params(10);
        p.theta = f32::NAN;
        assert!(matches!(
            guard.denoise_checked(&v, &p),
            Err(GuardError::InvalidParams(_))
        ));
        p = params(10);
        p.iterations = 0;
        assert!(matches!(
            guard.denoise_checked(&v, &p),
            Err(GuardError::InvalidParams(_))
        ));
    }

    /// A backend that emits garbage a configurable number of times before
    /// recovering — models a transient hardware fault.
    struct Flaky {
        bad_runs: std::sync::Mutex<u32>,
    }

    impl TvDenoiser for Flaky {
        fn denoise(&self, v: &Grid<f32>, params: &ChambolleParams) -> Grid<f32> {
            let mut left = self.bad_runs.lock().unwrap();
            if *left > 0 {
                *left -= 1;
                Grid::new(v.width(), v.height(), f32::NAN)
            } else {
                chambolle_denoise(v, params).0
            }
        }
    }

    #[test]
    fn transient_backend_fault_is_retried() {
        let v = noisy(12, 10, 5);
        let guard = GuardedDenoiser::new(Flaky {
            bad_runs: std::sync::Mutex::new(1),
        });
        let (u, report) = guard.denoise_checked(&v, &params(12)).unwrap();
        assert_eq!(report.detections, 1);
        assert_eq!(report.actions, vec![RecoveryAction::Retry { attempt: 1 }]);
        assert!(!report.degraded);
        let (reference, _) = chambolle_denoise(&v, &params(12));
        assert_eq!(u.as_slice(), reference.as_slice());
    }

    #[test]
    fn persistent_backend_fault_falls_back_to_sequential() {
        let v = noisy(12, 10, 6);
        let guard = GuardedDenoiser::new(Flaky {
            bad_runs: std::sync::Mutex::new(u32::MAX),
        });
        let (u, report) = guard.denoise_checked(&v, &params(12)).unwrap();
        assert!(report.degraded);
        assert_eq!(
            report.actions.last(),
            Some(&RecoveryAction::SequentialFallback)
        );
        let (reference, _) = chambolle_denoise(&v, &params(12));
        assert_eq!(u.as_slice(), reference.as_slice());
    }

    #[test]
    fn trait_denoise_never_panics_or_poisons() {
        let mut v = noisy(10, 8, 7);
        v[(0, 0)] = f32::NAN;
        let guard = GuardedDenoiser::tiled(TileConfig::new(8, 8, 1, 1).unwrap());
        let u = guard.denoise(&v, &params(8));
        assert!(u.as_slice().iter().all(|x| x.is_finite()));
        assert_eq!(guard.name(), "guarded");
    }

    #[test]
    fn monitored_guard_accepts_stable_params() {
        let v = noisy(16, 12, 8);
        let (solve, report) =
            guarded_denoise_monitored(&v, &params(60), 20, 0.0, &RecoveryPolicy::default())
                .unwrap();
        assert!(report.is_clean());
        assert_eq!(solve.iterations_run, 60);
    }

    #[test]
    fn monitored_guard_backs_off_unstable_step() {
        let v = noisy(16, 12, 9);
        // τ/θ = 2: far beyond the 1/4 stability bound; the plain solve
        // diverges, the guard must halve τ until it converges.
        let unstable = ChambolleParams {
            theta: 0.25,
            tau: 0.5,
            iterations: 80,
        };
        let policy = RecoveryPolicy {
            max_retries: 6,
            check_energy: true,
        };
        let (solve, report) = guarded_denoise_monitored(&v, &unstable, 20, 0.0, &policy).unwrap();
        assert!(report.degraded);
        assert!(report.detections >= 1);
        assert!(report
            .actions
            .iter()
            .any(|a| matches!(a, RecoveryAction::StepBackoff { .. })));
        assert!(solve.final_gap().is_finite());
        // The recovered run descends: final energy below the start.
        let e0 = rof_energy(&v, &v, 0.25);
        assert!(solve.history.last().unwrap().energy < e0);
    }

    #[test]
    fn monitored_guard_gives_up_with_zero_retries() {
        let v = noisy(12, 10, 10);
        let unstable = ChambolleParams {
            theta: 0.25,
            tau: 8.0,
            iterations: 60,
        };
        let policy = RecoveryPolicy {
            max_retries: 0,
            check_energy: true,
        };
        let err = guarded_denoise_monitored(&v, &unstable, 20, 0.0, &policy).unwrap_err();
        match err {
            GuardError::Unrecoverable(report) => {
                assert!(report.detections >= 1);
            }
            other => panic!("expected Unrecoverable, got {other:?}"),
        }
    }

    #[test]
    fn report_display_and_helpers() {
        let mut report = RecoveryReport::default();
        assert!(report.is_clean());
        report.detections = 2;
        report
            .actions
            .push(RecoveryAction::TileRecompute { round: 1, tile: 3 });
        report.actions.push(RecoveryAction::SequentialFallback);
        report.degraded = true;
        assert_eq!(report.tile_recomputes(), 1);
        let text = report.to_string();
        assert!(text.contains("2 detection"));
        assert!(text.contains("degraded"));
        for action in &report.actions {
            assert!(!action.to_string().is_empty());
        }
    }

    #[test]
    fn cancellable_guard_matches_guarded_denoiser_bit_for_bit() {
        use crate::cancel::{CancelReason, CancelToken};
        let mut v = noisy(16, 12, 12);
        v[(3, 3)] = f32::NAN; // exercise the scrub path too
        let policy = RecoveryPolicy::default();
        let guard = GuardedDenoiser::new(SequentialSolver::new()).with_policy(policy);
        let (u_ref, rep_ref) = guard.denoise_checked(&v, &params(15)).unwrap();
        let (u_canc, rep_canc) =
            guarded_with_token(&v, &params(15), &policy, &CancelToken::new()).unwrap();
        assert_eq!(u_ref.as_slice(), u_canc.as_slice());
        assert_eq!(rep_ref.actions, rep_canc.actions);

        // Cancellation surfaces as a structured GuardError with a source.
        let token = CancelToken::new();
        token.cancel();
        let err = guarded_with_token(&v, &params(15), &policy, &token).unwrap_err();
        match err {
            GuardError::Cancelled(c) => assert_eq!(c.reason, CancelReason::Explicit),
            other => panic!("expected Cancelled, got {other:?}"),
        }
        // Validation errors still win over cancellation checks.
        let mut bad = params(10);
        bad.iterations = 0;
        assert!(matches!(
            guarded_with_token(&v, &bad, &policy, &token),
            Err(GuardError::InvalidParams(_))
        ));
    }

    #[test]
    fn output_validation_rejects_blowups() {
        let v = noisy(10, 8, 11);
        let (u, _) = chambolle_denoise(&v, &params(20));
        assert!(output_is_valid(&u, &v, 0.25, true));
        let blown = u.map(|&x| x * 1e6);
        assert!(!output_is_valid(&blown, &v, 0.25, true));
        let poisoned = u.map(|&x| if x > 0.5 { f32::NAN } else { x });
        assert!(!output_is_valid(&poisoned, &v, 0.25, false));
        assert!(!output_is_valid(&Grid::new(3, 3, 0.0f32), &v, 0.25, false));
    }

    #[test]
    fn past_deadline_cancels_before_the_first_iteration_boundary() {
        use crate::cancel::{CancelReason, CancelToken};
        use std::time::{Duration, Instant};
        let v = noisy(16, 12, 31);
        let policy = RecoveryPolicy::default();
        // Zero and past deadlines both fail the pre-iteration poll: the
        // guard never reaches a single Chambolle iteration (an enormous
        // iteration count would hang the test if it did).
        for token in [
            CancelToken::with_timeout(Duration::ZERO),
            CancelToken::with_deadline(Instant::now() - Duration::from_secs(5)),
        ] {
            let started = Instant::now();
            let err = guarded_with_token(&v, &params(2_000_000), &policy, &token).unwrap_err();
            match err {
                GuardError::Cancelled(c) => {
                    assert_eq!(c.reason, CancelReason::DeadlineExceeded);
                }
                other => panic!("expected Cancelled, got {other:?}"),
            }
            assert!(
                started.elapsed() < Duration::from_secs(2),
                "an expired deadline must abort without iterating"
            );
        }
    }

    #[test]
    fn token_reuse_across_solves_is_sound() {
        use crate::cancel::{CancelReason, CancelToken};
        let v = noisy(14, 10, 32);
        let policy = RecoveryPolicy::default();
        // A live token is reusable across successive solves, each
        // bit-identical to the token-free reference.
        let token = CancelToken::new();
        let (u_ref, _) = guarded_with_token(&v, &params(12), &policy, &CancelToken::new()).unwrap();
        for _ in 0..2 {
            let (u, _) = guarded_with_token(&v, &params(12), &policy, &token).unwrap();
            assert_eq!(u.as_slice(), u_ref.as_slice());
        }
        // Once cancelled, the same token poisons every later solve
        // immediately (tokens are monotonic): reuse-after-cancel is an
        // error, not a silent recompute.
        token.cancel();
        for _ in 0..2 {
            match guarded_with_token(&v, &params(12), &policy, &token).unwrap_err() {
                GuardError::Cancelled(c) => assert_eq!(c.reason, CancelReason::Explicit),
                other => panic!("expected Cancelled, got {other:?}"),
            }
        }
    }

    #[test]
    fn degraded_context_caps_iterations_through_the_guard() {
        use crate::ctx::{DegradationPolicy, ExecCtx};
        let v = noisy(16, 12, 33);
        let policy = RecoveryPolicy::default();
        // The brownout tier through the guarded path must equal a plain
        // solve at the capped iteration count — degradation only shortens
        // the schedule, it never changes the algorithm.
        let degraded_ctx = ExecCtx::default().with_degradation(DegradationPolicy::cap(8));
        let (u_deg, _) = guarded_denoise_with_ctx(&v, &params(40), &policy, &degraded_ctx).unwrap();
        let (u_short, _) =
            guarded_denoise_with_ctx(&v, &params(8), &policy, &ExecCtx::default()).unwrap();
        assert_eq!(u_deg.as_slice(), u_short.as_slice());
        // A cap above the request is inert.
        let wide_ctx = ExecCtx::default().with_degradation(DegradationPolicy::cap(500));
        let (u_full, _) = guarded_denoise_with_ctx(&v, &params(40), &policy, &wide_ctx).unwrap();
        let (u_ref, _) =
            guarded_denoise_with_ctx(&v, &params(40), &policy, &ExecCtx::default()).unwrap();
        assert_eq!(u_full.as_slice(), u_ref.as_slice());
    }
}
