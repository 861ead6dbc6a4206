//! The execution context consolidating the solver entry-point surface.
//!
//! One value carries **all** execution policy — worker pool, telemetry
//! registry, cancellation token and [`KernelBackend`] — and every solve
//! family exposes a single `*_with_ctx` entry point taking it, instead of
//! one twin per capability. The plain forms (`chambolle_denoise`,
//! `chambolle_iterate`, ...) build an inert context and delegate.
//!
//! [`ExecCtx::default`] is fully inert: no pool (sequential execution),
//! disabled telemetry (a single branch per probe), no cancellation. The
//! kernel backend defaults to [`KernelBackend::active`] — backend choice is
//! a pure throughput knob (every backend is bit-identical at the Exact
//! tier, see [`crate::kernels`]), so the widest supported vector unit is
//! safe to use even in an otherwise-inert context.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use chambolle_core::{chambolle_denoise_with_ctx, ChambolleParams, ExecCtx};
//! use chambolle_imaging::Grid;
//! use chambolle_par::ThreadPool;
//!
//! let v = Grid::from_fn(32, 24, |x, y| ((x ^ y) & 7) as f32 / 7.0);
//! let params = ChambolleParams::with_iterations(15);
//!
//! // Inert context: sequential, silent, uncancellable.
//! let (u_seq, _) = chambolle_denoise_with_ctx(&v, &params, &ExecCtx::default()).unwrap();
//!
//! // Pooled context: same bits, more cores.
//! let ctx = ExecCtx::default().with_pool(Arc::new(ThreadPool::new(4)));
//! let (u_par, _) = chambolle_denoise_with_ctx(&v, &params, &ctx).unwrap();
//! assert_eq!(u_seq.as_slice(), u_par.as_slice());
//! ```

use std::sync::{Arc, OnceLock};

use chambolle_par::{KernelBackend, ThreadPool};
use chambolle_telemetry::trace::TraceContext;
use chambolle_telemetry::Telemetry;
use chambolle_tune::Tunables;

use crate::cancel::{CancelToken, Cancelled};

/// Environment variable that overrides the process-wide numerics tier
/// (`exact` or `fast`).
pub const NUMERICS_ENV: &str = "CHAMBOLLE_NUMERICS";

/// Which numerics tier the kernels of a solve run at.
///
/// **`Exact`** (the default) is the reference tier: every backend replays
/// the scalar operation order — no fused multiply-add, no reassociation —
/// so results are bit-identical across backends and thread counts. That
/// contract is what the workspace exactness suites pin.
///
/// **`Fast`** trades the byte-equality contract for throughput: kernels may
/// fuse multiply-adds, reassociate reductions, share one reciprocal across
/// the two normalizing divides of the dual update, replace `sqrt`/division
/// with hardware reciprocal approximations plus Newton–Raphson refinement,
/// run 16-lane AVX-512 bodies, and fuse each row's term and update into
/// one traversal. Fast results are validated against Exact by
/// **energy and duality-gap tolerance** ([`NumericsPolicy::ENERGY_RTOL`]),
/// with [`NumericsPolicy::PIXEL_ATOL`] as a coarse per-pixel sanity bound —
/// the validation model of the paper's own quantized 13/9/9-bit datapath,
/// which ships accuracy bounds, not byte equality. Within one backend the
/// Fast tier is still deterministic and thread-count invariant; it is *not*
/// bit-comparable across backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NumericsPolicy {
    /// Bit-exact reference numerics (scalar operation order everywhere).
    #[default]
    Exact,
    /// Tolerance-validated fast numerics (FMA, reassociation, approximate
    /// reciprocals, AVX-512, fused row steps).
    Fast,
}

impl NumericsPolicy {
    /// Relative energy / duality-gap agreement the Fast tier guarantees
    /// against Exact for the same solve (pinned by the workspace tolerance
    /// harness).
    pub const ENERGY_RTOL: f64 = 1e-3;

    /// Coarse per-pixel sanity bound of the Fast tier against Exact on
    /// unit-range images; [`NumericsPolicy::ENERGY_RTOL`] is the tier's real
    /// contract.
    ///
    /// Per-pixel drift grows with frame size. On `NoiseTexture::new(17)` the
    /// worst max |Δpixel| over the scalar, AVX2 and AVX-512 backends was
    /// 2.0e-3 at 256×256 with 200 iterations and 4.1e-3 at 1024×768 with
    /// 101 iterations (2.6e-3 with 200), while the relative energy deviation
    /// stayed ≤ 5e-6. The bound is 2.4× the worst of those.
    pub const PIXEL_ATOL: f32 = 1e-2;

    /// Stable identifier (`exact`/`fast`) used by `CHAMBOLLE_NUMERICS`,
    /// telemetry and reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            NumericsPolicy::Exact => "exact",
            NumericsPolicy::Fast => "fast",
        }
    }

    /// Parses a `CHAMBOLLE_NUMERICS` value (case-insensitive).
    pub fn parse(s: &str) -> Option<NumericsPolicy> {
        match s.trim().to_ascii_lowercase().as_str() {
            "exact" => Some(NumericsPolicy::Exact),
            "fast" => Some(NumericsPolicy::Fast),
            _ => None,
        }
    }

    /// Resolves an optional override string: a recognised value wins,
    /// anything else (unrecognised, absent) is the Exact default. The pure
    /// core of [`NumericsPolicy::active`], separate so tests can exercise
    /// the policy without touching the process environment.
    pub fn resolve(requested: Option<&str>) -> NumericsPolicy {
        requested
            .and_then(NumericsPolicy::parse)
            .unwrap_or(NumericsPolicy::Exact)
    }

    /// The process-wide numerics tier: the `CHAMBOLLE_NUMERICS` override if
    /// valid, else Exact. Resolved once and cached.
    pub fn active() -> NumericsPolicy {
        static ACTIVE: OnceLock<NumericsPolicy> = OnceLock::new();
        *ACTIVE.get_or_init(|| NumericsPolicy::resolve(std::env::var(NUMERICS_ENV).ok().as_deref()))
    }
}

/// Fidelity-shedding policy for brownout operation.
///
/// Under sustained overload a service can keep *accepting* work while
/// spending less on each request: a context carrying a degradation policy
/// caps the iteration budget of every solve that runs through it. The
/// result converges less far (a "degraded tier" answer) but arrives — the
/// graceful-degradation trade of the adaptive real-time PIV architecture,
/// shedding fidelity before shedding requests.
///
/// A policy is pure configuration: attaching one to an [`ExecCtx`] changes
/// results only when a lever actually bites (the request asked for more
/// iterations than the cap, or asked for Exact numerics while the policy
/// sheds to Fast). Callers that must know which tier they got should check
/// [`DegradationPolicy::degrades`] against the requested iteration count.
///
/// Shedding is **staged**: the cheaper lever first. [`fast_tier`] switches
/// solves to the tolerance-validated Fast numerics tier — same iteration
/// count, same convergence point to within [`NumericsPolicy::ENERGY_RTOL`]
/// — and only [`cap`] (or [`with_cap`] stacked on a fast-tier policy)
/// actually truncates convergence.
///
/// [`fast_tier`]: DegradationPolicy::fast_tier
/// [`cap`]: DegradationPolicy::cap
/// [`with_cap`]: DegradationPolicy::with_cap
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradationPolicy {
    /// Hard ceiling on Chambolle iterations per solve while degraded
    /// (`u32::MAX` when the policy sheds numerics only).
    pub max_iterations: u32,
    /// Numerics-tier override while degraded: `Some(Fast)` sheds precision
    /// guarantees instead of (or before) convergence depth, `None` leaves
    /// the context's own tier in force.
    pub numerics: Option<NumericsPolicy>,
}

impl DegradationPolicy {
    /// A policy capping solves at `max_iterations` iterations.
    ///
    /// # Panics
    ///
    /// Panics if `max_iterations` is zero — a zero-iteration "solve" would
    /// return the input unmodified, which is load shedding, not degradation.
    pub fn cap(max_iterations: u32) -> Self {
        assert!(
            max_iterations > 0,
            "a degradation policy must allow at least one iteration"
        );
        DegradationPolicy {
            max_iterations,
            numerics: None,
        }
    }

    /// A policy shedding to the [`NumericsPolicy::Fast`] tier without
    /// touching the iteration budget — the first (cheapest) brownout stage.
    pub fn fast_tier() -> Self {
        DegradationPolicy {
            max_iterations: u32::MAX,
            numerics: Some(NumericsPolicy::Fast),
        }
    }

    /// Adds fast-tier numerics shedding to this policy.
    pub fn with_fast_tier(mut self) -> Self {
        self.numerics = Some(NumericsPolicy::Fast);
        self
    }

    /// Adds an iteration cap to this policy (e.g. stacking the second
    /// brownout stage onto [`DegradationPolicy::fast_tier`]).
    ///
    /// # Panics
    ///
    /// Panics if `max_iterations` is zero (see [`DegradationPolicy::cap`]).
    pub fn with_cap(mut self, max_iterations: u32) -> Self {
        assert!(
            max_iterations > 0,
            "a degradation policy must allow at least one iteration"
        );
        self.max_iterations = max_iterations;
        self
    }

    /// The iteration budget this policy grants a request for `requested`.
    pub fn effective_iterations(&self, requested: u32) -> u32 {
        requested.min(self.max_iterations)
    }

    /// Whether the policy actually reduces a request for `requested`
    /// iterations.
    pub fn caps(&self, requested: u32) -> bool {
        requested > self.max_iterations
    }

    /// Whether the policy overrides the numerics tier to [`Fast`].
    ///
    /// [`Fast`]: NumericsPolicy::Fast
    pub fn sheds_numerics(&self) -> bool {
        self.numerics == Some(NumericsPolicy::Fast)
    }

    /// Whether a request for `requested` iterations would be served at a
    /// degraded tier under this policy — by iteration truncation, by
    /// numerics shedding, or both.
    pub fn degrades(&self, requested: u32) -> bool {
        self.caps(requested) || self.sheds_numerics()
    }
}

/// Execution policy for one solve: pool + telemetry + cancellation +
/// kernel backend + optional brownout degradation + trace context.
///
/// Cheap to clone (two `Arc` bumps at most) and immutable once built; the
/// builder methods consume and return `self` so contexts compose in one
/// expression.
#[derive(Debug, Clone)]
pub struct ExecCtx {
    pool: Option<Arc<ThreadPool>>,
    telemetry: Telemetry,
    cancel: Option<CancelToken>,
    backend: KernelBackend,
    numerics: NumericsPolicy,
    degradation: Option<DegradationPolicy>,
    trace: TraceContext,
}

impl Default for ExecCtx {
    /// The inert context: no pool, disabled telemetry, no cancellation, the
    /// process-wide kernel backend ([`KernelBackend::active`], which honours
    /// `CHAMBOLLE_BACKEND`) and numerics tier ([`NumericsPolicy::active`],
    /// which honours `CHAMBOLLE_NUMERICS`).
    fn default() -> Self {
        ExecCtx {
            pool: None,
            telemetry: Telemetry::disabled(),
            cancel: None,
            backend: KernelBackend::active(),
            numerics: NumericsPolicy::active(),
            degradation: None,
            trace: TraceContext::NONE,
        }
    }
}

impl ExecCtx {
    /// Alias for [`ExecCtx::default`].
    pub fn new() -> Self {
        ExecCtx::default()
    }

    /// Returns [`ExecCtx::default`]: `tunables` is ignored, because no
    /// tuning knob reaches a solve. Kept only for its last caller, the
    /// benchmark harness in `benchmark/`.
    pub fn from_tunables(_tunables: Tunables) -> Self {
        ExecCtx::default()
    }

    /// Runs the solve's parallel stages on `pool`.
    pub fn with_pool(mut self, pool: Arc<ThreadPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Records metrics and spans into `telemetry`.
    ///
    /// The context's kernel backend publishes its `backend.*` gauges into
    /// the handle immediately, so every run report produced from a solve
    /// through this context names the vector unit the bits came from.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self.backend.record_telemetry(&self.telemetry);
        self
    }

    /// Polls `cancel` at iteration boundaries.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Runs the row kernels on `backend` (bit-identical on every backend).
    pub fn with_backend(mut self, backend: KernelBackend) -> Self {
        self.backend = backend;
        self.backend.record_telemetry(&self.telemetry);
        self
    }

    /// Runs the solve at `numerics` tier (overriding the
    /// `CHAMBOLLE_NUMERICS` environment default).
    pub fn with_numerics(mut self, numerics: NumericsPolicy) -> Self {
        self.numerics = numerics;
        self
    }

    /// Caps every solve's iteration budget per `policy` (brownout tier).
    ///
    /// Unlike the other context knobs this one **changes results** whenever
    /// the cap bites: that is its purpose. Solvers honoring the context
    /// report the capped budget through [`ExecCtx::effective_iterations`].
    pub fn with_degradation(mut self, policy: DegradationPolicy) -> Self {
        self.degradation = Some(policy);
        self
    }

    /// Tags the solve with a propagated distributed-trace context, so
    /// solver-side instrumentation can attribute its work to the request
    /// that caused it.
    pub fn with_trace(mut self, trace: TraceContext) -> Self {
        self.trace = trace;
        self
    }

    /// The worker pool, if any.
    pub fn pool(&self) -> Option<&Arc<ThreadPool>> {
        self.pool.as_ref()
    }

    /// The telemetry handle (disabled by default).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The cancellation token, if any.
    pub fn cancel(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// The kernel backend the row kernels run on.
    pub fn backend(&self) -> KernelBackend {
        self.backend
    }

    /// The numerics tier solves through this context run at, folding in any
    /// degradation override: an attached policy shedding numerics wins over
    /// the context's own tier (resolution order: degradation override >
    /// [`ExecCtx::with_numerics`] > `CHAMBOLLE_NUMERICS` > Exact).
    pub fn numerics(&self) -> NumericsPolicy {
        self.degradation
            .as_ref()
            .and_then(|p| p.numerics)
            .unwrap_or(self.numerics)
    }

    /// The brownout degradation policy, if one is attached.
    pub fn degradation(&self) -> Option<&DegradationPolicy> {
        self.degradation.as_ref()
    }

    /// The distributed-trace context ([`TraceContext::NONE`] by default).
    pub fn trace(&self) -> TraceContext {
        self.trace
    }

    /// The iteration budget a solve asking for `requested` iterations gets
    /// under this context: `requested` itself without a degradation policy,
    /// the policy's cap otherwise.
    pub fn effective_iterations(&self, requested: u32) -> u32 {
        match &self.degradation {
            Some(policy) => policy.effective_iterations(requested),
            None => requested,
        }
    }

    /// Whether a solve asking for `requested` iterations would be served at
    /// the degraded tier under this context — by iteration capping or by
    /// numerics shedding.
    pub fn degrades(&self, requested: u32) -> bool {
        self.degradation
            .as_ref()
            .is_some_and(|p| p.degrades(requested))
    }

    /// Polls the cancellation token, if one is attached.
    ///
    /// # Errors
    ///
    /// Returns [`Cancelled`] once the attached token reports cancellation.
    pub fn checkpoint(&self) -> Result<(), Cancelled> {
        match &self.cancel {
            Some(token) => token.check(),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_context_is_inert() {
        let ctx = ExecCtx::default();
        assert!(ctx.pool().is_none());
        assert!(ctx.cancel().is_none());
        assert!(!ctx.telemetry().is_enabled());
        assert_eq!(ctx.backend(), KernelBackend::active());
        assert!(ctx.checkpoint().is_ok());
        assert!(ctx.degradation().is_none());
        assert_eq!(ctx.effective_iterations(100), 100);
        assert!(!ctx.degrades(100));
    }

    #[test]
    fn degradation_policy_caps_only_when_it_bites() {
        let policy = DegradationPolicy::cap(25);
        assert_eq!(policy.effective_iterations(100), 25);
        assert_eq!(policy.effective_iterations(10), 10);
        assert!(policy.caps(26));
        assert!(!policy.caps(25));

        let ctx = ExecCtx::default().with_degradation(policy);
        assert_eq!(ctx.degradation(), Some(&policy));
        assert_eq!(ctx.effective_iterations(100), 25);
        assert_eq!(ctx.effective_iterations(5), 5);
        assert!(ctx.degrades(26));
        assert!(!ctx.degrades(20));
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn zero_iteration_degradation_policy_is_rejected() {
        let _ = DegradationPolicy::cap(0);
    }

    #[test]
    fn numerics_policy_parses_and_resolves() {
        assert_eq!(NumericsPolicy::parse("exact"), Some(NumericsPolicy::Exact));
        assert_eq!(NumericsPolicy::parse(" FAST "), Some(NumericsPolicy::Fast));
        assert_eq!(NumericsPolicy::parse("approx"), None);
        assert_eq!(NumericsPolicy::resolve(None), NumericsPolicy::Exact);
        assert_eq!(NumericsPolicy::resolve(Some("fast")), NumericsPolicy::Fast);
        assert_eq!(
            NumericsPolicy::resolve(Some("not-a-tier")),
            NumericsPolicy::Exact
        );
        assert_eq!(NumericsPolicy::Exact.as_str(), "exact");
        assert_eq!(NumericsPolicy::Fast.as_str(), "fast");
    }

    #[test]
    fn context_numerics_folds_degradation_override() {
        // The default context runs the env-or-Exact process default;
        // with_numerics overrides it.
        let ctx = ExecCtx::default();
        assert_eq!(ctx.numerics(), NumericsPolicy::active());
        let fast = ctx.clone().with_numerics(NumericsPolicy::Fast);
        assert_eq!(fast.numerics(), NumericsPolicy::Fast);
        let exact = ctx.with_numerics(NumericsPolicy::Exact);
        assert_eq!(exact.numerics(), NumericsPolicy::Exact);

        // A numerics-shedding degradation policy wins over the context's
        // own tier and marks every request degraded — even ones whose
        // iteration budget is untouched.
        let shed = exact.with_degradation(DegradationPolicy::fast_tier());
        assert_eq!(shed.numerics(), NumericsPolicy::Fast);
        assert_eq!(shed.effective_iterations(100), 100);
        assert!(shed.degrades(1));

        // A pure iteration cap leaves the tier alone.
        let capped = ExecCtx::default()
            .with_numerics(NumericsPolicy::Exact)
            .with_degradation(DegradationPolicy::cap(25));
        assert_eq!(capped.numerics(), NumericsPolicy::Exact);
    }

    #[test]
    fn staged_degradation_policies_compose() {
        let stage1 = DegradationPolicy::fast_tier();
        assert!(stage1.sheds_numerics());
        assert!(!stage1.caps(1_000_000));
        assert!(stage1.degrades(1));
        assert_eq!(stage1.effective_iterations(300), 300);

        let stage2 = DegradationPolicy::fast_tier().with_cap(25);
        assert!(stage2.sheds_numerics());
        assert!(stage2.caps(26));
        assert_eq!(stage2.effective_iterations(300), 25);

        let capped_then_shed = DegradationPolicy::cap(25).with_fast_tier();
        assert_eq!(capped_then_shed, stage2);

        let cap_only = DegradationPolicy::cap(25);
        assert!(!cap_only.sheds_numerics());
        assert!(cap_only.degrades(26));
        assert!(!cap_only.degrades(25));
    }

    #[test]
    fn attaching_telemetry_publishes_backend_gauges() {
        use chambolle_telemetry::names;
        let telemetry = Telemetry::null();
        let ctx = ExecCtx::default()
            .with_telemetry(telemetry.clone())
            .with_backend(KernelBackend::Scalar);
        let snap = telemetry.snapshot();
        assert_eq!(
            snap.gauge(names::BACKEND_SIMD_LANES),
            Some(ctx.backend().lanes() as f64)
        );
        assert!(snap.gauge(names::BACKEND_SSE2_SUPPORTED).is_some());
        assert!(snap.gauge(names::BACKEND_AVX2_SUPPORTED).is_some());
    }

    #[test]
    fn builders_compose() {
        let token = CancelToken::new();
        let pool = Arc::new(ThreadPool::new(2));
        let ctx = ExecCtx::new()
            .with_pool(Arc::clone(&pool))
            .with_cancel(token.clone())
            .with_backend(KernelBackend::Scalar);
        assert_eq!(ctx.pool().unwrap().threads(), 2);
        assert_eq!(ctx.backend(), KernelBackend::Scalar);
        assert!(ctx.checkpoint().is_ok());
        token.cancel();
        assert!(ctx.checkpoint().is_err());
    }
}
