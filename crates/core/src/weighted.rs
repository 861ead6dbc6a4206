//! Weighted (spatially adaptive) total variation — the natural extension of
//! Chambolle's projection algorithm to `min_u Σ w·|∇u| + ‖u−v‖²/(2θ)`.
//!
//! The dual constraint becomes `|p(x)| ≤ w(x)` pointwise, and the
//! semi-implicit update changes only its renormalization:
//! `p ← (p + τ/θ·∇term) / (1 + τ/θ·|∇term|/w)`. With `w ≡ 1` this is
//! exactly Algorithm 1 (tested below). Spatially varying `w` gives
//! edge-aware denoising: small `w` preserves detail, large `w` smooths —
//! e.g. `w` derived from an edge detector.
//!
//! This is an extension beyond the paper (its hardware fixes `w = 1`), kept
//! in a separate module so the reproduction path stays untouched.

use chambolle_imaging::Grid;
use chambolle_par::{KernelBackend, ThreadPool, UnsafeSharedSlice};

use crate::ctx::{ExecCtx, NumericsPolicy};
use crate::kernels::compute_term_row_on;
use crate::params::{ChambolleParams, InvalidParamsError};
use crate::real::Real;
use crate::solver::{recover_u, DualField};

/// Validates a weight field: strictly positive and finite everywhere.
///
/// # Errors
///
/// Returns [`InvalidParamsError`] if any weight is not finite and positive.
pub fn validate_weights<R: Real>(w: &Grid<R>) -> Result<(), InvalidParamsError> {
    for (x, y, &val) in w.iter() {
        if !(val.is_finite() && val > R::ZERO) {
            return Err(InvalidParamsError::new(format!(
                "weight at ({x}, {y}) must be finite and positive, got {val:?}"
            )));
        }
    }
    Ok(())
}

/// One weighted dual update (pass 2 of an iteration), in place.
///
/// # Panics
///
/// Panics if grid dimensions differ.
pub fn update_p_weighted<R: Real>(
    p: &mut DualField<R>,
    term: &Grid<R>,
    weights: &Grid<R>,
    step_ratio: R,
) {
    assert_eq!(
        p.dims(),
        term.dims(),
        "dual field and term must match in size"
    );
    assert_eq!(p.dims(), weights.dims(), "weights must match in size");
    let (w, h) = term.dims();
    for y in 0..h {
        for x in 0..w {
            let t1 = if x + 1 < w {
                term[(x + 1, y)] - term[(x, y)]
            } else {
                R::ZERO
            };
            let t2 = if y + 1 < h {
                term[(x, y + 1)] - term[(x, y)]
            } else {
                R::ZERO
            };
            let grad = (t1 * t1 + t2 * t2).sqrt();
            let denom = R::ONE + step_ratio * grad / weights[(x, y)];
            p.px[(x, y)] = (p.px[(x, y)] + step_ratio * t1) / denom;
            p.py[(x, y)] = (p.py[(x, y)] + step_ratio * t2) / denom;
        }
    }
}

/// Solves the weighted ROF model `min_u Σ w·|∇u| + ‖u−v‖²/(2θ)`.
///
/// # Errors
///
/// Returns [`InvalidParamsError`] if the weights are invalid or the
/// dimensions differ.
pub fn chambolle_denoise_weighted<R: Real>(
    v: &Grid<R>,
    weights: &Grid<R>,
    params: &ChambolleParams,
) -> Result<(Grid<R>, DualField<R>), InvalidParamsError> {
    chambolle_denoise_weighted_with_ctx(v, weights, params, &ExecCtx::default())
}

/// [`chambolle_denoise_weighted`] under an [`ExecCtx`].
///
/// Until PR 5 the weighted solve ignored the pool/telemetry plumbing
/// entirely; it now honors the context:
///
/// - the term pass runs on the context's pool (row-sharded; each row is
///   produced by the same row kernel either way, so the result is
///   bit-identical to the sequential pass),
/// - that term pass also runs on the context's [`KernelBackend`],
/// - the solve is wrapped in a `weighted.solve` telemetry span.
///
/// The weighted dual update itself stays a sequential scalar pass: its
/// per-weight renormalization has no fused/vector kernel (the paper's
/// hardware fixes `w = 1`). The context's numerics tier applies to the
/// term pass only — under [`NumericsPolicy::Fast`](crate::NumericsPolicy)
/// the term rows run the Fast tier's FMA term kernels
/// ([`compute_term_row_on`]). The context's
/// cancellation token is **not** polled — the weighted solve has no
/// cancellable entry point to stay compatible with, and its error type
/// reports invalid inputs only.
///
/// # Errors
///
/// Returns [`InvalidParamsError`] if the weights are invalid or the
/// dimensions differ.
pub fn chambolle_denoise_weighted_with_ctx<R: Real>(
    v: &Grid<R>,
    weights: &Grid<R>,
    params: &ChambolleParams,
    ctx: &ExecCtx,
) -> Result<(Grid<R>, DualField<R>), InvalidParamsError> {
    if v.dims() != weights.dims() {
        return Err(InvalidParamsError::new(format!(
            "weights {}x{} do not match image {}x{}",
            weights.width(),
            weights.height(),
            v.width(),
            v.height()
        )));
    }
    validate_weights(weights)?;
    let _span = ctx.telemetry().span("weighted.solve");
    let backend = ctx.backend();
    let numerics = ctx.numerics();
    let pool = ctx.pool().map(std::sync::Arc::as_ref);
    let inv_theta = R::ONE / R::from_f32(params.theta);
    let step_ratio = R::from_f32(params.step_ratio());
    let mut p = DualField::zeros(v.width(), v.height());
    let mut term = Grid::new(v.width(), v.height(), R::ZERO);
    for _ in 0..params.iterations {
        term_pass(&p, v, inv_theta, backend, numerics, pool, &mut term);
        update_p_weighted(&mut p, &term, weights, step_ratio);
    }
    Ok((recover_u(v, &p, params.theta), p))
}

/// Pass 1 of a weighted iteration: fills `term` row by row with the
/// context's backend, sharding rows over `pool` when one is attached. Rows
/// are independent (each reads only `p` and `v`), so the sharding changes
/// scheduling, never values.
fn term_pass<R: Real>(
    p: &DualField<R>,
    v: &Grid<R>,
    inv_theta: R,
    backend: KernelBackend,
    numerics: NumericsPolicy,
    pool: Option<&ThreadPool>,
    term: &mut Grid<R>,
) {
    let (w, h) = v.dims();
    if w == 0 || h == 0 {
        return;
    }
    let term_row = |y: usize, out: &mut [R]| {
        compute_term_row_on(
            backend,
            numerics,
            p.px.row(y),
            p.py.row(y),
            (y > 0).then(|| p.py.row(y - 1)),
            v.row(y),
            inv_theta,
            y + 1 == h,
            out,
        );
    };
    match pool {
        None => {
            for y in 0..h {
                term_row(y, term.row_mut(y));
            }
        }
        Some(pool) => {
            let shared = UnsafeSharedSlice::new(term.as_mut_slice());
            let chunk = h.div_ceil(pool.threads().max(1)).max(1);
            pool.parallel_for_rows("weighted.term", 0..h, chunk, |rows| {
                for y in rows {
                    // SAFETY: row ranges handed out by `parallel_for_rows`
                    // are disjoint, so each term row is written by exactly
                    // one task.
                    term_row(y, unsafe { shared.slice_mut(y * w, w) });
                }
            });
        }
    }
}

/// The weighted ROF primal energy `Σ w·|∇u| + ‖u−v‖²/(2θ)`.
///
/// # Panics
///
/// Panics if dimensions differ or `theta <= 0`.
pub fn weighted_rof_energy<R: Real>(
    u: &Grid<R>,
    v: &Grid<R>,
    weights: &Grid<R>,
    theta: f32,
) -> f64 {
    assert_eq!(u.dims(), v.dims(), "u and v must match in size");
    assert_eq!(u.dims(), weights.dims(), "weights must match in size");
    assert!(theta > 0.0, "theta must be positive");
    let (w, h) = u.dims();
    let mut tv = 0.0f64;
    for y in 0..h {
        for x in 0..w {
            let gx = if x + 1 < w {
                (u[(x + 1, y)] - u[(x, y)]).to_f64()
            } else {
                0.0
            };
            let gy = if y + 1 < h {
                (u[(x, y + 1)] - u[(x, y)]).to_f64()
            } else {
                0.0
            };
            tv += weights[(x, y)].to_f64() * (gx * gx + gy * gy).sqrt();
        }
    }
    let quad: f64 = u
        .as_slice()
        .iter()
        .zip(v.as_slice())
        .map(|(&a, &b)| {
            let d = a.to_f64() - b.to_f64();
            d * d
        })
        .sum();
    tv + quad / (2.0 * theta as f64)
}

/// Weight field `w = 1 / (1 + s·|∇v|)` from the input's own gradients —
/// low weight (little smoothing) across strong edges.
pub fn edge_stopping_weights<R: Real>(v: &Grid<R>, sensitivity: f32) -> Grid<R> {
    let (w, h) = v.dims();
    let s = sensitivity as f64;
    Grid::from_fn(w, h, |x, y| {
        let gx = if x + 1 < w {
            (v[(x + 1, y)] - v[(x, y)]).to_f64()
        } else {
            0.0
        };
        let gy = if y + 1 < h {
            (v[(x, y + 1)] - v[(x, y)]).to_f64()
        } else {
            0.0
        };
        let mag = (gx * gx + gy * gy).sqrt();
        R::from_f64(1.0 / (1.0 + s * mag))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::chambolle_denoise;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn params(iters: u32) -> ChambolleParams {
        ChambolleParams::paper(iters)
    }

    fn noisy_step(w: usize, h: usize, seed: u64) -> Grid<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        Grid::from_fn(w, h, |x, _| {
            (if x < w / 2 { 0.2 } else { 0.8 }) + rng.gen_range(-0.1..0.1)
        })
    }

    #[test]
    fn unit_weights_reproduce_algorithm_1() {
        let v = noisy_step(20, 14, 1);
        let ones = Grid::new(20, 14, 1.0f64);
        let (u_w, p_w) = chambolle_denoise_weighted(&v, &ones, &params(40)).unwrap();
        let (u, p) = chambolle_denoise(&v, &params(40));
        assert_eq!(u_w.as_slice(), u.as_slice());
        assert_eq!(p_w.px.as_slice(), p.px.as_slice());
    }

    #[test]
    fn dual_respects_weighted_ball() {
        let mut rng = StdRng::seed_from_u64(2);
        let v = noisy_step(16, 12, 3);
        let weights = Grid::from_fn(16, 12, |_, _| rng.gen_range(0.2f64..2.0));
        let (_, p) = chambolle_denoise_weighted(&v, &weights, &params(60)).unwrap();
        for (x, y, &w) in weights.iter() {
            let norm = (p.px[(x, y)].powi(2) + p.py[(x, y)].powi(2)).sqrt();
            assert!(norm <= w + 1e-12, "|p| = {norm} > w = {w} at ({x},{y})");
        }
    }

    #[test]
    fn weighted_energy_decreases() {
        let v = noisy_step(24, 16, 4);
        let weights = edge_stopping_weights(&v, 5.0);
        let (u, _) = chambolle_denoise_weighted(&v, &weights, &params(200)).unwrap();
        let e0 = weighted_rof_energy(&v, &v, &weights, 0.25);
        let e1 = weighted_rof_energy(&u, &v, &weights, 0.25);
        assert!(e1 < e0, "energy should decrease: {e0} -> {e1}");
    }

    #[test]
    fn small_weight_preserves_detail() {
        // A strong edge with w ~ 0 across it keeps more contrast than w = 1.
        let v = noisy_step(32, 16, 5);
        let ones = Grid::new(32, 16, 1.0f64);
        let tiny = Grid::new(32, 16, 0.05f64);
        let contrast = |u: &Grid<f64>| {
            let left: f64 = (4..12).map(|y| u[(6, y)]).sum::<f64>() / 8.0;
            let right: f64 = (4..12).map(|y| u[(25, y)]).sum::<f64>() / 8.0;
            right - left
        };
        let (u1, _) = chambolle_denoise_weighted(&v, &ones, &params(200)).unwrap();
        let (u2, _) = chambolle_denoise_weighted(&v, &tiny, &params(200)).unwrap();
        assert!(
            contrast(&u2) > contrast(&u1),
            "low weight should keep the edge sharper"
        );
        // And u with tiny weights stays closer to the input overall.
        let dist = |a: &Grid<f64>| -> f64 {
            a.as_slice()
                .iter()
                .zip(v.as_slice())
                .map(|(&x, &y)| (x - y).abs())
                .sum()
        };
        assert!(dist(&u2) < dist(&u1));
    }

    #[test]
    fn edge_stopping_weights_are_low_on_edges() {
        let v = Grid::from_fn(16, 8, |x, _| if x < 8 { 0.0f64 } else { 1.0 });
        let w = edge_stopping_weights(&v, 4.0);
        assert!(w[(7, 4)] < 0.25, "edge weight {}", w[(7, 4)]);
        assert_eq!(w[(2, 4)], 1.0, "flat-region weight");
        assert!(validate_weights(&w).is_ok());
    }

    #[test]
    fn weighted_with_ctx_pool_is_bit_identical_and_instrumented() {
        use std::sync::Arc;
        let v = noisy_step(24, 18, 9);
        let weights = edge_stopping_weights(&v, 4.0);
        let pr = params(30);
        let (u_seq, p_seq) = chambolle_denoise_weighted(&v, &weights, &pr).unwrap();

        let tele = chambolle_telemetry::Telemetry::null();
        let ctx = ExecCtx::default()
            .with_pool(Arc::new(ThreadPool::new(4)))
            .with_telemetry(tele.clone());
        let (u_par, p_par) = chambolle_denoise_weighted_with_ctx(&v, &weights, &pr, &ctx).unwrap();
        assert_eq!(u_seq.as_slice(), u_par.as_slice());
        assert_eq!(p_seq.px.as_slice(), p_par.px.as_slice());
        assert_eq!(p_seq.py.as_slice(), p_par.py.as_slice());
        let spans = tele
            .snapshot()
            .get(chambolle_telemetry::span::span_metric_name("weighted.solve").as_str())
            .and_then(|m| m.as_histogram())
            .map(|h| h.count());
        assert_eq!(spans, Some(1));
    }

    #[test]
    fn invalid_inputs_rejected() {
        let v = Grid::new(8, 8, 0.5f64);
        let bad_dims = Grid::new(9, 8, 1.0f64);
        assert!(chambolle_denoise_weighted(&v, &bad_dims, &params(5)).is_err());
        let mut zero_w = Grid::new(8, 8, 1.0f64);
        zero_w[(3, 3)] = 0.0;
        assert!(chambolle_denoise_weighted(&v, &zero_w, &params(5)).is_err());
        let mut nan_w = Grid::new(8, 8, 1.0f64);
        nan_w[(2, 2)] = f64::NAN;
        assert!(chambolle_denoise_weighted(&v, &nan_w, &params(5)).is_err());
    }
}
