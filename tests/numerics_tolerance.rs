//! The Fast-tier accuracy contract, pinned across every axis that changes
//! its code path.
//!
//! The `Exact` tier promises bit equality; the `Fast` tier promises the
//! paper's validation model instead — agreement with the reference solve
//! within an energy/duality-gap tolerance
//! ([`NumericsPolicy::ENERGY_RTOL`]), plus a coarse per-pixel sanity bound
//! ([`NumericsPolicy::PIXEL_ATOL`]) on unit-range images. This harness
//! sweeps kernel backends, thread counts, frame sizes and iteration
//! budgets and checks both bounds, plus the determinism the Fast tier
//! *does* still guarantee: identical results across thread counts for a
//! fixed backend.

use std::sync::Arc;

use chambolle::core::{
    chambolle_denoise_with_ctx, rof_energy, ChambolleParams, ExecCtx, KernelBackend, NumericsPolicy,
};
use chambolle::imaging::{Grid, NoiseTexture, Scene};
use chambolle::par::ThreadPool;

fn supported_backends() -> Vec<KernelBackend> {
    [
        KernelBackend::Scalar,
        KernelBackend::Sse2,
        KernelBackend::Avx2,
        KernelBackend::Avx512,
    ]
    .into_iter()
    .filter(KernelBackend::is_supported)
    .collect()
}

fn solve(
    v: &Grid<f32>,
    params: &ChambolleParams,
    numerics: NumericsPolicy,
    backend: KernelBackend,
    threads: Option<usize>,
) -> Grid<f32> {
    let mut ctx = ExecCtx::default()
        .with_numerics(numerics)
        .with_backend(backend);
    if let Some(n) = threads {
        ctx = ctx.with_pool(Arc::new(ThreadPool::new(n)));
    }
    let (u, _) = chambolle_denoise_with_ctx(v, params, &ctx).expect("no cancellation token");
    u
}

/// Max |Δpixel| and relative ROF-energy disagreement of `fast` vs `exact`.
fn deviations(
    exact: &Grid<f32>,
    fast: &Grid<f32>,
    v: &Grid<f32>,
    params: &ChambolleParams,
) -> (f32, f64) {
    let pixel = exact
        .as_slice()
        .iter()
        .zip(fast.as_slice())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    let e_exact = rof_energy(exact, v, params.theta);
    let e_fast = rof_energy(fast, v, params.theta);
    let energy = ((e_exact - e_fast) / e_exact.abs().max(f64::MIN_POSITIVE)).abs();
    (pixel, energy)
}

#[test]
fn fast_tier_stays_within_tolerance_across_backends_and_budgets() {
    // Short and long budgets on a small frame, then the paper's 200
    // iterations on a larger frame, where the per-pixel drift is largest.
    let budgets = [1u32, 3, 4, 8, 30, 101].map(|iterations| ((96, 80), iterations));
    for ((w, h), iterations) in budgets.into_iter().chain([((256, 256), 200)]) {
        let v = NoiseTexture::new(17).render(w, h);
        let params = ChambolleParams::with_iterations(iterations);
        let exact = solve(
            &v,
            &params,
            NumericsPolicy::Exact,
            KernelBackend::active(),
            None,
        );
        for backend in supported_backends() {
            let fast = solve(&v, &params, NumericsPolicy::Fast, backend, None);
            let (pixel, energy) = deviations(&exact, &fast, &v, &params);
            assert!(
                pixel <= NumericsPolicy::PIXEL_ATOL,
                "{backend:?} {w}x{h} iters={iterations}: pixel deviation {pixel}"
            );
            assert!(
                energy <= NumericsPolicy::ENERGY_RTOL,
                "{backend:?} {w}x{h} iters={iterations}: energy deviation {energy}"
            );
        }
    }
}

#[test]
fn fast_tier_stays_within_tolerance_under_threading() {
    let v = NoiseTexture::new(23).render(120, 90);
    let params = ChambolleParams::with_iterations(25);
    let exact = solve(
        &v,
        &params,
        NumericsPolicy::Exact,
        KernelBackend::active(),
        None,
    );
    for backend in supported_backends() {
        for threads in [1usize, 2, 4] {
            let fast = solve(&v, &params, NumericsPolicy::Fast, backend, Some(threads));
            let (pixel, energy) = deviations(&exact, &fast, &v, &params);
            assert!(
                pixel <= NumericsPolicy::PIXEL_ATOL && energy <= NumericsPolicy::ENERGY_RTOL,
                "{backend:?} threads={threads}: pixel {pixel}, energy {energy}"
            );
        }
    }
}

#[test]
fn fast_tier_is_thread_count_invariant_per_backend() {
    // Not a tolerance: for a fixed backend the banded Fast path runs the
    // same full-width row kernels regardless of the band split, and a
    // band's priming term row rounds as the fused step's term does, so
    // thread count must not change a single bit. At θ = 0.25, v·(1/θ) = 4v
    // is exact and a contracted term would round as the priming row does;
    // θ = 0.3 tells the two apart.
    let v = NoiseTexture::new(29).render(110, 70);
    let params = [
        ChambolleParams::with_iterations(18),
        ChambolleParams::new(0.3, 0.07, 18).expect("stable step ratio"),
    ];
    for params in params {
        for backend in supported_backends() {
            let one = solve(&v, &params, NumericsPolicy::Fast, backend, Some(1));
            for threads in [2usize, 3, 4] {
                let many = solve(&v, &params, NumericsPolicy::Fast, backend, Some(threads));
                assert_eq!(
                    one.as_slice(),
                    many.as_slice(),
                    "{backend:?} θ={}: fast tier drifted between 1 and {threads} threads",
                    params.theta
                );
            }
        }
    }
}

#[test]
fn exact_tier_is_bit_identical_across_backends() {
    // The flank the Fast tier must never erode: Exact solves replay the
    // scalar op order on every backend, bit for bit.
    let v = NoiseTexture::new(31).render(90, 60);
    let params = ChambolleParams::with_iterations(20);
    let reference = solve(
        &v,
        &params,
        NumericsPolicy::Exact,
        KernelBackend::Scalar,
        None,
    );
    for backend in supported_backends() {
        let u = solve(&v, &params, NumericsPolicy::Exact, backend, None);
        assert_eq!(reference.as_slice(), u.as_slice(), "{backend:?}");
    }
}
