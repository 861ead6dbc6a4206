//! The kernel-backend contract, pinned across crates: every SIMD backend
//! (scalar, SSE2, AVX2, AVX-512) produces **byte-identical** dual fields and outputs
//! for every solve entry point, across frame widths that exercise full
//! vectors, remainder lanes and degenerate single-column frames, and across
//! thread counts.
//!
//! Because the backends are bit-identical, `CHAMBOLLE_BACKEND` is a pure
//! throughput knob — which is what lets CI run the whole suite under
//! `scalar`, `sse2` and `avx2` and expect identical results. Each forced
//! level runs its own mix of bodies: at `sse2` the core row kernels, the
//! imaging vertical blur and the residual fill run scalar beside the SSE2
//! horizontal blur and gradient.

use std::sync::Arc;

use chambolle::core::kernels::{compute_term_row_on, update_p_row_on};
use chambolle::core::{
    chambolle_denoise_with_ctx, chambolle_iterate_tiled_with_ctx, chambolle_iterate_with_ctx,
    ChambolleParams, DualField, ExecCtx, KernelBackend, NumericsPolicy, TileConfig,
};
use chambolle::imaging::Grid;
use chambolle::par::ThreadPool;
use proptest::prelude::*;

/// Byte equality across backends is the **Exact-tier** contract, so pin the
/// tier: the suite also runs under `CHAMBOLLE_NUMERICS=fast`, which must not
/// turn these assertions into cross-backend Fast comparisons.
fn exact_ctx() -> ExecCtx {
    ExecCtx::default().with_numerics(NumericsPolicy::Exact)
}

/// Every backend the host CPU can execute (scalar always included).
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

fn bits(grid: &Grid<f32>) -> Vec<u32> {
    grid.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn frame(w: usize, h: usize, seed: usize) -> Grid<f32> {
    Grid::from_fn(w, h, |x, y| {
        ((x * 7 + y * 13 + seed * 29) % 31) as f32 / 31.0 - 0.4
    })
}

/// Widths covering the three vector regimes: a multiple of the widest lane
/// count (full vectors), a width leaving remainder lanes on every backend,
/// and a single-column frame where no vector loop may run at all.
const DIMS: [(usize, usize); 3] = [(64, 48), (61, 33), (1, 64)];

#[test]
fn solver_dual_fields_byte_equal_across_backends_widths_and_threads() {
    for (w, h) in DIMS {
        let v = frame(w, h, 1);
        let params = ChambolleParams::with_iterations(11);

        let mut p_ref = DualField::zeros(w, h);
        let scalar = exact_ctx().with_backend(KernelBackend::Scalar);
        chambolle_iterate_with_ctx(&mut p_ref, &v, &params, 11, &scalar)
            .expect("no cancellation token");
        let (u_ref, _) = chambolle_denoise_with_ctx(&v, &params, &scalar).expect("no token");

        for backend in supported_backends() {
            for threads in [1usize, 4] {
                let pool = Arc::new(ThreadPool::new(threads));
                let ctx = exact_ctx()
                    .with_backend(backend)
                    .with_pool(Arc::clone(&pool));
                let mut p = DualField::zeros(w, h);
                chambolle_iterate_with_ctx(&mut p, &v, &params, 11, &ctx).expect("no token");
                assert_eq!(
                    bits(&p.px),
                    bits(&p_ref.px),
                    "px {backend:?} {w}x{h} threads={threads}"
                );
                assert_eq!(
                    bits(&p.py),
                    bits(&p_ref.py),
                    "py {backend:?} {w}x{h} threads={threads}"
                );
                let (u, p2) = chambolle_denoise_with_ctx(&v, &params, &ctx).expect("no token");
                assert_eq!(
                    bits(&u),
                    bits(&u_ref),
                    "u {backend:?} {w}x{h} threads={threads}"
                );
                assert_eq!(bits(&p2.px), bits(&p_ref.px));
            }
        }
    }
}

#[test]
fn tiled_solver_byte_equal_across_backends_and_threads() {
    let (w, h) = (64, 48);
    let v = frame(w, h, 2);
    let params = ChambolleParams::paper(8);

    let mut p_ref = DualField::zeros(w, h);
    let scalar = exact_ctx().with_backend(KernelBackend::Scalar);
    chambolle_iterate_with_ctx(&mut p_ref, &v, &params, 8, &scalar).expect("no token");

    for backend in supported_backends() {
        for threads in [1usize, 4] {
            let cfg = TileConfig::new(24, 24, 2, threads).expect("valid config");
            let pool = Arc::new(ThreadPool::new(threads));
            let ctx = exact_ctx()
                .with_backend(backend)
                .with_pool(Arc::clone(&pool));
            let mut p = DualField::zeros(w, h);
            chambolle_iterate_tiled_with_ctx(&mut p, &v, &params, 8, &cfg, &ctx).expect("no token");
            assert_eq!(
                bits(&p.px),
                bits(&p_ref.px),
                "tiled px {backend:?} threads={threads}"
            );
            assert_eq!(
                bits(&p.py),
                bits(&p_ref.py),
                "tiled py {backend:?} threads={threads}"
            );
        }
    }
}

#[test]
fn env_override_names_resolve_to_supported_backends() {
    // `resolve` is the pure core of the CHAMBOLLE_BACKEND policy: a valid,
    // supported name wins; anything else clamps to the detected level.
    use chambolle::par::simd;
    assert_eq!(simd::resolve(Some("scalar")), KernelBackend::Scalar);
    assert_eq!(simd::resolve(Some("bogus")), simd::detect());
    assert!(simd::resolve(None).is_supported());
    assert_eq!(simd::active(), KernelBackend::active());
}

proptest! {
    /// Remainder-lane tail handling: for arbitrary widths (biased small, so
    /// tails of every length 0..lanes occur) and random row contents, the
    /// vectorized row kernels must reproduce the scalar rows bit-for-bit.
    #[test]
    fn row_kernel_tails_are_bit_exact(
        w in 1usize..48,
        seed in any::<u64>(),
        last_row in any::<bool>(),
        with_above in any::<bool>(),
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut row = |_: ()| -> Vec<f32> {
            (0..w).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
        };
        let (px, py, above, v) = (row(()), row(()), row(()), row(()));
        let inv_theta = 4.0f32;
        let step = 0.248f32;

        let mut term_ref = vec![0.0f32; w];
        compute_term_row_on(
            KernelBackend::Scalar,
            NumericsPolicy::Exact,
            &px,
            &py,
            with_above.then_some(above.as_slice()),
            &v,
            inv_theta,
            last_row,
            &mut term_ref,
        );
        let (mut px_ref, mut py_ref) = (px.clone(), py.clone());
        update_p_row_on(
            KernelBackend::Scalar,
            NumericsPolicy::Exact,
            &term_ref,
            with_above.then_some(above.as_slice()),
            step,
            &mut px_ref,
            &mut py_ref,
        );

        for backend in supported_backends() {
            let mut term = vec![0.0f32; w];
            compute_term_row_on(
                backend,
                NumericsPolicy::Exact,
                &px,
                &py,
                with_above.then_some(above.as_slice()),
                &v,
                inv_theta,
                last_row,
                &mut term,
            );
            let term_bits: Vec<u32> = term.iter().map(|f| f.to_bits()).collect();
            let ref_bits: Vec<u32> = term_ref.iter().map(|f| f.to_bits()).collect();
            prop_assert_eq!(term_bits, ref_bits, "term {:?} w={}", backend, w);

            let (mut bpx, mut bpy) = (px.clone(), py.clone());
            update_p_row_on(
                backend,
                NumericsPolicy::Exact,
                &term_ref,
                with_above.then_some(above.as_slice()),
                step,
                &mut bpx,
                &mut bpy,
            );
            let bpx_bits: Vec<u32> = bpx.iter().map(|f| f.to_bits()).collect();
            let px_bits: Vec<u32> = px_ref.iter().map(|f| f.to_bits()).collect();
            prop_assert_eq!(bpx_bits, px_bits, "px {:?} w={}", backend, w);
            let bpy_bits: Vec<u32> = bpy.iter().map(|f| f.to_bits()).collect();
            let py_bits: Vec<u32> = py_ref.iter().map(|f| f.to_bits()).collect();
            prop_assert_eq!(bpy_bits, py_bits, "py {:?} w={}", backend, w);
        }
    }
}
