//! The paper's central correctness property, tested across crates on
//! realistic imagery: the loop-decomposed sliding-window solver produces
//! exactly the sequential result, for any geometry, merge factor and thread
//! count.

use std::sync::Arc;

use chambolle::core::{
    chambolle_iterate_tiled_with_ctx, chambolle_iterate_with_ctx, recover_u, rof_energy,
    ChambolleParams, DualField, ExecCtx, NumericsPolicy, ParallelSolver, SequentialSolver,
    TileConfig, TilePlan, TiledSolver, TvDenoiser,
};
use chambolle::imaging::{NoiseTexture, Scene};
use chambolle::par::ThreadPool;

/// Tiled-vs-sequential bit equality is the **Exact-tier** contract: the Fast
/// tier is deterministic per tile shape but not bit-comparable across window
/// widths. The suite also runs under `CHAMBOLLE_NUMERICS=fast`, so the
/// exactness tests pin the tier explicitly.
fn exact_ctx() -> ExecCtx {
    ExecCtx::default().with_numerics(NumericsPolicy::Exact)
}

#[test]
fn paper_geometry_exact_on_vga_like_frame() {
    let v = NoiseTexture::new(31).render(320, 200);
    let params = ChambolleParams::paper(9);
    let mut p_seq = DualField::zeros(320, 200);
    chambolle_iterate_with_ctx(&mut p_seq, &v, &params, 9, &exact_ctx()).expect("no token");
    for k in [1u32, 2, 3] {
        let cfg = TileConfig::paper_hardware(k).expect("valid config");
        let mut p_tiled = DualField::zeros(320, 200);
        chambolle_iterate_tiled_with_ctx(&mut p_tiled, &v, &params, 9, &cfg, &exact_ctx())
            .expect("no token");
        assert_eq!(p_seq.px.as_slice(), p_tiled.px.as_slice(), "K={k}");
        assert_eq!(p_seq.py.as_slice(), p_tiled.py.as_slice(), "K={k}");
    }
}

#[test]
fn many_threads_agree() {
    let v = NoiseTexture::new(32).render(150, 110);
    let params = ChambolleParams::paper(6);
    let reference =
        TiledSolver::new(TileConfig::new(48, 40, 2, 1).expect("cfg")).denoise(&v, &params);
    for threads in [2usize, 3, 8] {
        let cfg = TileConfig::new(48, 40, 2, threads).expect("cfg");
        let u = TiledSolver::new(cfg).denoise(&v, &params);
        assert_eq!(reference.as_slice(), u.as_slice(), "threads={threads}");
    }
}

#[test]
fn parallel_solver_matches_sequential_across_thread_counts() {
    let v = NoiseTexture::new(44).render(150, 110);
    let params = ChambolleParams::with_iterations(40);
    let reference = SequentialSolver::new().denoise(&v, &params);
    for threads in [1usize, 2, 3, 8] {
        let u = ParallelSolver::new(threads).denoise(&v, &params);
        assert_eq!(reference.as_slice(), u.as_slice(), "threads={threads}");
    }
}

#[test]
fn pooled_tiling_matches_sequential_across_threads_and_merge_factors() {
    let v = NoiseTexture::new(45).render(130, 100);
    let params = ChambolleParams::paper(8);
    let mut p_seq = DualField::zeros(130, 100);
    chambolle_iterate_with_ctx(&mut p_seq, &v, &params, 8, &exact_ctx()).expect("no token");
    let u_seq = recover_u(&v, &p_seq, params.theta);
    for threads in [1usize, 2, 3, 8] {
        let pool = Arc::new(ThreadPool::new(threads));
        for k in [1u32, 2, 4] {
            let cfg = TileConfig::new(48, 40, k, threads).expect("cfg");
            let ctx = exact_ctx().with_pool(Arc::clone(&pool));
            let mut p_tiled = DualField::zeros(130, 100);
            chambolle_iterate_tiled_with_ctx(&mut p_tiled, &v, &params, 8, &cfg, &ctx)
                .expect("no token");
            let u = recover_u(&v, &p_tiled, params.theta);
            assert_eq!(u_seq.as_slice(), u.as_slice(), "threads={threads}, K={k}");
        }
    }
}

#[test]
fn redundancy_matches_plan_arithmetic() {
    // The redundant-computation fraction is pure geometry; spot-check the
    // plan against a hand count for one configuration.
    let cfg = TileConfig::new(20, 20, 2, 1).expect("cfg");
    // steps = 20 - 5 = 15; frame 30x30 -> 2x2 output blocks of 15x15.
    let plan = TilePlan::new(30, 30, cfg);
    assert_eq!(plan.tiles().len(), 4);
    // Source windows: (0..18)^2-ish: leading halo 2, trailing 3, clipped.
    let total: usize = plan.tiles().iter().map(|t| t.src_w * t.src_h).sum();
    // Tile (0,0): src 0..18 x 0..18 = 18x18; tile (1,0): src 13..30 x 0..18
    // = 17x18; same transposed; tile (1,1): 17x17.
    assert_eq!(total, 18 * 18 + 17 * 18 * 2 + 17 * 17);
    let expected = (total as f64 - 900.0) / 900.0;
    assert!((plan.redundancy_fraction() - expected).abs() < 1e-12);
}

#[test]
fn denoising_quality_unaffected_by_tiling() {
    let v = NoiseTexture::new(33).render(120, 90);
    let params = ChambolleParams::with_iterations(60);
    let mut p_seq = DualField::zeros(120, 90);
    chambolle_iterate_with_ctx(&mut p_seq, &v, &params, 60, &exact_ctx()).expect("no token");
    let u_seq = recover_u(&v, &p_seq, params.theta);
    let mut p_tiled = DualField::zeros(120, 90);
    chambolle_iterate_tiled_with_ctx(
        &mut p_tiled,
        &v,
        &params,
        60,
        &TileConfig::default(),
        &exact_ctx(),
    )
    .expect("no token");
    let u_tiled = recover_u(&v, &p_tiled, params.theta);
    let e_seq = rof_energy(&u_seq, &v, params.theta);
    let e_tiled = rof_energy(&u_tiled, &v, params.theta);
    assert_eq!(e_seq, e_tiled, "identical results imply identical energy");
    assert!(e_seq < rof_energy(&v, &v, params.theta));
}
