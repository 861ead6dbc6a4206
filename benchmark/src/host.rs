//! The host's roofline: single-thread FMA peak and stream-triad bandwidth,
//! measured in the same run as the kernels they bound.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Size of the last-level cache CPUID reports, in bytes.
pub fn llc_bytes() -> Option<usize> {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid_count;
        let mut best: Option<(u32, usize)> = None;
        for index in 0..16 {
            // Leaf 4 enumerates the cache hierarchy; every x86-64 CPU
            // implements CPUID.
            let r = __cpuid_count(4, index);
            let kind = r.eax & 0x1f;
            if kind == 0 {
                break;
            }
            if kind == 2 {
                continue; // instruction cache
            }
            let level = (r.eax >> 5) & 0x7;
            let ways = ((r.ebx >> 22) & 0x3ff) as usize + 1;
            let partitions = ((r.ebx >> 12) & 0x3ff) as usize + 1;
            let line = (r.ebx & 0xfff) as usize + 1;
            let sets = r.ecx as usize + 1;
            let size = ways * partitions * line * sets;
            if best.is_none_or(|(l, _)| level > l) {
                best = Some((level, size));
            }
        }
        best.map(|(_, size)| size)
    }
    #[cfg(not(target_arch = "x86_64"))]
    None
}

/// Independent FMA chains per loop: enough to cover FMA latency on both
/// ports of current cores.
const CHAINS: usize = 12;

/// Peak single-thread f32 FMA rate in GFLOP/s (an FMA counts two flops),
/// on the widest vector unit the host executes; median of `reps` timings.
pub fn fma_gflops_peak(reps: usize) -> f64 {
    const ROUNDS: usize = 2_000_000;
    let timings: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            let lanes = fma_rounds(ROUNDS);
            let secs = start.elapsed().as_secs_f64();
            (ROUNDS * CHAINS * lanes * 2) as f64 / secs / 1e9
        })
        .collect();
    median(&timings)
}

/// Runs `rounds` × `CHAINS` vector FMAs; returns the lane count used.
/// Every operand starts behind `black_box`: `x·0.9999 + 1e-4` maps 1.0 to
/// itself, so with visible constants the compiler folds the loops away.
fn fma_rounds(rounds: usize) -> usize {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            // SAFETY: AVX-512F support was just detected.
            black_box(unsafe { fma512(rounds) });
            return 16;
        }
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            // SAFETY: AVX2 and FMA support were just detected.
            black_box(unsafe { fma256(rounds) });
            return 8;
        }
    }
    let (a, b) = (black_box(0.999_9), black_box(1e-4));
    let mut acc = [black_box(1.0); CHAINS];
    for _ in 0..rounds {
        for x in &mut acc {
            *x = *x * a + b;
        }
    }
    black_box(acc);
    1
}

/// # Safety
///
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn fma512(rounds: usize) -> f32 {
    use std::arch::x86_64::*;
    let (a, b) = (
        _mm512_set1_ps(black_box(0.999_9)),
        _mm512_set1_ps(black_box(1e-4)),
    );
    let mut acc = [_mm512_set1_ps(black_box(1.0)); CHAINS];
    for _ in 0..rounds {
        for x in &mut acc {
            *x = _mm512_fmadd_ps(*x, a, b);
        }
    }
    let sum = acc
        .iter()
        .fold(_mm512_setzero_ps(), |s, x| _mm512_add_ps(s, *x));
    _mm512_reduce_add_ps(sum)
}

/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma256(rounds: usize) -> f32 {
    use std::arch::x86_64::*;
    let (a, b) = (
        _mm256_set1_ps(black_box(0.999_9)),
        _mm256_set1_ps(black_box(1e-4)),
    );
    let mut acc = [_mm256_set1_ps(black_box(1.0)); CHAINS];
    for _ in 0..rounds {
        for x in &mut acc {
            *x = _mm256_fmadd_ps(*x, a, b);
        }
    }
    let mut lanes = [0.0f32; 8];
    let sum = acc
        .iter()
        .fold(_mm256_setzero_ps(), |s, x| _mm256_add_ps(s, *x));
    _mm256_storeu_ps(lanes.as_mut_ptr(), sum);
    lanes.iter().sum()
}

/// Single-thread stream-triad bandwidth `a = b + s·c` in GB/s over three
/// f32 arrays totalling `total_bytes`, counting 12 bytes per element (the
/// STREAM convention: write-allocate traffic is not counted); median of
/// `passes` timed passes after one untimed pass.
pub fn triad_gbps(total_bytes: usize, passes: usize) -> f64 {
    let n = (total_bytes / 12).max(1);
    let b = vec![1.0f32; n];
    let c = vec![2.0f32; n];
    let mut a = vec![0.0f32; n];
    let s = black_box(0.5f32);
    let pass = |a: &mut [f32]| {
        let start = Instant::now();
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = b + s * c;
        }
        black_box(&a);
        start.elapsed().as_secs_f64()
    };
    pass(&mut a);
    let timings: Vec<f64> = (0..passes)
        .map(|_| (12 * n) as f64 / pass(&mut a) / 1e9)
        .collect();
    median(&timings)
}
