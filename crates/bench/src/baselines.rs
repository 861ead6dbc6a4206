//! Published state-of-the-art results quoted by the paper (Table II).
//!
//! The GPU baselines come from the paper's references \[13\] (Zach et al.,
//! GeForce 7800 GS and GeForce Go 7900 GTX) and \[14\] (Weishaupt et al., ATI
//! Mobility Radeon HD3650 and NVIDIA GTX285). They cannot be re-measured on
//! 2006-era hardware, so — like the paper itself — we reprint the published
//! numbers and compare our measured/simulated rows against them.

/// One published row of Table II.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PublishedResult {
    /// Reference tag in the paper (`[13]`, `[14]`).
    pub reference: &'static str,
    /// Device (and API where the source distinguishes it).
    pub device: &'static str,
    /// Chambolle iterations.
    pub iterations: u32,
    /// Frame width.
    pub width: usize,
    /// Frame height.
    pub height: usize,
    /// Frames per second, lower bound (sources sometimes report a range).
    pub fps_lo: f64,
    /// Frames per second, upper bound (equal to `fps_lo` for point values).
    pub fps_hi: f64,
}

/// Every state-of-the-art row of Table II, in the paper's order.
pub const TABLE2_BASELINES: &[PublishedResult] = &[
    row("[13]", "GeForce 7800 GS", 50, 128, 128, 56.0),
    row("[13]", "GeForce 7800 GS", 100, 128, 128, 32.1),
    row("[13]", "GeForce 7800 GS", 200, 128, 128, 17.5),
    row("[13]", "GeForce 7800 GS", 50, 256, 256, 18.0),
    row("[13]", "GeForce 7800 GS", 100, 256, 256, 9.6),
    row("[13]", "GeForce 7800 GS", 200, 256, 256, 5.0),
    row("[13]", "GeForce 7800 GS", 50, 512, 512, 5.0),
    row("[13]", "GeForce 7800 GS", 100, 512, 512, 2.6),
    row("[13]", "GeForce 7800 GS", 200, 512, 512, 1.3),
    row("[13]", "GeForce Go 7900 GTX", 50, 128, 128, 95.0),
    row("[13]", "GeForce Go 7900 GTX", 100, 128, 128, 57.0),
    row("[13]", "GeForce Go 7900 GTX", 200, 128, 128, 30.9),
    row("[13]", "GeForce Go 7900 GTX", 50, 256, 256, 34.1),
    row("[13]", "GeForce Go 7900 GTX", 100, 256, 256, 17.5),
    row("[13]", "GeForce Go 7900 GTX", 200, 256, 256, 8.9),
    row("[13]", "GeForce Go 7900 GTX", 50, 512, 512, 9.3),
    row("[13]", "GeForce Go 7900 GTX", 100, 512, 512, 4.7),
    row("[13]", "GeForce Go 7900 GTX", 200, 512, 512, 2.3),
    range_row(
        "[14]",
        "Radeon HD3650 (OpenCV+OpenGL)",
        100,
        512,
        512,
        1.0,
        2.0,
    ),
    range_row(
        "[14]",
        "Radeon HD3650 (OpenGL only)",
        100,
        512,
        512,
        3.0,
        4.0,
    ),
    range_row(
        "[14]",
        "NVIDIA GTX285 (OpenGL only)",
        100,
        512,
        512,
        5.0,
        6.0,
    ),
];

/// The paper's own rows: the proposed FPGA at 221 MHz.
pub const TABLE2_PROPOSED: &[PublishedResult] = &[
    row(
        "paper",
        "Virtex-5 XC5VLX110T (proposed)",
        200,
        512,
        512,
        99.1,
    ),
    row(
        "paper",
        "Virtex-5 XC5VLX110T (proposed)",
        200,
        1024,
        768,
        38.1,
    ),
];

/// Speedup range the paper derives at 512×512 (Section VI).
pub const PAPER_SPEEDUP_RANGE: (f64, f64) = (16.5, 76.0);

const fn row(
    reference: &'static str,
    device: &'static str,
    iterations: u32,
    width: usize,
    height: usize,
    fps: f64,
) -> PublishedResult {
    PublishedResult {
        reference,
        device,
        iterations,
        width,
        height,
        fps_lo: fps,
        fps_hi: fps,
    }
}

const fn range_row(
    reference: &'static str,
    device: &'static str,
    iterations: u32,
    width: usize,
    height: usize,
    fps_lo: f64,
    fps_hi: f64,
) -> PublishedResult {
    PublishedResult {
        reference,
        device,
        iterations,
        width,
        height,
        fps_lo,
        fps_hi,
    }
}

/// The best published fps at the given shape/iterations (competitor to beat).
pub fn best_baseline(width: usize, height: usize, iterations: u32) -> Option<PublishedResult> {
    TABLE2_BASELINES
        .iter()
        .filter(|r| r.width == width && r.height == height && r.iterations == iterations)
        .max_by(|a, b| a.fps_hi.total_cmp(&b.fps_hi))
        .copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_all_published_rows() {
        assert_eq!(TABLE2_BASELINES.len(), 21);
        assert_eq!(TABLE2_PROPOSED.len(), 2);
    }

    #[test]
    fn best_baseline_at_512_200_is_7900gtx() {
        let best = best_baseline(512, 512, 200).unwrap();
        assert_eq!(best.device, "GeForce Go 7900 GTX");
        assert_eq!(best.fps_hi, 2.3);
    }

    #[test]
    fn paper_speedup_range_consistent_with_rows() {
        // 99.1 / 1.3 ≈ 76x (slowest baseline), 99.1 / 6 ≈ 16.5x (fastest).
        let proposed = TABLE2_PROPOSED[0].fps_lo;
        // The paper's 76x compares its 200-iteration rate to the slowest
        // 200-iteration baseline (the 16.5x end mixes iteration counts).
        let slowest = TABLE2_BASELINES
            .iter()
            .filter(|r| r.width == 512 && r.iterations == 200)
            .map(|r| r.fps_lo)
            .fold(f64::INFINITY, f64::min);
        // ...and the 16.5x end against the fastest baseline at a comparable
        // iteration count (>= 100): the GTX285's 6 fps.
        let fastest = TABLE2_BASELINES
            .iter()
            .filter(|r| r.width == 512 && r.iterations >= 100)
            .map(|r| r.fps_hi)
            .fold(0.0, f64::max);
        assert!((proposed / slowest - PAPER_SPEEDUP_RANGE.1).abs() < 0.5);
        assert!((proposed / fastest - PAPER_SPEEDUP_RANGE.0).abs() < 0.5);
    }

    #[test]
    fn best_baseline_ranks_ranges_by_upper_bound() {
        let r = best_baseline(512, 512, 100).unwrap();
        assert_eq!(r.device, "NVIDIA GTX285 (OpenGL only)");
        assert_eq!((r.fps_lo, r.fps_hi), (5.0, 6.0));
    }
}
