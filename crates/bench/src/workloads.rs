//! Workload generation and host measurement helpers shared by the harness
//! binaries.

use std::time::Instant;

use chambolle_core::{chambolle_iterate, recover_u, ChambolleParams, DualField};
use chambolle_imaging::{Image, NoiseTexture, Scene};

/// The deterministic frame used for timing runs: a multi-octave noise
/// texture (the content is irrelevant to the cycle counts; the texture keeps
/// the datapath busy with realistic values).
pub fn timing_frame(width: usize, height: usize) -> Image {
    NoiseTexture::new(2011).render(width, height)
}

/// Measured software Chambolle performance on the host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostMeasurement {
    /// Frame width.
    pub width: usize,
    /// Frame height.
    pub height: usize,
    /// Iterations run.
    pub iterations: u32,
    /// Wall seconds for the full solve (both flow components).
    pub seconds: f64,
    /// Frames per second.
    pub fps: f64,
}

/// Times the sequential software Chambolle solver on the host for one frame
/// of `width × height` at `iterations` iterations, processing **two**
/// components (as one TV-L1 inner solve does — the same work the hardware
/// rows of Table II represent).
pub fn measure_host_chambolle(width: usize, height: usize, iterations: u32) -> HostMeasurement {
    let v = timing_frame(width, height);
    let params = ChambolleParams::with_iterations(iterations);
    let start = Instant::now();
    for _component in 0..2 {
        let mut p = DualField::zeros(width, height);
        chambolle_iterate(&mut p, &v, &params, iterations);
        let u = recover_u(&v, &p, params.theta);
        std::hint::black_box(u);
    }
    let seconds = start.elapsed().as_secs_f64();
    HostMeasurement {
        width,
        height,
        iterations,
        seconds,
        fps: 1.0 / seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_frame_is_deterministic() {
        assert_eq!(timing_frame(16, 16), timing_frame(16, 16));
    }

    #[test]
    fn host_measurement_is_positive() {
        let m = measure_host_chambolle(32, 24, 3);
        assert!(m.seconds > 0.0);
        assert!(m.fps > 0.0);
        assert_eq!((m.width, m.height, m.iterations), (32, 24, 3));
    }
}
