//! The top-level accelerator (Figure 2): two concurrent sliding windows,
//! each with one PE array per flow component, driven by a frame scheduler
//! that implements the loop-decomposition + sliding-window scheme over
//! arbitrarily large frames.
//!
//! A frame round loads each 92×88 window (profitable region plus halo), runs
//! `merge_factor` (K) iterations on chip, and writes the profitable `p` back;
//! after ⌈N/K⌉ rounds a final u-round sweeps `u = v − θ·div p` out of the
//! PE-Ts. Windows within a round are independent and are assigned
//! round-robin to the sliding windows; the frame latency is the larger of
//! the two windows' cycle totals.

use std::fmt;
use std::sync::Mutex;

use chambolle_core::{ChambolleParams, InvalidParamsError, TileConfig, TilePlan, TvDenoiser};
use chambolle_fixed::{PackedWord, SqrtUnit, WordFixed};
use chambolle_imaging::{Grid, Image};
use chambolle_telemetry::{names, Telemetry};

use crate::array::{ArrayConfig, ArrayStats, PeArray, WindowRun};
use crate::bram::BramStats;
use crate::params::HwParams;
use crate::reference::dequantize;
use crate::trace::SharedRecorder;

/// Which square-root hardware the PE-Vs instantiate (Section V-C trade).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SqrtKind {
    /// The paper's 256-entry LUT (1 cycle, ≈70 LUTs, ≈1% error).
    #[default]
    Lut,
    /// Iterative non-restoring square root (exact, 20 pipeline stages).
    NonRestoring,
}

impl SqrtKind {
    /// Instantiates the corresponding functional unit.
    pub fn unit(self) -> SqrtUnit {
        match self {
            SqrtKind::Lut => SqrtUnit::lut(),
            SqrtKind::NonRestoring => SqrtUnit::non_restoring(),
        }
    }
}

/// Configuration of the accelerator instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccelConfig {
    /// Geometry of each PE array (default: the paper's 92×88).
    pub array: ArrayConfig,
    /// Iterations merged per window load (K of the sliding-window scheme).
    pub merge_factor: u32,
    /// Number of concurrent sliding windows (the paper instantiates 2).
    pub sliding_windows: usize,
    /// Post-place-and-route clock (221 MHz in the paper).
    pub clock_mhz: f64,
    /// Square-root unit of the PE-V datapath.
    pub sqrt: SqrtKind,
}

impl AccelConfig {
    /// The paper's configuration with the given merge factor.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidParamsError`] if `merge_factor` leaves no profitable
    /// interior in a 92×88 window.
    pub fn paper(merge_factor: u32) -> Result<Self, InvalidParamsError> {
        // Validate against the same rules the tiler enforces (positive K,
        // profitable interior left after the halo).
        TileConfig::new(92, 88, merge_factor, 2)?;
        Ok(AccelConfig {
            array: ArrayConfig::paper(),
            merge_factor,
            sliding_windows: 2,
            clock_mhz: 221.0,
            sqrt: SqrtKind::Lut,
        })
    }

    pub(crate) fn tile_config(&self, k: u32) -> TileConfig {
        TileConfig::new(
            self.array.stride,
            self.array.max_rows,
            k,
            self.sliding_windows,
        )
        .expect("accelerator geometry was validated at construction")
    }
}

impl Default for AccelConfig {
    /// Paper geometry, K = 2, two sliding windows, 221 MHz.
    fn default() -> Self {
        AccelConfig::paper(2).expect("K = 2 is valid for the paper geometry")
    }
}

/// One sliding window: two PE arrays updating `u1` and `u2` of the same
/// sub-matrix completely in parallel (Figure 2).
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    array_u1: PeArray,
    array_u2: PeArray,
    cycles: u64,
}

impl SlidingWindow {
    /// Creates a window with two arrays of the given geometry.
    pub fn new(config: ArrayConfig) -> Self {
        SlidingWindow::with_sqrt(config, SqrtKind::Lut)
    }

    /// Creates a window with an explicit square-root unit.
    pub fn with_sqrt(config: ArrayConfig, sqrt: SqrtKind) -> Self {
        SlidingWindow {
            array_u1: PeArray::with_sqrt(config, sqrt.unit()),
            array_u2: PeArray::with_sqrt(config, sqrt.unit()),
            cycles: 0,
        }
    }

    /// Processes one sub-matrix: `u1` on the first array and (optionally)
    /// `u2` on the second, concurrently — the window's cycle cost is the
    /// maximum of the two, which is the first array's count since both
    /// arrays run the identical schedule.
    pub fn process(
        &mut self,
        words1: &Grid<PackedWord>,
        words2: Option<&Grid<PackedWord>>,
        params: &HwParams,
        emit_u: bool,
    ) -> (WindowRun, Option<WindowRun>) {
        let run1 = self.array_u1.process_window_with(words1, params, emit_u);
        let run2 = words2.map(|w| self.array_u2.process_window_with(w, params, emit_u));
        let c2 = run2.as_ref().map_or(0, |r| r.stats.cycles);
        self.cycles += run1.stats.cycles.max(c2);
        (run1, run2)
    }

    /// Cycles this window has been busy since construction.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Combined statistics of the two arrays.
    pub fn stats(&self) -> (ArrayStats, ArrayStats) {
        (self.array_u1.stats(), self.array_u2.stats())
    }

    /// Aggregated per-port BRAM counters over both arrays' memories.
    pub fn bram_stats(&self) -> BramStats {
        let mut total = self.array_u1.bram_stats();
        total.merge(&self.array_u2.bram_stats());
        total
    }

    /// Square-root table accesses served by both arrays combined.
    pub fn sqrt_lookups(&self) -> u64 {
        self.array_u1.sqrt_lookups() + self.array_u2.sqrt_lookups()
    }

    /// Attaches an access recorder to every memory of both arrays for
    /// waveform dumps (see [`crate::trace`]).
    pub fn attach_recorder(&mut self, recorder: &SharedRecorder) {
        self.array_u1.attach_recorder(recorder);
        self.array_u2.attach_recorder(recorder);
    }

    /// Fault-injection backdoor: corrupts one sqrt-LUT entry in one of the
    /// window's arrays (`0` = the `u1` array, `1` = the `u2` array). Returns
    /// `false` when the configured sqrt unit has no table to corrupt.
    ///
    /// # Panics
    ///
    /// Panics if `array > 1`.
    pub fn corrupt_sqrt_entry(&mut self, array: u8, index: u8, xor: u8) -> bool {
        let unit = match array {
            0 => self.array_u1.sqrt_unit_mut(),
            1 => self.array_u2.sqrt_unit_mut(),
            other => panic!("window has two arrays, got index {other}"),
        };
        unit.corrupt_lut_entry(index, xor)
    }

    /// True when both arrays' sqrt units match their golden tables.
    pub fn sqrt_units_intact(&self) -> bool {
        self.array_u1.sqrt_unit().lut_intact() && self.array_u2.sqrt_unit().lut_intact()
    }

    /// Scrubs both arrays' sqrt units against the golden generator,
    /// returning how many tables actually needed repair.
    pub fn repair_sqrt_units(&mut self) -> u32 {
        self.array_u1.sqrt_unit_mut().repair_lut() as u32
            + self.array_u2.sqrt_unit_mut().repair_lut() as u32
    }
}

/// Frame-level execution statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameStats {
    /// Frame latency in cycles: the busiest sliding window's total.
    pub cycles: u64,
    /// Cycles consumed by each sliding window.
    pub per_window_cycles: Vec<u64>,
    /// Window loads executed (across all rounds, including the u-round).
    pub window_loads: u64,
    /// Iteration rounds (⌈N / K⌉).
    pub rounds: u32,
    /// Clock frequency used for the rate conversions.
    pub clock_mhz: f64,
}

impl FrameStats {
    /// Frame latency in seconds at the configured clock.
    pub fn seconds(&self) -> f64 {
        self.cycles as f64 / (self.clock_mhz * 1e6)
    }

    /// Frames per second at the configured clock (the Table II metric).
    pub fn fps(&self) -> f64 {
        1.0 / self.seconds()
    }
}

impl fmt::Display for FrameStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cycles ({} rounds, {} window loads) -> {:.1} fps @ {} MHz",
            self.cycles,
            self.rounds,
            self.window_loads,
            self.fps(),
            self.clock_mhz
        )
    }
}

/// The full accelerator: sliding windows plus the frame scheduler.
#[derive(Debug)]
pub struct ChambolleAccel {
    config: AccelConfig,
    pub(crate) windows: Vec<SlidingWindow>,
    pub(crate) telemetry: Telemetry,
}

impl ChambolleAccel {
    /// Instantiates the accelerator.
    pub fn new(config: AccelConfig) -> Self {
        let windows = (0..config.sliding_windows.max(1))
            .map(|_| SlidingWindow::with_sqrt(config.array, config.sqrt))
            .collect();
        ChambolleAccel {
            config,
            windows,
            telemetry: Telemetry::disabled(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &AccelConfig {
        &self.config
    }

    /// Attaches a telemetry handle: every subsequent
    /// [`ChambolleAccel::denoise_pair`] records frame/cycle/round counters,
    /// per-port BRAM access and idle tallies, and sqrt-LUT usage.
    pub fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Attaches an access recorder to every memory of every sliding window,
    /// so a full two-window accelerator run can be dumped to VCD (see
    /// [`crate::trace::TraceRecorder`]) — previously only possible on a bare
    /// [`PeArray`].
    pub fn attach_recorder(&mut self, recorder: &SharedRecorder) {
        for window in &mut self.windows {
            window.attach_recorder(recorder);
        }
    }

    /// Aggregated per-port BRAM counters over every window's memories,
    /// cumulative since construction.
    pub fn bram_stats(&self) -> BramStats {
        let mut total = BramStats::default();
        for window in &self.windows {
            total.merge(&window.bram_stats());
        }
        total
    }

    /// Square-root table accesses served by all arrays, cumulative since
    /// construction.
    pub fn sqrt_lookups(&self) -> u64 {
        self.windows.iter().map(SlidingWindow::sqrt_lookups).sum()
    }

    /// Denoises a pair of fields (`v1`, `v2`) — the two flow components of
    /// one TV-L1 inner solve — returning the primal outputs and the frame
    /// statistics.
    ///
    /// Pass `None` for `v2` to denoise a single field (the second PE array
    /// of each window idles; cycle counts are unchanged, exactly as in the
    /// hardware).
    ///
    /// # Errors
    ///
    /// Returns [`HwParamsError`](crate::HwParamsError) via
    /// [`InvalidParamsError`] conversion if `params` cannot be encoded for
    /// the fixed-point datapath.
    ///
    /// # Panics
    ///
    /// Panics if `v2` is given with different dimensions from `v1`, or the
    /// frame is empty.
    pub fn denoise_pair(
        &mut self,
        v1: &Image,
        v2: Option<&Image>,
        params: &ChambolleParams,
    ) -> Result<(Image, Option<Image>, FrameStats), crate::HwParamsError> {
        let hw = HwParams::try_from(*params)?;
        if let Some(v2) = v2 {
            assert_eq!(v1.dims(), v2.dims(), "component fields must match in size");
        }
        let (w, h) = v1.dims();
        assert!(w > 0 && h > 0, "frame must be non-empty");

        let frame_span = self.telemetry.span("hwsim.denoise_pair");
        let start_bram = if self.telemetry.is_enabled() {
            Some((self.bram_stats(), self.sqrt_lookups()))
        } else {
            None
        };
        let n_windows = self.windows.len();
        let start_cycles: Vec<u64> = self.windows.iter().map(|sw| sw.cycles()).collect();
        let mut state1 = crate::reference::quantize_input(v1);
        let mut state2 = v2.map(crate::reference::quantize_input);
        let mut window_loads = 0u64;
        let mut rounds = 0u32;

        // Iteration rounds: K iterations per window load.
        let mut remaining = params.iterations;
        let mut next_window = 0usize;
        while remaining > 0 {
            let k = remaining.min(self.config.merge_factor);
            let plan = TilePlan::new(w, h, self.config.tile_config(k));
            let round_params = HwParams {
                iterations: k,
                ..hw
            };
            // Snapshot semantics: every window of a round reads the state at
            // round start; write-backs target the next round's state (the
            // hardware's windows run concurrently on the same input frame).
            let mut next1 = state1.clone();
            let mut next2 = state2.clone();
            for tile in plan.tiles() {
                let sub1 = state1.crop(tile.src_x, tile.src_y, tile.src_w, tile.src_h);
                let sub2 = state2
                    .as_ref()
                    .map(|s| s.crop(tile.src_x, tile.src_y, tile.src_w, tile.src_h));
                let sw = &mut self.windows[next_window];
                next_window = (next_window + 1) % n_windows;
                let (run1, run2) = sw.process(&sub1, sub2.as_ref(), &round_params, false);
                window_loads += 1;
                blit_profitable_words(&mut next1, tile, &run1.words);
                if let (Some(next2), Some(run2)) = (next2.as_mut(), run2) {
                    blit_profitable_words(next2, tile, &run2.words);
                }
            }
            state1 = next1;
            state2 = next2;
            remaining -= k;
            rounds += 1;
        }

        // Final u-round: PE-T sweeps with a one-cell leading halo.
        let mut u1 = Grid::new(w, h, WordFixed::ZERO);
        let mut u2 = v2.map(|_| Grid::new(w, h, WordFixed::ZERO));
        let sweep_params = HwParams {
            iterations: 0,
            ..hw
        };
        for tile in u_round_tiles(w, h, &self.config.array) {
            let sub1 = state1.crop(tile.src_x, tile.src_y, tile.src_w, tile.src_h);
            let sub2 = state2
                .as_ref()
                .map(|s| s.crop(tile.src_x, tile.src_y, tile.src_w, tile.src_h));
            let sw = &mut self.windows[next_window];
            next_window = (next_window + 1) % n_windows;
            let (run1, run2) = sw.process(&sub1, sub2.as_ref(), &sweep_params, true);
            window_loads += 1;
            blit_profitable_u(&mut u1, &tile, &run1.u);
            if let (Some(u2), Some(run2)) = (u2.as_mut(), run2) {
                blit_profitable_u(u2, &tile, &run2.u);
            }
        }

        let per_window_cycles: Vec<u64> = self
            .windows
            .iter()
            .zip(&start_cycles)
            .map(|(sw, &s)| sw.cycles() - s)
            .collect();
        let stats = FrameStats {
            cycles: per_window_cycles.iter().copied().max().unwrap_or(0),
            per_window_cycles,
            window_loads,
            rounds,
            clock_mhz: self.config.clock_mhz,
        };
        if let Some((bram0, sqrt0)) = start_bram {
            self.record_frame_telemetry(&stats, &bram0, sqrt0);
        }
        drop(frame_span);
        Ok((dequantize(&u1), u2.as_ref().map(dequantize), stats))
    }

    /// Emits this frame's counters: the deltas of the cumulative BRAM and
    /// sqrt tallies against the pre-frame snapshot, plus the frame stats.
    pub(crate) fn record_frame_telemetry(&self, stats: &FrameStats, bram0: &BramStats, sqrt0: u64) {
        let tele = &self.telemetry;
        tele.counter_add(names::HWSIM_FRAMES, 1);
        tele.counter_add(names::HWSIM_CYCLES, stats.cycles);
        tele.counter_add(names::HWSIM_WINDOW_LOADS, stats.window_loads);
        tele.counter_add(names::HWSIM_ROUNDS, u64::from(stats.rounds));
        let bram = self.bram_stats();
        tele.counter_add(
            names::HWSIM_BRAM_PORT1_READS,
            bram.port_reads[0] - bram0.port_reads[0],
        );
        tele.counter_add(
            names::HWSIM_BRAM_PORT2_READS,
            bram.port_reads[1] - bram0.port_reads[1],
        );
        tele.counter_add(
            names::HWSIM_BRAM_PORT1_WRITES,
            bram.port_writes[0] - bram0.port_writes[0],
        );
        tele.counter_add(
            names::HWSIM_BRAM_PORT2_WRITES,
            bram.port_writes[1] - bram0.port_writes[1],
        );
        tele.counter_add(
            names::HWSIM_BRAM_PORT1_IDLE,
            bram.port_idle_cycles(0) - bram0.port_idle_cycles(0),
        );
        tele.counter_add(
            names::HWSIM_BRAM_PORT2_IDLE,
            bram.port_idle_cycles(1) - bram0.port_idle_cycles(1),
        );
        tele.counter_add(names::HWSIM_SQRT_LOOKUPS, self.sqrt_lookups() - sqrt0);
    }
}

/// A window position of the u-round: output block plus a one-cell
/// leading (left/top) halo — `u` at a cell reads `p` at itself and its
/// left/up neighbors only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct UTile {
    pub(crate) src_x: usize,
    pub(crate) src_y: usize,
    pub(crate) src_w: usize,
    pub(crate) src_h: usize,
    pub(crate) out_x: usize,
    pub(crate) out_y: usize,
    pub(crate) out_w: usize,
    pub(crate) out_h: usize,
}

pub(crate) fn u_round_tiles(w: usize, h: usize, array: &ArrayConfig) -> Vec<UTile> {
    let step_x = array.stride - 1;
    let step_y = array.max_rows - 1;
    let mut tiles = Vec::new();
    let mut oy = 0;
    while oy < h {
        let out_h = step_y.min(h - oy);
        let mut ox = 0;
        while ox < w {
            let out_w = step_x.min(w - ox);
            let src_x = ox.saturating_sub(1);
            let src_y = oy.saturating_sub(1);
            tiles.push(UTile {
                src_x,
                src_y,
                src_w: ox + out_w - src_x,
                src_h: oy + out_h - src_y,
                out_x: ox,
                out_y: oy,
                out_w,
                out_h,
            });
            ox += out_w;
        }
        oy += out_h;
    }
    tiles
}

pub(crate) fn blit_profitable_words(
    global: &mut Grid<PackedWord>,
    tile: &chambolle_core::Tile,
    local: &Grid<PackedWord>,
) {
    let lx = tile.local_out_x();
    let ly = tile.local_out_y();
    for y in 0..tile.out_h {
        for x in 0..tile.out_w {
            global[(tile.out_x + x, tile.out_y + y)] = local[(lx + x, ly + y)];
        }
    }
}

pub(crate) fn blit_profitable_u(
    global: &mut Grid<WordFixed>,
    tile: &UTile,
    local: &Grid<WordFixed>,
) {
    let lx = tile.out_x - tile.src_x;
    let ly = tile.out_y - tile.src_y;
    for y in 0..tile.out_h {
        for x in 0..tile.out_w {
            global[(tile.out_x + x, tile.out_y + y)] = local[(lx + x, ly + y)];
        }
    }
}

/// [`TvDenoiser`] adapter so the accelerator can back the TV-L1 outer loop.
///
/// The trait takes `&self`, so the mutable accelerator lives behind a mutex.
#[derive(Debug)]
pub struct AccelDenoiser {
    accel: Mutex<ChambolleAccel>,
}

impl AccelDenoiser {
    /// Wraps an accelerator instance.
    pub fn new(accel: ChambolleAccel) -> Self {
        AccelDenoiser {
            accel: Mutex::new(accel),
        }
    }

    /// Consumes the adapter, returning the accelerator (e.g. to read
    /// cumulative cycle counts after a flow estimation).
    pub fn into_inner(self) -> ChambolleAccel {
        self.accel.into_inner().expect("accelerator mutex poisoned")
    }
}

impl TvDenoiser for AccelDenoiser {
    /// # Panics
    ///
    /// Panics if `params` cannot be encoded for the fixed-point datapath
    /// (use exactly representable Q8.8 values such as θ = 0.25, τ = θ/4).
    fn denoise(&self, v: &Grid<f32>, params: &ChambolleParams) -> Grid<f32> {
        let mut accel = self.accel.lock().expect("accelerator mutex poisoned");
        let (u, _, _) = accel
            .denoise_pair(v, None, params)
            .expect("parameters must be hardware-representable");
        u
    }

    fn name(&self) -> &str {
        "fpga-sim"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{fixed_chambolle_reference, quantize_input};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_image(w: usize, h: usize, seed: u64) -> Image {
        let mut rng = StdRng::seed_from_u64(seed);
        Grid::from_fn(w, h, |_, _| rng.gen_range(0.0f32..1.0))
    }

    fn params(iters: u32) -> ChambolleParams {
        ChambolleParams::paper(iters)
    }

    #[test]
    fn frame_matches_monolithic_reference() {
        // Frames larger than one window and no multiple of its 92×88
        // geometry, denoised through the sliding windows at every merge
        // depth K, must equal the monolithic fixed-point reference exactly.
        // Seven iterations leave a partial last round for K = 2 and 3.
        const ITERATIONS: u32 = 7;
        for (i, (w, h)) in [(150, 120), (97, 61), (200, 33)].into_iter().enumerate() {
            let v = random_image(w, h, 1 + i as u64);
            let reference =
                fixed_chambolle_reference(&quantize_input(&v), &HwParams::standard(ITERATIONS));
            for k in 1..=3 {
                let mut accel = ChambolleAccel::new(AccelConfig::paper(k).unwrap());
                let (u, _, stats) = accel.denoise_pair(&v, None, &params(ITERATIONS)).unwrap();
                for y in 0..h {
                    for x in 0..w {
                        assert_eq!(
                            WordFixed::from_f32(u[(x, y)]),
                            reference.u[(x, y)],
                            "u mismatch at ({x},{y}) of {w}x{h}, K = {k}"
                        );
                    }
                }
                assert!(stats.cycles > 0);
                assert_eq!(stats.rounds, ITERATIONS.div_ceil(k), "{w}x{h}, K = {k}");
            }
        }
    }

    #[test]
    fn small_frame_single_window() {
        let v = random_image(40, 30, 2);
        let p = params(5);
        let mut accel = ChambolleAccel::new(AccelConfig::default());
        let (u, _, stats) = accel.denoise_pair(&v, None, &p).unwrap();
        let reference = fixed_chambolle_reference(&quantize_input(&v), &HwParams::standard(5));
        assert_eq!(u.map(|&v| WordFixed::from_f32(v)), reference.u.map(|&x| x));
        // 3 iteration rounds (2+2+1) plus one u-round window each.
        assert_eq!(stats.rounds, 3);
        assert_eq!(stats.window_loads, 4);
    }

    #[test]
    fn pair_components_are_independent() {
        let v1 = random_image(50, 40, 3);
        let v2 = random_image(50, 40, 4);
        let p = params(4);
        let mut accel = ChambolleAccel::new(AccelConfig::default());
        let (u1, u2, _) = accel.denoise_pair(&v1, Some(&v2), &p).unwrap();
        let u2 = u2.expect("second component requested");
        let r1 = fixed_chambolle_reference(&quantize_input(&v1), &HwParams::standard(4));
        let r2 = fixed_chambolle_reference(&quantize_input(&v2), &HwParams::standard(4));
        assert_eq!(u1.map(|&v| WordFixed::from_f32(v)), r1.u.map(|&x| x));
        assert_eq!(u2.map(|&v| WordFixed::from_f32(v)), r2.u.map(|&x| x));
    }

    #[test]
    fn pair_costs_no_extra_cycles() {
        let v1 = random_image(60, 50, 5);
        let v2 = random_image(60, 50, 6);
        let p = params(3);
        let mut a = ChambolleAccel::new(AccelConfig::default());
        let (_, _, s_single) = a.denoise_pair(&v1, None, &p).unwrap();
        let mut b = ChambolleAccel::new(AccelConfig::default());
        let (_, _, s_pair) = b.denoise_pair(&v1, Some(&v2), &p).unwrap();
        assert_eq!(s_single.cycles, s_pair.cycles, "u2 array runs in parallel");
    }

    #[test]
    fn two_windows_split_the_work() {
        // A frame of many tiles: the two sliding windows should end up with
        // near-equal cycle shares.
        let v = random_image(300, 180, 7);
        let p = params(2);
        let mut accel = ChambolleAccel::new(AccelConfig::default());
        let (_, _, stats) = accel.denoise_pair(&v, None, &p).unwrap();
        assert_eq!(stats.per_window_cycles.len(), 2);
        let (a, b) = (stats.per_window_cycles[0], stats.per_window_cycles[1]);
        let imbalance = (a as f64 - b as f64).abs() / a.max(b) as f64;
        assert!(imbalance < 0.5, "windows too imbalanced: {a} vs {b}");
    }

    #[test]
    fn fps_accounting() {
        let stats = FrameStats {
            cycles: 2_210_000,
            per_window_cycles: vec![2_210_000],
            window_loads: 10,
            rounds: 5,
            clock_mhz: 221.0,
        };
        assert!((stats.seconds() - 0.01).abs() < 1e-12);
        assert!((stats.fps() - 100.0).abs() < 1e-9);
        assert!(stats.to_string().contains("fps"));
    }

    #[test]
    fn denoiser_adapter_matches_reference() {
        let v = random_image(30, 20, 8);
        let p = params(4);
        let adapter = AccelDenoiser::new(ChambolleAccel::new(AccelConfig::default()));
        let u = adapter.denoise(&v, &p);
        let reference = fixed_chambolle_reference(&quantize_input(&v), &HwParams::standard(4));
        assert_eq!(u.map(|&v| WordFixed::from_f32(v)), reference.u.map(|&x| x));
        assert_eq!(adapter.name(), "fpga-sim");
        let accel = adapter.into_inner();
        assert!(accel.windows[0].cycles() > 0);
    }

    #[test]
    fn non_restoring_sqrt_is_bit_exact_vs_its_reference() {
        use crate::reference::fixed_chambolle_reference_with;
        use chambolle_fixed::SqrtUnit;
        let v = random_image(60, 40, 9);
        let p = params(5);
        let config = AccelConfig {
            sqrt: SqrtKind::NonRestoring,
            ..AccelConfig::default()
        };
        let mut accel = ChambolleAccel::new(config);
        let (u, _, _) = accel.denoise_pair(&v, None, &p).unwrap();
        let reference = fixed_chambolle_reference_with(
            &quantize_input(&v),
            &HwParams::standard(5),
            &SqrtUnit::non_restoring(),
        );
        assert_eq!(u.map(|&v| WordFixed::from_f32(v)), reference.u.map(|&x| x));
    }

    #[test]
    fn non_restoring_sqrt_changes_the_result_and_costs_cycles() {
        let v = random_image(50, 40, 10);
        let p = params(10);
        let mut lut_accel = ChambolleAccel::new(AccelConfig::default());
        let (u_lut, _, s_lut) = lut_accel.denoise_pair(&v, None, &p).unwrap();
        let config = AccelConfig {
            sqrt: SqrtKind::NonRestoring,
            ..AccelConfig::default()
        };
        let mut nr_accel = ChambolleAccel::new(config);
        let (u_nr, _, s_nr) = nr_accel.denoise_pair(&v, None, &p).unwrap();
        assert_ne!(u_lut.as_slice(), u_nr.as_slice(), "sqrt unit must matter");
        assert!(
            s_nr.cycles > s_lut.cycles,
            "20-stage sqrt lengthens every pass: {} vs {}",
            s_nr.cycles,
            s_lut.cycles
        );
    }

    #[test]
    fn single_pixel_frame_survives_the_full_stack() {
        let v = Grid::new(1, 1, 0.625f32);
        let mut accel = ChambolleAccel::new(AccelConfig::default());
        let (u, _, stats) = accel.denoise_pair(&v, None, &params(5)).unwrap();
        // A lone pixel has no gradient: u == v exactly (quantized).
        assert_eq!(u[(0, 0)], 0.625);
        assert!(stats.cycles > 0);
    }

    #[test]
    fn invalid_merge_factor_rejected() {
        assert!(AccelConfig::paper(0).is_err());
        assert!(AccelConfig::paper(44).is_err()); // 2*44+1 = 89 > 88
        assert!(AccelConfig::paper(43).is_ok());
    }

    #[test]
    fn telemetry_counters_track_a_frame() {
        use chambolle_telemetry::{names, Telemetry};
        let v = random_image(100, 90, 11);
        let p = params(5);
        let mut accel = ChambolleAccel::new(AccelConfig::paper(2).unwrap());
        let telemetry = Telemetry::null();
        accel.attach_telemetry(telemetry.clone());
        let (_, _, stats) = accel.denoise_pair(&v, None, &p).unwrap();
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter(names::HWSIM_FRAMES), Some(1));
        assert_eq!(snap.counter(names::HWSIM_CYCLES), Some(stats.cycles));
        assert_eq!(
            snap.counter(names::HWSIM_WINDOW_LOADS),
            Some(stats.window_loads)
        );
        assert_eq!(
            snap.counter(names::HWSIM_ROUNDS),
            Some(u64::from(stats.rounds))
        );
        // Per-port counters must match the accelerator's own BRAM tallies.
        let bram = accel.bram_stats();
        assert_eq!(
            snap.counter(names::HWSIM_BRAM_PORT1_READS),
            Some(bram.port_reads[0])
        );
        assert_eq!(
            snap.counter(names::HWSIM_BRAM_PORT2_WRITES),
            Some(bram.port_writes[1])
        );
        assert_eq!(
            snap.counter(names::HWSIM_BRAM_PORT1_IDLE),
            Some(bram.port_idle_cycles(0))
        );
        // The LUT sqrt design looks up the table on every wavefront step.
        let lookups = snap.counter(names::HWSIM_SQRT_LOOKUPS).unwrap();
        assert_eq!(lookups, accel.sqrt_lookups());
        assert!(lookups > 0, "LUT sqrt must record lookups");
        // The span histogram recorded exactly one frame.
        let span_name = chambolle_telemetry::span::span_metric_name("hwsim.denoise_pair");
        let frames = snap
            .get(span_name.as_str())
            .and_then(|m| m.as_histogram())
            .map(|h| h.count());
        assert_eq!(frames, Some(1));
    }

    #[test]
    fn telemetry_attachment_does_not_change_the_output() {
        let v = random_image(60, 50, 12);
        let p = params(4);
        let mut plain = ChambolleAccel::new(AccelConfig::default());
        let (u_plain, _, s_plain) = plain.denoise_pair(&v, None, &p).unwrap();
        let mut instrumented = ChambolleAccel::new(AccelConfig::default());
        instrumented.attach_telemetry(chambolle_telemetry::Telemetry::null());
        let (u_inst, _, s_inst) = instrumented.denoise_pair(&v, None, &p).unwrap();
        assert_eq!(u_plain.as_slice(), u_inst.as_slice());
        assert_eq!(s_plain.cycles, s_inst.cycles);
    }

    #[test]
    fn recorder_attaches_to_the_full_accelerator() {
        // Satellite check: VCD recording now works through ChambolleAccel,
        // not just a bare PeArray.
        use crate::trace::{write_vcd, TraceRecorder};
        let recorder = TraceRecorder::shared();
        let mut accel = ChambolleAccel::new(AccelConfig::default());
        accel.attach_recorder(&recorder);
        let v = random_image(20, 15, 13);
        accel.denoise_pair(&v, None, &params(2)).unwrap();
        let rec = recorder.borrow();
        assert!(
            !rec.accesses().is_empty(),
            "full-accel run must record BRAM accesses"
        );
        let mut vcd = Vec::new();
        write_vcd(&mut vcd, &rec).unwrap();
        let vcd = String::from_utf8(vcd).unwrap();
        assert!(vcd.contains("$enddefinitions"), "VCD header present");
    }

    #[test]
    fn u_round_tiles_partition_with_leading_halo() {
        let tiles = u_round_tiles(200, 100, &ArrayConfig::paper());
        let mut covered = Grid::new(200, 100, 0u32);
        for t in &tiles {
            assert!(t.src_w <= 92 && t.src_h <= 88);
            assert!(t.out_x == 0 || t.out_x - t.src_x == 1);
            assert!(t.out_y == 0 || t.out_y - t.src_y == 1);
            for y in t.out_y..t.out_y + t.out_h {
                for x in t.out_x..t.out_x + t.out_w {
                    covered[(x, y)] += 1;
                }
            }
        }
        assert!(covered.as_slice().iter().all(|&c| c == 1));
    }
}
