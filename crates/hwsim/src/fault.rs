//! Deterministic fault injection and the guarded frame scheduler.
//!
//! FPGAs in the field take single-event upsets: configuration and block-RAM
//! bits flip under radiation, and datapath logic can glitch transiently.
//! This module stresses the simulated accelerator with exactly those fault
//! classes and implements the detection/recovery architecture that keeps the
//! frame result *bit-identical* to the fault-free reference:
//!
//! - [`FaultInjector`] — a seed-driven injector that flips bits in the
//!   frame-state BRAM words, corrupts sqrt-LUT entries, and perturbs PE
//!   datapath results on a deterministic schedule. Every injected fault is
//!   logged as a [`FaultEvent`]; the same seed and schedule always produce
//!   the same corruption trace.
//! - Monitors — per-region FNV checksums over the packed words
//!   ([`region_checksum`]) and the dual-feasibility invariant `|p|² ≤`
//!   [`FEASIBILITY_MAX_NORM_SQ`] ([`check_dual_feasibility`]).
//! - [`ChambolleAccel::denoise_pair_guarded`] — the frame scheduler of
//!   [`ChambolleAccel::denoise_pair`] with the monitors attached: LUT
//!   scrubbing against golden checksums (repair + round recompute), per-tile
//!   checksum verification with tile recompute from the round-start
//!   snapshot, dual-modular-redundancy arbitration whenever the injector can
//!   fire datapath glitches, and a capped-retry fall-back to the sequential
//!   fixed-point reference. All of it reported through the shared
//!   [`chambolle_core::RecoveryReport`] vocabulary. An injector that cannot
//!   fire ([`FaultConfig::any_faults`]) attaches no monitor, so the frame
//!   is exactly the unguarded one.
//!
//! The fault model and why recovery is exact:
//!
//! - **BRAM upsets** land *between* rounds, after the round's results were
//!   checksummed — a scrubbing controller's checksum RAM holds the pre-upset
//!   truth, so every upset in a profitable region is detected, and the
//!   round-start snapshot (which the hardware keeps anyway for its
//!   concurrent windows) allows an exact tile recompute.
//! - **LUT corruption** lands before a round computes and is caught by the
//!   post-round golden-checksum scrub; since *which tiles* read the bad
//!   entry is unknowable, the whole round is recomputed after repair.
//! - **Datapath glitches** are transient: they perturb at most the first
//!   execution of a `(round, tile)` pair, so a DMR shadow re-execution
//!   disagrees exactly when a glitch happened and its result is clean.

use chambolle_core::{ChambolleParams, RecoveryAction, RecoveryReport, Tile};
use chambolle_fixed::PackedWord;
use chambolle_imaging::{Grid, Image};

use crate::accel::{
    blit_runs, ChambolleAccel, FrameStats, Planes, SlidingWindow, SqrtKind, Windows,
};
use crate::params::HwParams;
use crate::reference::{dequantize, fixed_chambolle_reference_with, quantize_input};

/// Largest `px² + py²` a fault-free fixed-point solve produces.
///
/// The float algorithm keeps `|p| ≤ 1` exactly; the hardware's LUT sqrt
/// *underestimates* `|∇u|` by up to ~4%, which lets the normalized dual
/// overshoot — measured maximum ≈ 1.15 over random frames. 1.35 clears that
/// with headroom while still flagging e.g. a sign-bit upset that turns a
/// near-unit component pair into `|p|² ≈ 2`.
pub const FEASIBILITY_MAX_NORM_SQ: f64 = 1.35;

/// Fault rates and the seed of the injection schedule.
///
/// Rates are per-opportunity probabilities: `bram_flip_rate` per state word
/// per round, `lut_rate` per sqrt table per round, `datapath_rate` per
/// window execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed of the deterministic schedule.
    pub seed: u64,
    /// Probability of a single-bit upset per frame-state word per round.
    pub bram_flip_rate: f64,
    /// Probability of a corrupted entry per sqrt LUT per round.
    pub lut_rate: f64,
    /// Probability of a transient datapath glitch per window execution.
    pub datapath_rate: f64,
}

impl FaultConfig {
    /// A schedule that never fires (for guarded-path overhead testing).
    pub fn quiet(seed: u64) -> Self {
        FaultConfig {
            seed,
            bram_flip_rate: 0.0,
            lut_rate: 0.0,
            datapath_rate: 0.0,
        }
    }

    /// True when any fault class can fire.
    pub fn any_faults(&self) -> bool {
        self.bram_flip_rate > 0.0 || self.lut_rate > 0.0 || self.datapath_rate > 0.0
    }
}

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A bit flip in a frame-state BRAM word.
    BramFlip {
        /// Flow component (0 = `u1` plane, 1 = `u2` plane).
        component: u8,
        /// Cell x.
        x: usize,
        /// Cell y.
        y: usize,
        /// Flipped bit (1..=31; bit 0 is the spare and decodes to nothing).
        bit: u8,
    },
    /// A corrupted sqrt-LUT entry.
    LutEntry {
        /// Sliding-window index.
        window: usize,
        /// Array within the window (0 = `u1`, 1 = `u2`).
        array: u8,
        /// Corrupted table index.
        index: u8,
        /// XOR mask applied to the entry (nonzero).
        xor: u8,
    },
    /// A transient glitch in one window execution's result.
    Datapath {
        /// Tile index within the round's plan.
        tile: usize,
        /// Flow component (0 = `u1`, 1 = `u2`).
        component: u8,
        /// Linear cell index within the window result.
        cell: usize,
        /// Flipped bit (1..=31).
        bit: u8,
    },
}

/// A [`FaultKind`] stamped with the iteration round it fired in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Iteration round of the injection.
    pub round: u32,
    /// What was injected.
    pub kind: FaultKind,
}

/// Seed-driven deterministic fault injector (SplitMix64 schedule).
///
/// Two injectors built from the same [`FaultConfig`] and driven through the
/// same call sequence produce identical corruption traces — the property the
/// determinism proptests pin down.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    config: FaultConfig,
    state: u64,
    events: Vec<FaultEvent>,
}

impl FaultInjector {
    /// Creates an injector with the given schedule.
    pub fn new(config: FaultConfig) -> Self {
        FaultInjector {
            config,
            state: config.seed,
            events: Vec::new(),
        }
    }

    /// The schedule configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Every fault injected so far, in injection order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of faults injected so far.
    pub fn injected(&self) -> usize {
        self.events.len()
    }

    fn next_u64(&mut self) -> u64 {
        // SplitMix64 — the same generator the offline rand stub uses.
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn chance(&mut self, p: f64) -> bool {
        // Always consumes one draw, so the schedule's shape does not depend
        // on which rates are zero.
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < p
    }

    /// A payload bit index in 1..=31 — bit 0 is the packed word's spare bit,
    /// which decodes to nothing and would make a fault undetectable *and*
    /// harmless; real upsets there are out of the model's scope.
    fn payload_bit(&mut self) -> u8 {
        1 + (self.next_u64() % 31) as u8
    }

    /// SEU pass over one component's frame state: visits every word in
    /// row-major order and flips one payload bit with probability
    /// `bram_flip_rate`. Returns the number of injected flips.
    pub fn corrupt_state(
        &mut self,
        round: u32,
        component: u8,
        state: &mut Grid<PackedWord>,
    ) -> usize {
        let (w, h) = state.dims();
        let mut injected = 0;
        for y in 0..h {
            for x in 0..w {
                if self.chance(self.config.bram_flip_rate) {
                    let bit = self.payload_bit();
                    let word = state[(x, y)].to_bits() ^ (1u32 << bit);
                    state[(x, y)] = PackedWord::from_bits(word);
                    self.events.push(FaultEvent {
                        round,
                        kind: FaultKind::BramFlip {
                            component,
                            x,
                            y,
                            bit,
                        },
                    });
                    injected += 1;
                }
            }
        }
        injected
    }

    /// Configuration-upset pass over the sqrt LUTs: each of the
    /// `2 × windows` tables is corrupted in one entry with probability
    /// `lut_rate`. Returns the number of corrupted tables (always 0 for
    /// table-less non-restoring units).
    pub fn corrupt_luts(&mut self, round: u32, windows: &mut [SlidingWindow]) -> usize {
        let mut injected = 0;
        for (wi, sw) in windows.iter_mut().enumerate() {
            for array in 0..2u8 {
                if self.chance(self.config.lut_rate) {
                    let index = (self.next_u64() & 0xFF) as u8;
                    let xor = 1 + (self.next_u64() % 255) as u8;
                    if sw.corrupt_sqrt_entry(array, index, xor) {
                        self.events.push(FaultEvent {
                            round,
                            kind: FaultKind::LutEntry {
                                window: wi,
                                array,
                                index,
                                xor,
                            },
                        });
                        injected += 1;
                    }
                }
            }
        }
        injected
    }

    /// Transient-glitch pass over one window execution's result: with
    /// probability `datapath_rate`, flips one payload bit of one output
    /// word. Returns whether a glitch fired.
    pub fn perturb_datapath(
        &mut self,
        round: u32,
        tile: usize,
        component: u8,
        words: &mut Grid<PackedWord>,
    ) -> bool {
        if !self.chance(self.config.datapath_rate) {
            return false;
        }
        let cell = (self.next_u64() % words.len() as u64) as usize;
        let bit = self.payload_bit();
        let (w, _) = words.dims();
        let (x, y) = (cell % w, cell / w);
        let word = words[(x, y)].to_bits() ^ (1u32 << bit);
        words[(x, y)] = PackedWord::from_bits(word);
        self.events.push(FaultEvent {
            round,
            kind: FaultKind::Datapath {
                tile,
                component,
                cell,
                bit,
            },
        });
        true
    }
}

/// FNV-1a checksum over the packed words of a rectangular region — the
/// per-region integrity word a scrubbing controller keeps beside the frame
/// BRAM.
pub fn region_checksum(state: &Grid<PackedWord>, x0: usize, y0: usize, w: usize, h: usize) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for y in y0..y0 + h {
        for x in x0..x0 + w {
            for b in state[(x, y)].to_bits().to_le_bytes() {
                hash ^= b as u64;
                hash = hash.wrapping_mul(0x100_0000_01b3);
            }
        }
    }
    hash
}

/// [`region_checksum`] over the whole grid.
pub fn state_checksum(state: &Grid<PackedWord>) -> u64 {
    let (w, h) = state.dims();
    region_checksum(state, 0, 0, w, h)
}

/// A cell whose dual vector violates the feasibility invariant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvariantViolation {
    /// Cell x.
    pub x: usize,
    /// Cell y.
    pub y: usize,
    /// The offending `px² + py²`.
    pub norm_sq: f64,
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "|p|^2 = {:.4} at ({}, {}) exceeds the feasibility bound",
            self.norm_sq, self.x, self.y
        )
    }
}

/// Checks the dual-feasibility invariant over a rectangular region,
/// returning the first violating cell (row-major order), if any.
pub fn check_dual_feasibility_region(
    state: &Grid<PackedWord>,
    x0: usize,
    y0: usize,
    w: usize,
    h: usize,
    max_norm_sq: f64,
) -> Option<InvariantViolation> {
    for y in y0..y0 + h {
        for x in x0..x0 + w {
            let word = state[(x, y)];
            let px = word.px().to_f32() as f64;
            let py = word.py().to_f32() as f64;
            let norm_sq = px * px + py * py;
            if norm_sq > max_norm_sq {
                return Some(InvariantViolation { x, y, norm_sq });
            }
        }
    }
    None
}

/// [`check_dual_feasibility_region`] over the whole grid with the standard
/// bound [`FEASIBILITY_MAX_NORM_SQ`].
pub fn check_dual_feasibility(state: &Grid<PackedWord>) -> Option<InvariantViolation> {
    let (w, h) = state.dims();
    check_dual_feasibility_region(state, 0, 0, w, h, FEASIBILITY_MAX_NORM_SQ)
}

/// Recovery knobs of the guarded frame scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccelGuardConfig {
    /// How many verify-and-recompute passes a round may take before the
    /// frame degrades to the sequential fallback.
    pub max_tile_retries: u32,
}

impl Default for AccelGuardConfig {
    /// Two recovery passes per round.
    fn default() -> Self {
        AccelGuardConfig {
            max_tile_retries: 2,
        }
    }
}

/// Result of a guarded frame: the outputs, the hardware statistics, and the
/// full detection/recovery account.
#[derive(Debug, Clone)]
pub struct GuardedFrame {
    /// First component output.
    pub u1: Image,
    /// Second component output, when a pair was requested.
    pub u2: Option<Image>,
    /// Frame statistics (recovery work shows up as extra window loads and
    /// cycles — redundancy and recomputation are not free).
    pub stats: FrameStats,
    /// What was detected and what was done about it.
    pub report: RecoveryReport,
}

/// The fault monitors of a guarded frame whose injector can fire, with the
/// frame's running [`RecoveryReport`].
pub(crate) struct Monitor<'a> {
    injector: &'a mut FaultInjector,
    max_tile_retries: u32,
    pub(crate) report: RecoveryReport,
}

impl Monitor<'_> {
    /// One guarded iteration round on the round-start snapshot `state`:
    /// injection, DMR arbitration, LUT scrub, and per-region verification
    /// with tile recompute. Returns the verified next state, or `None` when a
    /// region is still corrupt after `max_tile_retries` recompute passes.
    pub(crate) fn round(
        &mut self,
        windows: &mut Windows<'_>,
        round: u32,
        state: &Planes,
        tiles: &[Tile],
        params: &HwParams,
    ) -> Option<Planes> {
        // Configuration upsets land in the sqrt ROMs before the round.
        self.injector.corrupt_luts(round, windows.all);

        // Datapath glitches corrupt results before they are checksummed, so
        // a DMR shadow run is their only detector.
        let dmr = self.injector.config().datapath_rate > 0.0;
        let (injector, report) = (&mut *self.injector, &mut self.report);
        let mut next = windows.run_round(state, tiles, params, |windows, i, runs| {
            // Transient glitches hit only this first execution; the DMR
            // shadow below re-runs the same deterministic hardware and is
            // clean, so a mismatch pinpoints the glitch exactly.
            injector.perturb_datapath(round, i, 0, &mut runs.0.words);
            if let Some(r2) = runs.1.as_mut() {
                injector.perturb_datapath(round, i, 1, &mut r2.words);
            }
            if dmr {
                let shadow = windows.run_tile(state, &tiles[i], params);
                let mismatch = runs.0.words != shadow.0.words
                    || runs.1.as_ref().map(|r| &r.words) != shadow.1.as_ref().map(|r| &r.words);
                if mismatch {
                    report.detections += 1;
                    report
                        .actions
                        .push(RecoveryAction::DatapathArbitration { round, tile: i });
                    *runs = shadow;
                }
            }
        });

        // Golden-checksum scrub of every sqrt table. A repaired table means
        // some tiles computed through a corrupted ROM — which tiles is
        // unknowable, so the whole round recomputes on the now-clean units
        // from the intact round-start snapshot.
        let repairs: u32 = windows
            .all
            .iter_mut()
            .map(SlidingWindow::repair_sqrt_units)
            .sum();
        if repairs > 0 {
            self.report.detections += repairs;
            self.report
                .actions
                .push(RecoveryAction::LutRepair { round, repairs });
            self.report
                .actions
                .push(RecoveryAction::RoundRecompute { round });
            next = windows.run_round(state, tiles, params, |_, _, _| {});
        }

        // Checksum the clean round result per profitable region (the regions
        // partition the frame, so every later upset lands in exactly one of
        // them).
        let sums: Vec<RegionSums> = tiles.iter().map(|t| region_sums(&next, t)).collect();

        // SEUs land between rounds — after checksumming, exactly like a
        // scrubbing controller whose checksum RAM holds the truth.
        self.injector.corrupt_state(round, 0, &mut next.0);
        if let Some(n2) = next.1.as_mut() {
            self.injector.corrupt_state(round, 1, n2);
        }

        // Verify every region (checksum + feasibility invariant) and
        // recompute corrupted tiles from the round-start snapshot.
        let mut attempt = 0u32;
        loop {
            let bad: Vec<usize> = (0..tiles.len())
                .filter(|&i| !region_intact(&next, &tiles[i], sums[i]))
                .collect();
            if bad.is_empty() {
                return Some(next);
            }
            self.report.detections += bad.len() as u32;
            if attempt >= self.max_tile_retries {
                self.report.degraded = true;
                self.report.actions.push(RecoveryAction::SequentialFallback);
                return None;
            }
            for i in bad {
                let runs = windows.run_tile(state, &tiles[i], params);
                blit_runs(&mut next, &tiles[i], &runs);
                self.report
                    .actions
                    .push(RecoveryAction::TileRecompute { round, tile: i });
            }
            attempt += 1;
        }
    }
}

/// Checksums of one profitable region: `u1`'s and, for a pair, `u2`'s.
type RegionSums = (u64, Option<u64>);

fn region_sums(state: &Planes, t: &Tile) -> RegionSums {
    let sum = |s: &Grid<PackedWord>| region_checksum(s, t.out_x, t.out_y, t.out_w, t.out_h);
    (sum(&state.0), state.1.as_ref().map(sum))
}

/// True when tile `t`'s profitable region still matches its checksums and
/// satisfies the dual-feasibility invariant in every component.
fn region_intact(state: &Planes, t: &Tile, sums: RegionSums) -> bool {
    let intact = |s: &Grid<PackedWord>, sum: u64| {
        region_checksum(s, t.out_x, t.out_y, t.out_w, t.out_h) == sum
            && check_dual_feasibility_region(
                s,
                t.out_x,
                t.out_y,
                t.out_w,
                t.out_h,
                FEASIBILITY_MAX_NORM_SQ,
            )
            .is_none()
    };
    intact(&state.0, sums.0)
        && match (&state.1, sums.1) {
            (Some(s2), Some(sum2)) => intact(s2, sum2),
            _ => true,
        }
}

/// Graceful degradation: the monolithic fixed-point reference on the
/// original input — slower (no parallel windows), but bit-identical to what
/// a fault-free accelerator run produces.
pub(crate) fn sequential_fallback(
    v1: &Image,
    v2: Option<&Image>,
    hw: &HwParams,
    sqrt: SqrtKind,
) -> (Image, Option<Image>) {
    let sqrt = sqrt.unit();
    let solve =
        |v: &Image| dequantize(&fixed_chambolle_reference_with(&quantize_input(v), hw, &sqrt).u);
    (solve(v1), v2.map(solve))
}

impl ChambolleAccel {
    /// [`ChambolleAccel::denoise_pair`] hardened against the injector's
    /// fault classes.
    ///
    /// An injector that cannot fire ([`FaultConfig::any_faults`] is false)
    /// runs the frame without monitors, so outputs, statistics and frame
    /// telemetry equal the unguarded path's. Otherwise the guarded scheduler
    /// detects every corruption that lands in a profitable region and
    /// recovers to the exact fault-free result, degrading to the sequential
    /// fixed-point reference (which is bit-identical to the accelerator by
    /// construction) when the per-round retry budget runs out. Either way
    /// the report lands in the `guard.*` counters of attached telemetry.
    ///
    /// # Errors
    ///
    /// Returns [`HwParamsError`](crate::HwParamsError) if `params` cannot be
    /// encoded for the fixed-point datapath.
    ///
    /// # Panics
    ///
    /// Panics if `v2` is given with different dimensions from `v1`, or the
    /// frame is empty.
    pub fn denoise_pair_guarded(
        &mut self,
        v1: &Image,
        v2: Option<&Image>,
        params: &ChambolleParams,
        injector: &mut FaultInjector,
        guard: &AccelGuardConfig,
    ) -> Result<GuardedFrame, crate::HwParamsError> {
        let monitor = injector.config().any_faults().then(|| Monitor {
            injector,
            max_tile_retries: guard.max_tile_retries,
            report: RecoveryReport::default(),
        });
        let frame = self.run_frame("hwsim.denoise_pair_guarded", v1, v2, params, monitor)?;
        frame.report.record_telemetry(&self.telemetry);
        Ok(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accel::AccelConfig;
    use crate::reference::fixed_chambolle_reference;
    use chambolle_fixed::WordFixed;
    use chambolle_imaging::Grid;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_image(w: usize, h: usize, seed: u64) -> Image {
        let mut rng = StdRng::seed_from_u64(seed);
        Grid::from_fn(w, h, |_, _| rng.gen_range(0.0f32..1.0))
    }

    fn params(iters: u32) -> ChambolleParams {
        ChambolleParams::paper(iters)
    }

    fn reference_u(v: &Image, iters: u32) -> Grid<f32> {
        dequantize(&fixed_chambolle_reference(&quantize_input(v), &HwParams::standard(iters)).u)
    }

    #[test]
    fn injector_is_deterministic() {
        let config = FaultConfig {
            seed: 7,
            bram_flip_rate: 0.01,
            lut_rate: 0.3,
            datapath_rate: 0.2,
        };
        let drive = |mut inj: FaultInjector| {
            let mut state = quantize_input(&random_image(40, 30, 1));
            let mut windows = vec![SlidingWindow::new(crate::array::ArrayConfig::paper()); 2];
            inj.corrupt_luts(0, &mut windows);
            inj.corrupt_state(0, 0, &mut state);
            let mut words = quantize_input(&random_image(20, 10, 2));
            inj.perturb_datapath(0, 3, 0, &mut words);
            (inj.events().to_vec(), state, words)
        };
        let (e1, s1, w1) = drive(FaultInjector::new(config));
        let (e2, s2, w2) = drive(FaultInjector::new(config));
        assert_eq!(e1, e2);
        assert_eq!(s1, s2);
        assert_eq!(w1, w2);
        assert!(!e1.is_empty(), "rates this high must fire");
        let (e3, _, _) = drive(FaultInjector::new(FaultConfig { seed: 8, ..config }));
        assert_ne!(e1, e3, "different seeds give different traces");
    }

    #[test]
    fn injected_bits_avoid_the_spare_bit() {
        let mut inj = FaultInjector::new(FaultConfig {
            seed: 3,
            bram_flip_rate: 1.0,
            lut_rate: 0.0,
            datapath_rate: 0.0,
        });
        let mut state = quantize_input(&random_image(16, 16, 4));
        inj.corrupt_state(0, 0, &mut state);
        assert_eq!(inj.injected(), 256);
        for e in inj.events() {
            match e.kind {
                FaultKind::BramFlip { bit, .. } => assert!((1..=31).contains(&bit)),
                other => panic!("unexpected event {other:?}"),
            }
        }
    }

    #[test]
    fn checksum_catches_every_payload_flip() {
        let state = quantize_input(&random_image(12, 9, 5));
        let golden = state_checksum(&state);
        for bit in 1..32u32 {
            let mut corrupted = state.clone();
            let word = corrupted[(7, 4)].to_bits() ^ (1 << bit);
            corrupted[(7, 4)] = PackedWord::from_bits(word);
            assert_ne!(state_checksum(&corrupted), golden, "bit {bit} missed");
        }
    }

    #[test]
    fn feasibility_monitor_flags_corrupt_duals() {
        let v = random_image(30, 24, 6);
        let sol = fixed_chambolle_reference(&quantize_input(&v), &HwParams::standard(20));
        assert_eq!(
            check_dual_feasibility(&sol.words),
            None,
            "clean hardware state must satisfy the invariant"
        );
        let mut corrupted = sol.words.clone();
        let bad = PackedWord::new_saturating(
            corrupted[(3, 3)].v(),
            WordFixed::from_f32(-1.0),
            WordFixed::from_f32(-1.0),
        );
        corrupted[(3, 3)] = bad;
        let violation = check_dual_feasibility(&corrupted).expect("|p|^2 = 2 must be flagged");
        assert_eq!((violation.x, violation.y), (3, 3));
        assert!(violation.norm_sq > FEASIBILITY_MAX_NORM_SQ);
        assert!(violation.to_string().contains("(3, 3)"));
    }

    #[test]
    fn quiet_injector_changes_nothing() {
        use chambolle_telemetry::{names, span::span_metric_name, Telemetry};
        // A guarded frame whose injector cannot fire runs the unguarded
        // schedule: same outputs, statistics, BRAM traffic and sqrt lookups,
        // for a pair of frames at every merge depth K.
        for (i, (w, h, k)) in [(150, 120, 2), (97, 61, 3), (200, 33, 1)]
            .into_iter()
            .enumerate()
        {
            let v1 = random_image(w, h, 7 + i as u64);
            let v2 = random_image(w, h, 17 + i as u64);
            let p = params(6);
            let mut plain = ChambolleAccel::new(AccelConfig::paper(k).unwrap());
            let telemetry = Telemetry::null();
            plain.attach_telemetry(telemetry.clone());
            let (u1, u2, s_plain) = plain.denoise_pair(&v1, Some(&v2), &p).unwrap();
            let mut guarded = ChambolleAccel::new(AccelConfig::paper(k).unwrap());
            let mut inj = FaultInjector::new(FaultConfig::quiet(1));
            let frame = guarded
                .denoise_pair_guarded(&v1, Some(&v2), &p, &mut inj, &AccelGuardConfig::default())
                .unwrap();
            let at = format!("{w}x{h}, K = {k}");
            assert_eq!(frame.u1.as_slice(), u1.as_slice(), "{at}");
            assert_eq!(
                frame.u2.as_ref().map(Grid::as_slice),
                u2.as_ref().map(Grid::as_slice),
                "{at}"
            );
            assert_eq!(frame.stats.cycles, s_plain.cycles, "{at}");
            assert_eq!(
                frame.stats.per_window_cycles, s_plain.per_window_cycles,
                "{at}"
            );
            assert_eq!(frame.stats.window_loads, s_plain.window_loads, "{at}");
            assert_eq!(frame.stats.rounds, s_plain.rounds, "{at}");
            assert_eq!(guarded.bram_stats(), plain.bram_stats(), "{at}");
            assert_eq!(guarded.sqrt_lookups(), plain.sqrt_lookups(), "{at}");
            assert!(frame.report.is_clean());
            assert_eq!(inj.injected(), 0);

            // An unguarded frame records the eleven hwsim counters and its
            // span, and no guard key.
            let mut expected = vec![
                names::HWSIM_FRAMES.to_owned(),
                names::HWSIM_CYCLES.to_owned(),
                names::HWSIM_WINDOW_LOADS.to_owned(),
                names::HWSIM_ROUNDS.to_owned(),
                names::HWSIM_BRAM_PORT1_READS.to_owned(),
                names::HWSIM_BRAM_PORT2_READS.to_owned(),
                names::HWSIM_BRAM_PORT1_WRITES.to_owned(),
                names::HWSIM_BRAM_PORT2_WRITES.to_owned(),
                names::HWSIM_BRAM_PORT1_IDLE.to_owned(),
                names::HWSIM_BRAM_PORT2_IDLE.to_owned(),
                names::HWSIM_SQRT_LOOKUPS.to_owned(),
                span_metric_name("hwsim.denoise_pair"),
            ];
            expected.sort();
            let snap = telemetry.snapshot();
            let keys: Vec<String> = snap.iter().map(|(key, _)| key.to_owned()).collect();
            assert_eq!(keys, expected, "{at}");
        }
    }

    #[test]
    fn bram_upsets_are_detected_and_recovered_exactly() {
        let v = random_image(150, 120, 8);
        let p = params(6);
        let mut accel = ChambolleAccel::new(AccelConfig::paper(2).unwrap());
        let mut inj = FaultInjector::new(FaultConfig {
            seed: 42,
            bram_flip_rate: 5e-4,
            lut_rate: 0.0,
            datapath_rate: 0.0,
        });
        let frame = accel
            .denoise_pair_guarded(&v, None, &p, &mut inj, &AccelGuardConfig::default())
            .unwrap();
        assert!(inj.injected() > 0, "rate must actually fire on this frame");
        assert!(frame.report.detections > 0);
        assert!(frame.report.tile_recomputes() > 0);
        assert!(!frame.report.degraded);
        // Exact recovery: bit-identical to the fault-free reference.
        assert_eq!(frame.u1.as_slice(), reference_u(&v, 6).as_slice());
    }

    #[test]
    fn guarded_frame_reports_fault_counters_via_telemetry() {
        use chambolle_telemetry::{names, Telemetry};
        let v = random_image(150, 120, 8);
        let p = params(6);
        let mut accel = ChambolleAccel::new(AccelConfig::paper(2).unwrap());
        let telemetry = Telemetry::null();
        accel.attach_telemetry(telemetry.clone());
        let mut inj = FaultInjector::new(FaultConfig {
            seed: 42,
            bram_flip_rate: 5e-4,
            lut_rate: 0.0,
            datapath_rate: 0.0,
        });
        let frame = accel
            .denoise_pair_guarded(&v, None, &p, &mut inj, &AccelGuardConfig::default())
            .unwrap();
        let snap = telemetry.snapshot();
        assert_eq!(
            snap.counter(names::GUARD_DETECTIONS),
            Some(u64::from(frame.report.detections))
        );
        assert_eq!(
            snap.counter(names::GUARD_RECOVERIES),
            Some(frame.report.actions.len() as u64)
        );
        assert_eq!(snap.counter(names::GUARD_FALLBACKS), Some(0));
        assert_eq!(
            snap.counter(&format!("{}tile_recompute", names::GUARD_ACTION_PREFIX)),
            Some(frame.report.tile_recomputes() as u64)
        );
        assert_eq!(snap.counter(names::HWSIM_FRAMES), Some(1));
        assert_eq!(snap.counter(names::HWSIM_CYCLES), Some(frame.stats.cycles));
    }

    #[test]
    fn lut_corruption_triggers_repair_and_round_recompute() {
        let v = random_image(100, 90, 9);
        let p = params(4);
        let mut accel = ChambolleAccel::new(AccelConfig::paper(2).unwrap());
        let mut inj = FaultInjector::new(FaultConfig {
            seed: 5,
            bram_flip_rate: 0.0,
            lut_rate: 0.5,
            datapath_rate: 0.0,
        });
        let frame = accel
            .denoise_pair_guarded(&v, None, &p, &mut inj, &AccelGuardConfig::default())
            .unwrap();
        assert!(inj.injected() > 0);
        assert!(frame
            .report
            .actions
            .iter()
            .any(|a| matches!(a, RecoveryAction::LutRepair { .. })));
        assert!(frame
            .report
            .actions
            .iter()
            .any(|a| matches!(a, RecoveryAction::RoundRecompute { .. })));
        assert_eq!(frame.u1.as_slice(), reference_u(&v, 4).as_slice());
        // Scrubbing leaves the hardware clean for the next frame.
        assert!(accel.windows.iter().all(|sw| sw.sqrt_units_intact()));
    }

    #[test]
    fn datapath_glitches_are_arbitrated_by_dmr() {
        let v = random_image(100, 90, 10);
        let p = params(4);
        let mut accel = ChambolleAccel::new(AccelConfig::paper(2).unwrap());
        let mut inj = FaultInjector::new(FaultConfig {
            seed: 11,
            bram_flip_rate: 0.0,
            lut_rate: 0.0,
            datapath_rate: 0.5,
        });
        let frame = accel
            .denoise_pair_guarded(&v, None, &p, &mut inj, &AccelGuardConfig::default())
            .unwrap();
        assert!(inj.injected() > 0);
        let arbitrations = frame
            .report
            .actions
            .iter()
            .filter(|a| matches!(a, RecoveryAction::DatapathArbitration { .. }))
            .count();
        // A glitch can land outside the profitable region (halo cells are
        // discarded), but at least one must have been arbitrated at 50%.
        assert!(arbitrations > 0);
        assert_eq!(frame.u1.as_slice(), reference_u(&v, 4).as_slice());
    }

    #[test]
    fn exhausted_retries_degrade_to_the_sequential_reference() {
        let v = random_image(120, 100, 11);
        let p = params(5);
        let mut accel = ChambolleAccel::new(AccelConfig::paper(2).unwrap());
        let mut inj = FaultInjector::new(FaultConfig {
            seed: 13,
            bram_flip_rate: 2e-3,
            lut_rate: 0.0,
            datapath_rate: 0.0,
        });
        let guard = AccelGuardConfig {
            max_tile_retries: 0,
        };
        let frame = accel
            .denoise_pair_guarded(&v, None, &p, &mut inj, &guard)
            .unwrap();
        assert!(frame.report.degraded);
        assert_eq!(
            frame.report.actions.last(),
            Some(&RecoveryAction::SequentialFallback)
        );
        // Degraded ≠ wrong: the sequential reference is bit-identical.
        assert_eq!(frame.u1.as_slice(), reference_u(&v, 5).as_slice());
    }

    #[test]
    fn guarded_pair_recovers_both_components() {
        let v1 = random_image(100, 80, 12);
        let v2 = random_image(100, 80, 13);
        let p = params(4);
        let mut accel = ChambolleAccel::new(AccelConfig::paper(2).unwrap());
        let mut inj = FaultInjector::new(FaultConfig {
            seed: 17,
            bram_flip_rate: 5e-4,
            lut_rate: 0.2,
            datapath_rate: 0.0,
        });
        let frame = accel
            .denoise_pair_guarded(&v1, Some(&v2), &p, &mut inj, &AccelGuardConfig::default())
            .unwrap();
        assert!(inj.injected() > 0);
        assert_eq!(frame.u1.as_slice(), reference_u(&v1, 4).as_slice());
        let u2 = frame.u2.expect("pair requested");
        assert_eq!(u2.as_slice(), reference_u(&v2, 4).as_slice());
    }

    #[test]
    fn recovery_costs_extra_window_loads() {
        let v = random_image(150, 120, 14);
        let p = params(6);
        let mut clean = ChambolleAccel::new(AccelConfig::paper(2).unwrap());
        let mut quiet = FaultInjector::new(FaultConfig::quiet(0));
        let base = clean
            .denoise_pair_guarded(&v, None, &p, &mut quiet, &AccelGuardConfig::default())
            .unwrap();
        let mut faulty = ChambolleAccel::new(AccelConfig::paper(2).unwrap());
        let mut inj = FaultInjector::new(FaultConfig {
            seed: 19,
            bram_flip_rate: 1e-3,
            lut_rate: 0.0,
            datapath_rate: 0.0,
        });
        let recovered = faulty
            .denoise_pair_guarded(&v, None, &p, &mut inj, &AccelGuardConfig::default())
            .unwrap();
        assert!(inj.injected() > 0);
        assert!(
            recovered.stats.window_loads > base.stats.window_loads,
            "tile recomputes must show up in the statistics"
        );
        assert_eq!(recovered.u1.as_slice(), base.u1.as_slice());
    }
}
