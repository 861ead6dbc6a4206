//! Cycle-level simulator of the DATE'11 FPGA Chambolle accelerator
//! (Akin et al., *A High-Performance Parallel Implementation of the
//! Chambolle Algorithm*).
//!
//! The paper's evaluation platform is a Xilinx Virtex-5 running a Verilog
//! implementation of two sliding windows × two ladder PE arrays. This crate
//! substitutes that hardware with a bit- and cycle-faithful simulator built
//! on the PE-T and PE-V datapaths (Figs. 6–7) of `chambolle-fixed`
//! ([`chambolle_fixed::datapath`]):
//!
//! - [`bram`] — dual-port synchronous block RAM with port-discipline checks;
//! - [`array`](mod@array) — the systolic ladder of 7 PE-Ts + 7 PE-Vs with the
//!   operand-reuse network, BRAM interleave and BRAM-Term bridge (Figs. 4–5);
//! - [`accel`] — the two-sliding-window top level and frame scheduler
//!   (Fig. 2), usable as a TV-L1 backend via [`AccelDenoiser`];
//! - [`reference`](mod@reference) — the structure-free fixed-point model the
//!   simulator is tested bit-exact against: the packed-word face of
//!   [`chambolle_fixed::fixed_denoise`];
//! - [`fault`] — deterministic fault injection (BRAM upsets, sqrt-LUT
//!   corruption, datapath glitches) and the guarded frame scheduler
//!   ([`ChambolleAccel::denoise_pair_guarded`]) that detects and recovers
//!   from them;
//! - [`timing`] — the closed-form cycle model behind Table II;
//! - [`resources`] — the area model behind Table I.
//!
//! # Examples
//!
//! Denoise a small frame on the simulated accelerator and read the frame
//! rate the hardware would achieve at 221 MHz:
//!
//! ```
//! use chambolle_core::ChambolleParams;
//! use chambolle_hwsim::{AccelConfig, ChambolleAccel};
//! use chambolle_imaging::Grid;
//!
//! let v = Grid::from_fn(100, 90, |x, y| ((x + y) % 7) as f32 / 7.0);
//! let mut accel = ChambolleAccel::new(AccelConfig::default());
//! let params = ChambolleParams::with_iterations(10);
//! let (u, _, stats) = accel.denoise_pair(&v, None, &params)?;
//! assert_eq!(u.dims(), (100, 90));
//! assert!(stats.fps() > 0.0);
//! # Ok::<(), chambolle_hwsim::HwParamsError>(())
//! ```

#![warn(missing_docs)]

pub mod accel;
pub mod array;
pub mod bram;
pub mod control;
pub mod fault;
mod params;
pub mod reference;
pub mod resources;
pub mod thresholding;
pub mod timing;
pub mod trace;

pub use accel::{AccelConfig, AccelDenoiser, ChambolleAccel, FrameStats, SlidingWindow, SqrtKind};
pub use array::{ArrayConfig, ArrayStats, PeArray, WindowRun};
pub use control::{Command, ControlUnit, TimedCommand};
pub use fault::{
    check_dual_feasibility, region_checksum, state_checksum, AccelGuardConfig, FaultConfig,
    FaultEvent, FaultInjector, FaultKind, GuardedFrame, InvariantViolation,
};
pub use params::{HwParams, HwParamsError};
pub use reference::{
    dequantize, fixed_chambolle_reference, fixed_chambolle_reference_with, quantize_input,
    FixedSolution,
};
pub use resources::{DeviceCapacity, ResourceModel, ResourceUsage, Utilization};
pub use thresholding::{threshold_step_fixed, FixedThresholdUnit};
pub use timing::ThroughputModel;
