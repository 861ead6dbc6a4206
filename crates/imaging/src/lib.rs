//! Image substrate for the Chambolle / TV-L1 reproduction.
//!
//! This crate provides everything the solver stack needs that is *about
//! images* rather than about the algorithm itself:
//!
//! - [`Grid`] — the dense row-major 2-D container shared by all crates;
//! - sampling, warping ([`warp_backward`], [`WarpLinearization`]) and
//!   gradients ([`gradient_central`]); the pooled blur and gradient
//!   variants additionally dispatch their row loops on a
//!   [`chambolle_par::KernelBackend`], bit-identical at every level;
//! - Gaussian [`Pyramid`]s for the coarse-to-fine outer loop;
//! - [`FlowField`] plus error metrics and Middlebury colorization;
//! - synthetic scenes with analytic ground truth ([`synthetic`]), including
//!   the rolling-shutter capture model the paper's introduction motivates;
//! - binary PGM/PPM I/O ([`io`]).
//!
//! # Examples
//!
//! Render a moving synthetic scene and measure how far a zero-flow guess is
//! from the truth:
//!
//! ```
//! use chambolle_imaging::{
//!     average_endpoint_error, render_pair, FlowField, Motion, NoiseTexture,
//! };
//!
//! let scene = NoiseTexture::new(42);
//! let pair = render_pair(&scene, 64, 48, Motion::Translation { du: 2.0, dv: 0.0 });
//! let zero = FlowField::zeros(64, 48);
//! assert!((average_endpoint_error(&zero, &pair.truth) - 2.0).abs() < 1e-6);
//! ```

#![warn(missing_docs)]

mod filter;
mod flow;
mod grid;
mod image;
pub mod io;
mod pyramid;
mod simd;
pub mod synthetic;
mod warp;

pub use filter::median3x3;
pub use flow::{
    average_angular_error, average_endpoint_error, colorize_flow, ColorWheel, FlowField, RgbImage,
};
pub use grid::{Grid, GridShapeError};
pub use image::{
    gradient_central, gradient_central_with_pool, min_max, mse, normalize, psnr, sample_bilinear,
    sample_clamped, ssim, Image,
};
pub use io::{
    read_flo, read_flo_from, read_pgm, read_pgm_from, read_ppm, read_ppm_from, write_flo,
    write_pgm, write_ppm, PnmError,
};
pub use pyramid::{
    blur_binomial5, blur_binomial5_with_pool, downsample_half, resize_bilinear,
    resize_bilinear_with_pool, upsample_flow_component, Pyramid,
};
pub use synthetic::{
    global_shutter_frame, render_pair, render_sequence, rolling_shutter_frame, DiskScene,
    FramePair, Motion, NoiseTexture, Scene, SineBoard,
};
pub use warp::{warp_backward, warp_backward_with_pool, WarpLinearization};
