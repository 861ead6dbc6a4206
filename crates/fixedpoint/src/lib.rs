//! Fixed-point datapath of the DATE'11 Chambolle accelerator, and the one
//! fixed-point Algorithm 1 built on it.
//!
//! The FPGA design stores its working set as packed 32-bit BRAM words
//! (`v`: 13 bits, `px`/`py`: 9 bits each — Section V-B) and computes with a
//! Q24.8 datapath whose square root is a single 256-entry look-up table
//! (Section V-C). This crate reproduces those pieces exactly so that the
//! cycle simulator in `chambolle-hwsim` is bit-faithful:
//!
//! - [`Fixed`] — const-generic signed Q-format arithmetic with saturating
//!   adds and truncating multiplies/divides;
//! - [`PackedWord`] — the 32-bit `{v, px, py}` memory word;
//! - [`SqrtLut`] — the LUT square root with the odd-position alignment trick,
//!   plus [`sqrt_accuracy`] to reproduce the paper's "<1% error in >90% of
//!   samples" claim;
//! - [`datapath`] — the PE-T and PE-V datapaths (Figs. 6–7), the one
//!   definition of the fixed-point arithmetic of Algorithm 1;
//! - [`solver`] — [`fixed_denoise`], Algorithm 1 over whole frames through
//!   those datapaths: the structure-free oracle the cycle simulator is
//!   tested against.
//!
//! # Examples
//!
//! ```
//! use chambolle_fixed::{Fixed, SqrtLut};
//!
//! type Q8 = Fixed<8>;
//! let t1 = Q8::from_f32(0.3);
//! let t2 = Q8::from_f32(0.4);
//! let mag_sq = t1 * t1 + t2 * t2;
//! let lut = SqrtLut::new();
//! let mag = Q8::from_bits(lut.sqrt_q24_8(mag_sq.to_bits() as u32) as i32);
//! assert!((mag.to_f32() - 0.5).abs() < 0.01);
//! ```

#![warn(missing_docs)]

pub mod datapath;
mod q;
pub mod solver;
mod sqrt;
mod word;

pub use q::{Fixed, Q24_8};
pub use solver::{fixed_denoise, FixedFrame, FixedSolverParams};
pub use sqrt::{isqrt_u64, sqrt_accuracy, SqrtAccuracy, SqrtLut, SqrtUnit};
pub use word::{PackWordError, PackedWord, WordFixed, P_BITS, V_BITS, WORD_FRAC};
