//! The packed 32-bit BRAM word of the accelerator.
//!
//! Section V-B: *"32 bit blocks of data are stored in each address. The 32
//! bits encode `v`, which requires 13 bits, followed by `c_px` and `c_py`,
//! which require 9 bits each."* That totals 31 bits; the remaining LSB is a
//! spare and always stored as zero.
//!
//! Bit layout (MSB first): `[31:19] v`, `[18:10] px`, `[9:1] py`, `[0]`
//! spare. All three fields are two's-complement fixed-point values with 8
//! fractional bits:
//!
//! - `v`: Q4.8 signed, 13 bits → range `[-16, 16)`;
//! - `px`, `py`: Q0.8 signed, 9 bits → range `[-1, 1)` — the Chambolle dual
//!   variable is constrained to the unit ball, so 9 bits suffice.

use std::fmt;

use crate::q::Fixed;

/// Fraction bits shared by every field of the word.
pub const WORD_FRAC: u32 = 8;
/// Width of the `v` field in bits.
pub const V_BITS: u32 = 13;
/// Width of the `px`/`py` fields in bits.
pub const P_BITS: u32 = 9;

/// The Q-format used inside the packed word (8 fraction bits).
pub type WordFixed = Fixed<WORD_FRAC>;

/// A decoded BRAM word: the denoising target `v` and the dual vector
/// `(px, py)` of one matrix element.
///
/// # Examples
///
/// ```
/// use chambolle_fixed::{PackedWord, WordFixed};
///
/// let w = PackedWord::new(
///     WordFixed::from_f32(2.5),
///     WordFixed::from_f32(-0.25),
///     WordFixed::from_f32(0.75),
/// )?;
/// let bits = w.to_bits();
/// assert_eq!(PackedWord::from_bits(bits), w);
/// # Ok::<(), chambolle_fixed::PackWordError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PackedWord {
    v: WordFixed,
    px: WordFixed,
    py: WordFixed,
}

impl PackedWord {
    /// Builds a word from field values.
    ///
    /// # Errors
    ///
    /// Returns [`PackWordError`] if a field does not fit its bit width
    /// (`v` in 13 bits, `px`/`py` in 9 bits).
    pub fn new(v: WordFixed, px: WordFixed, py: WordFixed) -> Result<Self, PackWordError> {
        if !v.fits_in(V_BITS) {
            return Err(PackWordError {
                field: "v",
                value: v,
            });
        }
        if !px.fits_in(P_BITS) {
            return Err(PackWordError {
                field: "px",
                value: px,
            });
        }
        if !py.fits_in(P_BITS) {
            return Err(PackWordError {
                field: "py",
                value: py,
            });
        }
        Ok(PackedWord { v, px, py })
    }

    /// Builds a word, saturating each field into its bit width instead of
    /// failing — the behaviour of the RTL write path.
    pub fn new_saturating(v: WordFixed, px: WordFixed, py: WordFixed) -> Self {
        PackedWord {
            v: v.saturate_to(V_BITS),
            px: px.saturate_to(P_BITS),
            py: py.saturate_to(P_BITS),
        }
    }

    /// The word of one `f32` input sample with `p = 0`, the iteration's
    /// initial state: the sample rounds to Q24.8 and saturates into the
    /// 13-bit `v` field. The one quantization rule of every fixed-point
    /// solve.
    pub fn quantize(sample: f32) -> Self {
        PackedWord::new_saturating(
            WordFixed::from_f32(sample),
            WordFixed::ZERO,
            WordFixed::ZERO,
        )
    }

    /// Decodes a raw 32-bit memory word.
    pub fn from_bits(bits: u32) -> Self {
        let v = sign_extend(bits >> 19, V_BITS);
        let px = sign_extend((bits >> 10) & 0x1FF, P_BITS);
        let py = sign_extend((bits >> 1) & 0x1FF, P_BITS);
        PackedWord {
            v: WordFixed::from_bits(v),
            px: WordFixed::from_bits(px),
            py: WordFixed::from_bits(py),
        }
    }

    /// Encodes to the raw 32-bit memory word.
    pub fn to_bits(self) -> u32 {
        let v = (self.v.to_bits() as u32) & mask(V_BITS);
        let px = (self.px.to_bits() as u32) & mask(P_BITS);
        let py = (self.py.to_bits() as u32) & mask(P_BITS);
        (v << 19) | (px << 10) | (py << 1)
    }

    /// The `v` field (denoising target, Q4.8).
    pub fn v(&self) -> WordFixed {
        self.v
    }

    /// The `px` field (dual x-component, Q0.8).
    pub fn px(&self) -> WordFixed {
        self.px
    }

    /// The `py` field (dual y-component, Q0.8).
    pub fn py(&self) -> WordFixed {
        self.py
    }

    /// Copy of the word with the dual vector replaced (the PE-V writeback:
    /// `v` is read-only during Chambolle iterations, only `px`/`py` change).
    pub fn with_p(self, px: WordFixed, py: WordFixed) -> Self {
        PackedWord {
            v: self.v,
            px: px.saturate_to(P_BITS),
            py: py.saturate_to(P_BITS),
        }
    }
}

fn mask(bits: u32) -> u32 {
    (1u32 << bits) - 1
}

fn sign_extend(raw: u32, bits: u32) -> i32 {
    let shift = 32 - bits;
    ((raw << shift) as i32) >> shift
}

/// Error returned when a field value exceeds its packed bit width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackWordError {
    field: &'static str,
    value: WordFixed,
}

impl fmt::Display for PackWordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "field {} value {} does not fit its packed bit width",
            self.field, self.value
        )
    }
}

impl std::error::Error for PackWordError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(v: f32) -> WordFixed {
        WordFixed::from_f32(v)
    }

    #[test]
    fn roundtrip_simple() {
        let w = PackedWord::new(q(2.5), q(-0.25), q(0.75)).unwrap();
        let back = PackedWord::from_bits(w.to_bits());
        assert_eq!(back, w);
        assert_eq!(back.v().to_f32(), 2.5);
        assert_eq!(back.px().to_f32(), -0.25);
        assert_eq!(back.py().to_f32(), 0.75);
    }

    #[test]
    fn roundtrip_extremes() {
        // v: 13-bit signed -> [-4096, 4095] raw; px/py: [-256, 255].
        let w = PackedWord::new(
            WordFixed::from_bits(-4096),
            WordFixed::from_bits(255),
            WordFixed::from_bits(-256),
        )
        .unwrap();
        assert_eq!(PackedWord::from_bits(w.to_bits()), w);
    }

    #[test]
    fn roundtrip_exhaustive_px() {
        for raw in -256..=255 {
            let w = PackedWord::new(q(0.0), WordFixed::from_bits(raw), q(0.0)).unwrap();
            assert_eq!(PackedWord::from_bits(w.to_bits()).px().to_bits(), raw);
        }
    }

    #[test]
    fn out_of_range_rejected() {
        assert!(PackedWord::new(q(16.0), q(0.0), q(0.0)).is_err()); // v >= 16
        assert!(PackedWord::new(q(0.0), q(1.0), q(0.0)).is_err()); // px >= 1
        assert!(PackedWord::new(q(0.0), q(0.0), q(-1.5)).is_err());
        assert!(PackedWord::new(q(15.99), q(0.996), q(-1.0)).is_ok());
    }

    #[test]
    fn saturating_constructor_clamps() {
        let w = PackedWord::new_saturating(q(100.0), q(3.0), q(-3.0));
        assert_eq!(w.v().to_bits(), 4095);
        assert_eq!(w.px().to_bits(), 255);
        assert_eq!(w.py().to_bits(), -256);
    }

    #[test]
    fn spare_bit_is_zero() {
        let w = PackedWord::new(q(-1.0), q(0.5), q(-0.5)).unwrap();
        assert_eq!(w.to_bits() & 1, 0);
    }

    #[test]
    fn with_p_keeps_v() {
        let w = PackedWord::new(q(3.0), q(0.1), q(0.1)).unwrap();
        let w2 = w.with_p(q(-0.5), q(0.25));
        assert_eq!(w2.v(), w.v());
        assert_eq!(w2.px().to_f32(), -0.5);
        assert_eq!(w2.py().to_f32(), 0.25);
    }

    #[test]
    fn field_packing_is_disjoint() {
        // Flipping one field must not disturb the others.
        let base = PackedWord::new(q(1.0), q(0.5), q(-0.5)).unwrap();
        let only_v = PackedWord::new(q(2.0), q(0.5), q(-0.5)).unwrap();
        let xor = base.to_bits() ^ only_v.to_bits();
        assert_eq!(xor & ((1 << 19) - 1), 0, "v change leaked below bit 19");
    }
}
