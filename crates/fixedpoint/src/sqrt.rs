//! The 256-entry look-up-table square root of Section V-C.
//!
//! The PE-V needs `|∇u| = sqrt(Term1² + Term2²)`. The paper trades precision
//! for speed with a single 256-entry table (≈70 FPGA LUTs) plus an alignment
//! trick: the 8 most significant bits of the Q24.8 input are extracted so
//! that the block *starts at an odd bit position* (counting from the left,
//! 1-based) and therefore *ends at an even position*. The discarded low bits
//! then amount to an even power of two, `x ≈ m · 2^(2k)`, so
//! `sqrt(x) = sqrt(m) · 2^k` — one table access and one shift.
//!
//! Table entries hold `sqrt(m)` in Q4.4 (`round(16·√m)` fits 8 bits since
//! `16·√255 ≈ 255.5`), which makes the final Q24.8 result exactly
//! `table[m] << k` (or `>> −k` for small inputs).

/// LUT-based integer square root over Q24.8 fixed-point inputs.
///
/// # Examples
///
/// ```
/// use chambolle_fixed::SqrtLut;
///
/// let lut = SqrtLut::new();
/// // sqrt(4.0) = 2.0: input 4.0 in Q24.8 is 1024, output 2.0 is 512.
/// assert_eq!(lut.sqrt_q24_8(1024), 512);
/// ```
#[derive(Debug, Clone)]
pub struct SqrtLut {
    table: [u8; 256],
    /// Table accesses served so far ([`SqrtLut::lookups`]). Interior
    /// mutability keeps [`SqrtLut::sqrt_q24_8`] a `&self` method — the
    /// counter is observability state, not datapath state (`Cell` stays
    /// `Send`, which the tiled solver's worker threads rely on).
    lookups: std::cell::Cell<u64>,
}

impl SqrtLut {
    /// Number of entries in the table (8-bit index).
    pub const ENTRIES: usize = 256;
    /// Approximate FPGA LUT cost reported by the paper for one instance.
    pub const FPGA_LUTS: usize = 70;

    /// Builds the table: `table[m] = round(16 · sqrt(m))`.
    pub fn new() -> Self {
        let mut table = [0u8; 256];
        for (m, slot) in table.iter_mut().enumerate() {
            let v = (16.0 * (m as f64).sqrt()).round();
            debug_assert!(v <= 255.0);
            *slot = v as u8;
        }
        SqrtLut {
            table,
            lookups: std::cell::Cell::new(0),
        }
    }

    /// Number of table accesses [`SqrtLut::sqrt_q24_8`] has served (the
    /// `x == 0` early-out never reads the table and is not counted).
    pub fn lookups(&self) -> u64 {
        self.lookups.get()
    }

    /// Resets the access counter (e.g. between measured frames).
    pub fn reset_lookups(&self) {
        self.lookups.set(0);
    }

    /// Raw table entry `round(16·sqrt(m))` for an 8-bit index.
    pub fn entry(&self, m: u8) -> u8 {
        self.table[m as usize]
    }

    /// Approximate square root of a Q24.8 value, returned in Q24.8.
    ///
    /// Implements the alignment scheme of Section V-C: take the 8-bit block
    /// whose first bit is at an odd position from the left; if the input's
    /// leading one is at an even position, the block starts one bit earlier
    /// (at a zero bit). Inputs smaller than 8 significant bits are used
    /// exactly (shifted *into* the table index).
    pub fn sqrt_q24_8(&self, x: u32) -> u32 {
        if x == 0 {
            return 0;
        }
        // 1-based position of the leading one, counted from the left (MSB=1).
        let msb_pos = x.leading_zeros() + 1;
        // Start of the 8-bit block: odd position (== msb_pos or one earlier).
        let start = if msb_pos % 2 == 1 {
            msb_pos
        } else {
            msb_pos - 1
        };
        // Right-shift that brings the block into bits [7:0]. The block ends
        // at left-position start+7, i.e. at LSB index 32-(start+7) = 25-start.
        let shift = 25i32 - start as i32;
        debug_assert!(shift % 2 == 0, "block must end at an even LSB index");
        let k = shift / 2;
        self.lookups.set(self.lookups.get() + 1);
        if shift >= 0 {
            let m = (x >> shift) as usize & 0xFF;
            (self.table[m] as u32) << k
        } else {
            // Fewer than 8 significant bits: scale up into the table, then
            // scale the result back down.
            let m = (x << (-shift)) as usize & 0xFF;
            (self.table[m] as u32) >> (-k)
        }
    }

    /// Relative error of the LUT result against the exact square root, for a
    /// nonzero input.
    pub fn relative_error(&self, x: u32) -> f64 {
        if x == 0 {
            return 0.0;
        }
        let exact = (x as f64).sqrt() * 16.0;
        let got = self.sqrt_q24_8(x) as f64;
        (got - exact).abs() / exact
    }

    /// FNV-1a checksum of the table contents — the integrity word a
    /// BRAM-scrubbing controller would keep beside the ROM.
    pub fn checksum(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in &self.table {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    /// Checksum of a pristine table. The table contents are fixed by the
    /// generator, so this is a compile-independent golden reference.
    pub fn golden_checksum() -> u64 {
        SqrtLut::new().checksum()
    }

    /// True when the table matches the golden checksum.
    pub fn is_intact(&self) -> bool {
        self.checksum() == Self::golden_checksum()
    }

    /// Fault-injection backdoor: XORs `xor` into entry `index`, modelling an
    /// upset in the ROM's backing BRAM. A zero `xor` is a no-op.
    pub fn corrupt_entry(&mut self, index: u8, xor: u8) {
        self.table[index as usize] ^= xor;
    }

    /// Rebuilds the table from the generator, returning `true` when any
    /// entry actually changed (i.e. the table had been corrupted).
    pub fn repair(&mut self) -> bool {
        let fresh = SqrtLut::new();
        let changed = self.table != fresh.table;
        self.table = fresh.table;
        changed
    }
}

impl Default for SqrtLut {
    fn default() -> Self {
        SqrtLut::new()
    }
}

/// Floor integer square root of a `u64`, computed with the classic
/// bit-pair (non-restoring style) method — the hardware-friendly iterative
/// alternative of the paper's reference \[17\] (Sajid et al., "Pipelined
/// implementation of fixed point square root in FPGA using modified
/// non-restoring algorithm").
///
/// One result bit is resolved per iteration; a Q24.8 datapath needs 20
/// stages (40-bit radicand), which is why the paper prefers the 1-cycle LUT.
///
/// # Examples
///
/// ```
/// use chambolle_fixed::isqrt_u64;
/// assert_eq!(isqrt_u64(0), 0);
/// assert_eq!(isqrt_u64(15), 3);
/// assert_eq!(isqrt_u64(16), 4);
/// assert_eq!(isqrt_u64(u64::MAX), (1 << 32) - 1);
/// ```
pub fn isqrt_u64(v: u64) -> u64 {
    if v == 0 {
        return 0;
    }
    let mut rem = v;
    let mut root = 0u64;
    // Highest power of four <= v.
    let mut bit = 1u64 << ((63 - v.leading_zeros()) & !1);
    while bit != 0 {
        if rem >= root + bit {
            rem -= root + bit;
            root = (root >> 1) + bit;
        } else {
            root >>= 1;
        }
        bit >>= 2;
    }
    root
}

/// A pluggable square-root implementation for the PE-V datapath: the paper's
/// LUT design or the iterative non-restoring alternative it weighs against
/// it in Section V-C ("iterative techniques, which achieve better
/// precisions, and look-up tables, which are faster").
#[derive(Debug, Clone)]
pub enum SqrtUnit {
    /// The 256-entry LUT with odd-position alignment (1-cycle, ≈70 LUTs,
    /// <1% error in >90% of samples).
    Lut(Box<SqrtLut>),
    /// Bit-pair non-restoring square root (exact to the LSB, but 20
    /// pipeline stages for a Q24.8 radicand and substantially more fabric).
    NonRestoring,
}

impl SqrtUnit {
    /// The paper's LUT unit.
    pub fn lut() -> Self {
        SqrtUnit::Lut(Box::default())
    }

    /// The iterative non-restoring unit.
    pub fn non_restoring() -> Self {
        SqrtUnit::NonRestoring
    }

    /// Square root of a Q24.8 value, in Q24.8.
    pub fn sqrt_q24_8(&self, x: u32) -> u32 {
        match self {
            SqrtUnit::Lut(lut) => lut.sqrt_q24_8(x),
            // sqrt(x / 256) in Q24.8 is floor(sqrt(x << 8)).
            SqrtUnit::NonRestoring => isqrt_u64((x as u64) << 8) as u32,
        }
    }

    /// Pipeline latency of the unit in clock cycles (one result bit per
    /// stage for the iterative unit).
    pub fn latency_cycles(&self) -> u32 {
        match self {
            SqrtUnit::Lut(_) => 1,
            SqrtUnit::NonRestoring => 20,
        }
    }

    /// A short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            SqrtUnit::Lut(_) => "lut",
            SqrtUnit::NonRestoring => "non-restoring",
        }
    }

    /// Fault-injection backdoor: corrupts one LUT entry. Returns `true` when
    /// the unit has a table to corrupt (the non-restoring unit is pure
    /// combinational logic and has no state to upset).
    pub fn corrupt_lut_entry(&mut self, index: u8, xor: u8) -> bool {
        match self {
            SqrtUnit::Lut(lut) => {
                lut.corrupt_entry(index, xor);
                true
            }
            SqrtUnit::NonRestoring => false,
        }
    }

    /// True when the unit's state matches its golden reference (trivially
    /// true for the stateless non-restoring unit).
    pub fn lut_intact(&self) -> bool {
        match self {
            SqrtUnit::Lut(lut) => lut.is_intact(),
            SqrtUnit::NonRestoring => true,
        }
    }

    /// Restores the unit's state from the golden generator; returns `true`
    /// when a repair actually changed anything.
    pub fn repair_lut(&mut self) -> bool {
        match self {
            SqrtUnit::Lut(lut) => lut.repair(),
            SqrtUnit::NonRestoring => false,
        }
    }

    /// Table accesses the unit has served ([`SqrtLut::lookups`]); always 0
    /// for the table-free non-restoring unit.
    pub fn lut_lookups(&self) -> u64 {
        match self {
            SqrtUnit::Lut(lut) => lut.lookups(),
            SqrtUnit::NonRestoring => 0,
        }
    }
}

impl Default for SqrtUnit {
    fn default() -> Self {
        SqrtUnit::lut()
    }
}

/// Accuracy statistics of the LUT square root over a set of samples — the
/// paper claims an error "below 1% in more than 90% of the samples".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SqrtAccuracy {
    /// Number of (nonzero) samples evaluated.
    pub samples: usize,
    /// Fraction of samples with relative error below 1%.
    pub fraction_below_1pct: f64,
    /// Largest observed relative error.
    pub max_relative_error: f64,
    /// Mean relative error.
    pub mean_relative_error: f64,
}

/// Evaluates [`SqrtAccuracy`] over an iterator of Q24.8 samples (zeros are
/// skipped, as the paper's percentage is over meaningful magnitudes).
pub fn sqrt_accuracy(lut: &SqrtLut, samples: impl IntoIterator<Item = u32>) -> SqrtAccuracy {
    let mut n = 0usize;
    let mut below = 0usize;
    let mut max_err = 0.0f64;
    let mut sum_err = 0.0f64;
    for x in samples {
        if x == 0 {
            continue;
        }
        let e = lut.relative_error(x);
        n += 1;
        if e < 0.01 {
            below += 1;
        }
        max_err = max_err.max(e);
        sum_err += e;
    }
    SqrtAccuracy {
        samples: n,
        fraction_below_1pct: if n == 0 { 1.0 } else { below as f64 / n as f64 },
        max_relative_error: max_err,
        mean_relative_error: if n == 0 { 0.0 } else { sum_err / n as f64 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_maps_to_zero() {
        assert_eq!(SqrtLut::new().sqrt_q24_8(0), 0);
    }

    #[test]
    fn lookup_counter_tracks_table_accesses() {
        let lut = SqrtLut::new();
        assert_eq!(lut.lookups(), 0);
        lut.sqrt_q24_8(0); // early-out, no table access
        assert_eq!(lut.lookups(), 0);
        lut.sqrt_q24_8(1024);
        lut.sqrt_q24_8(7);
        assert_eq!(lut.lookups(), 2);
        lut.reset_lookups();
        assert_eq!(lut.lookups(), 0);

        let unit = SqrtUnit::lut();
        unit.sqrt_q24_8(1024);
        assert_eq!(unit.lut_lookups(), 1);
        let nr = SqrtUnit::non_restoring();
        nr.sqrt_q24_8(1024);
        assert_eq!(nr.lut_lookups(), 0, "no table behind the iterative unit");
    }

    #[test]
    fn exact_on_even_powers_of_two() {
        let lut = SqrtLut::new();
        for k in 0..12 {
            let x = 1u32 << (2 * k);
            let expect = 16u32 << k; // sqrt(2^2k)*16
            assert_eq!(lut.sqrt_q24_8(x), expect, "x = 2^{}", 2 * k);
        }
    }

    #[test]
    fn exact_on_small_inputs_times_even_powers() {
        let lut = SqrtLut::new();
        // For x = m * 2^(2k) with m < 256 and the leading-one alignment
        // matching, the result is exactly table[m] << k.
        assert_eq!(lut.sqrt_q24_8(1024), 512); // 4.0 -> 2.0
        assert_eq!(lut.sqrt_q24_8(256 * 256), 256 * 16); // 256.0 -> 16.0
        assert_eq!(lut.sqrt_q24_8(9 << 8), 768); // 9.0 -> 3.0 (raw 768)
    }

    #[test]
    fn table_entries_are_q4_4_sqrt() {
        let lut = SqrtLut::new();
        assert_eq!(lut.entry(0), 0);
        assert_eq!(lut.entry(1), 16);
        assert_eq!(lut.entry(4), 32);
        assert_eq!(lut.entry(255), 255); // round(16*15.968) = 255
    }

    #[test]
    fn small_inputs_scale_up_into_table() {
        let lut = SqrtLut::new();
        // x = 1 (Q24.8 value 1/256): sqrt = 1/16 -> Q24.8 raw 16.
        assert_eq!(lut.sqrt_q24_8(1), 16);
        // x = 4: sqrt(4/256) = 2/16 -> raw 32.
        assert_eq!(lut.sqrt_q24_8(4), 32);
    }

    #[test]
    fn error_bounded_everywhere_above_noise_floor() {
        let lut = SqrtLut::new();
        // Exhaustive sweep over 17 bits: relative error stays below 4%
        // (quantizing to >= 6 significant bits of mantissa).
        for x in 1u32..(1 << 17) {
            let e = lut.relative_error(x);
            assert!(e < 0.04, "x={x} err={e}");
        }
    }

    #[test]
    fn paper_accuracy_claim_holds_on_uniform_samples() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let lut = SqrtLut::new();
        let mut rng = StdRng::seed_from_u64(2011);
        let samples = (0..100_000).map(|_| rng.gen_range(1u32..1 << 24));
        let acc = sqrt_accuracy(&lut, samples);
        assert!(
            acc.fraction_below_1pct > 0.90,
            "paper claims >90% below 1%, got {}",
            acc.fraction_below_1pct
        );
        assert!(acc.max_relative_error < 0.05);
    }

    #[test]
    fn monotone_on_coarse_scale() {
        let lut = SqrtLut::new();
        let mut prev = 0;
        for i in 0..1000 {
            let x = i * 4097;
            let s = lut.sqrt_q24_8(x);
            assert!(s + 2 >= prev, "sqrt should be (near-)monotone"); // allow 1-LSB ripple
            prev = s;
        }
    }

    #[test]
    fn accuracy_stats_fields_consistent() {
        let lut = SqrtLut::new();
        let acc = sqrt_accuracy(&lut, [0u32, 1024, 1 << 20]);
        assert_eq!(acc.samples, 2); // zero skipped
        assert!(acc.mean_relative_error <= acc.max_relative_error);
    }

    #[test]
    fn isqrt_matches_float_on_small_values() {
        for v in 0u64..10_000 {
            assert_eq!(isqrt_u64(v), (v as f64).sqrt().floor() as u64, "v={v}");
        }
    }

    #[test]
    fn isqrt_is_floor_sqrt_at_boundaries() {
        for r in [1u64, 255, 256, 65535, 1 << 20, (1 << 32) - 1] {
            assert_eq!(isqrt_u64(r * r), r);
            assert_eq!(isqrt_u64(r * r + 1), r);
            if r > 1 {
                assert_eq!(isqrt_u64(r * r - 1), r - 1);
            }
        }
        assert_eq!(isqrt_u64(u64::MAX), (1u64 << 32) - 1);
    }

    #[test]
    fn non_restoring_unit_is_exact_to_one_lsb() {
        let unit = SqrtUnit::non_restoring();
        for x in (1u32..1 << 20).step_by(97) {
            let exact = (x as f64 * 256.0).sqrt();
            let got = unit.sqrt_q24_8(x) as f64;
            assert!((got - exact).abs() <= 1.0, "x={x}: {got} vs {exact}");
        }
    }

    #[test]
    fn unit_dispatch_and_metadata() {
        let lut = SqrtUnit::lut();
        let nr = SqrtUnit::non_restoring();
        assert_eq!(lut.latency_cycles(), 1);
        assert_eq!(nr.latency_cycles(), 20);
        assert_eq!(lut.name(), "lut");
        assert_eq!(nr.name(), "non-restoring");
        assert_eq!(lut.sqrt_q24_8(1024), 512);
        assert_eq!(nr.sqrt_q24_8(1024), 512);
        assert_eq!(SqrtUnit::default().name(), "lut");
    }

    #[test]
    fn checksum_detects_any_single_entry_corruption() {
        let golden = SqrtLut::golden_checksum();
        assert!(SqrtLut::new().is_intact());
        for index in [0u8, 1, 77, 255] {
            for xor in [1u8, 0x80, 0xFF] {
                let mut lut = SqrtLut::new();
                lut.corrupt_entry(index, xor);
                assert_ne!(lut.checksum(), golden, "index={index} xor={xor}");
                assert!(!lut.is_intact());
                assert!(lut.repair());
                assert!(lut.is_intact());
                assert!(!lut.repair(), "second repair must be a no-op");
            }
        }
    }

    #[test]
    fn corrupted_lut_changes_results() {
        let mut lut = SqrtLut::new();
        // Input 1024 aligns to the 8-bit block 1024 >> 4 = 64, so entry 64
        // serves sqrt(4.0): table[64] << 2 = 128 << 2 = 512.
        lut.corrupt_entry(64, 0xFF);
        assert_ne!(lut.sqrt_q24_8(1024), 512);
    }

    #[test]
    fn unit_integrity_dispatch() {
        let mut lut = SqrtUnit::lut();
        assert!(lut.lut_intact());
        assert!(lut.corrupt_lut_entry(9, 0x10));
        assert!(!lut.lut_intact());
        assert!(lut.repair_lut());
        assert!(lut.lut_intact());

        let mut nr = SqrtUnit::non_restoring();
        assert!(!nr.corrupt_lut_entry(9, 0x10), "no table to corrupt");
        assert!(nr.lut_intact());
        assert!(!nr.repair_lut());
    }

    #[test]
    fn non_restoring_beats_lut_accuracy_everywhere() {
        let lut = SqrtUnit::lut();
        let nr = SqrtUnit::non_restoring();
        let mut lut_worse = 0u32;
        for x in (1u32..1 << 18).step_by(131) {
            let exact = (x as f64 * 256.0).sqrt();
            let e_lut = (lut.sqrt_q24_8(x) as f64 - exact).abs();
            let e_nr = (nr.sqrt_q24_8(x) as f64 - exact).abs();
            assert!(e_nr <= e_lut + 1.0, "x={x}");
            if e_lut > e_nr {
                lut_worse += 1;
            }
        }
        assert!(lut_worse > 100, "iterative should usually be more precise");
    }
}
