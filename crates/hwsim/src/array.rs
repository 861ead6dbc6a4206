//! Cycle-stepped simulation of one PE array (Figures 4 and 5): the ladder of
//! 7 PE-Ts and 7 PE-Vs that processes one component (`u1` or `u2`) of one
//! sliding window, together with its 8 data BRAMs and its BRAM-Term.
//!
//! # Schedule
//!
//! The array is a diagonal systolic wavefront. With `s` the step counter of
//! one region pass over rows `r0 .. r0+nr-1`:
//!
//! - **PE-T_i** processes `(row r0+i, col c)` at step `s = c + 1 + i` (the
//!   `+1` is the synchronous BRAM read issued one step earlier; the diagonal
//!   `+i` is the stagger visible in Figure 4). Its `l_px` comes from its own
//!   previous-step word, its `a_py` from the row above's previous-step word
//!   (the flip-flop reuse network of Figure 5); only the top row reads
//!   `a_py` from the eighth BRAM.
//! - **PE-V_i** (`i ≥ 1`) processes `(row r0+i-1, col c)` at the same step
//!   `c + 1 + i`: `c_Term` is the one-step-old output of PE-T_{i-1},
//!   `r_Term` its current output, `b_Term` the current output of PE-T_i —
//!   no BRAM access at all, exactly the paper's reuse claim.
//! - **PE-V_0** processes `(row r0-1, col c)` at step `c + 2`, reading the
//!   previous region's `Term` row from the BRAM-Term (one read per step; the
//!   second operand comes from a holding register).
//! - A **flush pass** updates the frame's last row, whose `Term2` is gated
//!   to zero, from the BRAM-Term.
//!
//! Every BRAM sees at most one access per port per cycle (asserted by
//! [`crate::bram::Bram`]); the eight data reads per step supply exactly the
//! 15 operand vectors of Section V-B (14 from seven `{v,px,py}` words plus
//! one `a_py`), versus 28 without reuse.

use chambolle_fixed::datapath::{pe_t, pe_v, PeTInputs, PeTOutputs, PeVInputs};
use chambolle_fixed::{PackedWord, SqrtUnit, WordFixed};
use chambolle_imaging::Grid;

use crate::bram::{Bram, Port};
use crate::params::HwParams;

/// Rows processed concurrently by one region pass in the paper's design
/// (7 PE-Ts — Section IV). The ladder depth is bounded by the BRAM
/// interleave: a region of `n` rows also reads the row above, so
/// `n + 1 <= 8` distinct `mod 8` banks requires `n <= 7`.
pub const ROWS_PER_REGION: usize = 7;
/// Data BRAMs per array: rows interleave `row mod 8` (Section V-B).
pub const DATA_BRAMS: usize = 8;
/// Pipeline fill per pass with the 1-cycle LUT square root: 1 control +
/// 1 BRAM read + 1 vertical rotator + 15 PE stages (the paper's 18-cycle
/// element latency, Section IV). A deeper square-root unit lengthens the PE
/// pipeline and thus the fill — see [`pass_fill_cycles`].
pub const PASS_FILL_CYCLES: u64 = 18;

/// Pipeline fill per pass for a given square-root latency: the LUT occupies
/// one of the 15 PE stages, so the fill is `17 + sqrt_latency`.
pub const fn pass_fill_cycles(sqrt_latency: u32) -> u64 {
    17 + sqrt_latency as u64
}

/// Geometry limits of one array (defaults are the paper's 92×88 window).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayConfig {
    /// Maximum window width = BRAM row stride (92 in the paper).
    pub stride: usize,
    /// Maximum window height (88 in the paper; must be a multiple of 8 for
    /// the BRAM interleave).
    pub max_rows: usize,
    /// PE-T/PE-V pairs in the ladder = rows per region pass (7 in the
    /// paper; at most [`ROWS_PER_REGION`] because of the 8-bank interleave).
    pub rows_per_region: usize,
}

impl ArrayConfig {
    /// The paper's geometry: 92-column stride, 88 rows, 1012 addresses per
    /// BRAM, 7-PE ladder.
    pub fn paper() -> Self {
        ArrayConfig {
            stride: 92,
            max_rows: 88,
            rows_per_region: ROWS_PER_REGION,
        }
    }

    /// The paper's geometry with a different ladder depth (1..=7) — the
    /// PE-count scaling ablation.
    ///
    /// # Panics
    ///
    /// Panics if `rows_per_region` is 0 or exceeds [`ROWS_PER_REGION`].
    pub fn paper_with_ladder(rows_per_region: usize) -> Self {
        assert!(
            (1..=ROWS_PER_REGION).contains(&rows_per_region),
            "ladder depth must be 1..={ROWS_PER_REGION}, got {rows_per_region}"
        );
        ArrayConfig {
            rows_per_region,
            ..ArrayConfig::paper()
        }
    }

    /// Words each data BRAM must hold (`(max_rows/8) * stride`; 1012 for the
    /// paper geometry).
    pub fn bram_capacity(&self) -> usize {
        self.max_rows.div_ceil(DATA_BRAMS) * self.stride
    }
}

impl Default for ArrayConfig {
    fn default() -> Self {
        ArrayConfig::paper()
    }
}

/// Statistics of one window run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArrayStats {
    /// Total cycles, including per-pass pipeline fill.
    pub cycles: u64,
    /// Region passes executed (including flush and u-sweep passes).
    pub passes: u64,
    /// Words read from the data BRAMs.
    pub data_reads: u64,
    /// Words written to the data BRAMs.
    pub data_writes: u64,
    /// BRAM-Term reads.
    pub term_reads: u64,
    /// BRAM-Term writes.
    pub term_writes: u64,
    /// PE-T evaluations.
    pub pe_t_ops: u64,
    /// PE-V evaluations.
    pub pe_v_ops: u64,
}

impl ArrayStats {
    /// Operand vectors fetched from BRAM per PE-T evaluation battery, the
    /// quantity of Section V-B: 15/7 with reuse versus 4 per PE-T (28/7)
    /// without.
    pub fn operand_vectors_per_element(&self) -> f64 {
        if self.pe_t_ops == 0 {
            return 0.0;
        }
        // Each of the 7 row words carries 2 reused vectors (c_px, c_py); the
        // extra eighth read carries 1 (a_py): 15 vectors per 7 elements.
        (2.0 * self.data_reads as f64 - self.aux_reads() as f64) / self.pe_t_ops as f64
    }

    fn aux_reads(&self) -> u64 {
        // Every eighth read is the single-vector a_py word; recover it from
        // the 8-reads-per-7-elements ratio.
        self.data_reads.saturating_sub(self.pe_t_ops)
    }
}

/// Result of running one window on one array.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowRun {
    /// Final packed state (the updated dual field, `v` unchanged).
    pub words: Grid<PackedWord>,
    /// Primal output `u` (from the final u-sweep).
    pub u: Grid<WordFixed>,
    /// Cycle and access statistics.
    pub stats: ArrayStats,
}

/// One PE array with its BRAMs and reuse registers.
#[derive(Debug, Clone)]
pub struct PeArray {
    config: ArrayConfig,
    sqrt: SqrtUnit,
    fill_cycles: u64,
    data: Vec<Bram>,
    bram_term: Bram,
    stats: ArrayStats,
}

/// Per-row register file of the reuse network (one step of history).
#[derive(Debug, Clone, Copy, Default)]
struct RowRegs {
    valid: bool,
    col: usize,
    word: PackedWord,
    term: WordFixed,
    u: WordFixed,
}

/// What a pass computes: normal Chambolle iterations update `p`; the final
/// u-sweep runs the PE-Ts only and records `u`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PassKind {
    Iterate,
    USweep,
}

impl PeArray {
    /// Creates an array for the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `stride == 0` or `max_rows` is not a positive multiple of 8.
    pub fn new(config: ArrayConfig) -> Self {
        PeArray::with_sqrt(config, SqrtUnit::lut())
    }

    /// Creates an array with an explicit square-root unit (the Section V-C
    /// design-choice ablation).
    ///
    /// # Panics
    ///
    /// Panics if `stride == 0` or `max_rows` is not a positive multiple of 8.
    pub fn with_sqrt(config: ArrayConfig, sqrt: SqrtUnit) -> Self {
        assert!(config.stride > 0, "stride must be positive");
        assert!(
            config.max_rows > 0 && config.max_rows.is_multiple_of(DATA_BRAMS),
            "max_rows must be a positive multiple of {DATA_BRAMS}"
        );
        assert!(
            (1..=ROWS_PER_REGION).contains(&config.rows_per_region),
            "ladder depth must be 1..={ROWS_PER_REGION}, got {}",
            config.rows_per_region
        );
        let cap = config.bram_capacity();
        let data = (0..DATA_BRAMS)
            .map(|i| Bram::new(format!("data{i}"), cap))
            .collect();
        // Ping-pong Term buffer: two rows of `stride` words.
        let bram_term = Bram::new("term", 2 * config.stride);
        PeArray {
            config,
            fill_cycles: pass_fill_cycles(sqrt.latency_cycles()),
            sqrt,
            data,
            bram_term,
            stats: ArrayStats::default(),
        }
    }

    /// The geometry in use.
    pub fn config(&self) -> &ArrayConfig {
        &self.config
    }

    /// The PE-V square-root unit (for integrity inspection).
    pub fn sqrt_unit(&self) -> &SqrtUnit {
        &self.sqrt
    }

    /// Mutable access to the PE-V square-root unit — the fault-injection and
    /// scrubbing surface (corrupting or repairing a LUT does not change the
    /// unit's latency class, so the fill schedule stays valid).
    pub fn sqrt_unit_mut(&mut self) -> &mut SqrtUnit {
        &mut self.sqrt
    }

    /// Cumulative statistics across all windows processed so far.
    pub fn stats(&self) -> ArrayStats {
        self.stats
    }

    /// Aggregated per-port BRAM counters over the array's memories (the
    /// eight data BRAMs plus the BRAM-Term), cumulative since construction.
    pub fn bram_stats(&self) -> crate::bram::BramStats {
        let mut total = crate::bram::BramStats::default();
        for bram in &self.data {
            total.merge(&bram.stats());
        }
        total.merge(&self.bram_term.stats());
        total
    }

    /// Square-root table accesses the PE-V ladder has served, cumulative
    /// since construction (0 for the non-restoring unit).
    pub fn sqrt_lookups(&self) -> u64 {
        self.sqrt.lut_lookups()
    }

    /// Attaches an access recorder to every memory of this array for
    /// waveform dumps (see [`crate::trace`]).
    pub fn attach_recorder(&mut self, recorder: &crate::trace::SharedRecorder) {
        for bram in &mut self.data {
            bram.set_recorder(Some(recorder.clone()));
        }
        self.bram_term.set_recorder(Some(recorder.clone()));
    }

    fn addr(&self, row: usize, col: usize) -> usize {
        (row / DATA_BRAMS) * self.config.stride + col
    }

    /// Runs `params.iterations` Chambolle iterations plus the final u-sweep
    /// on one window.
    ///
    /// # Panics
    ///
    /// Panics if the window exceeds the configured geometry or is empty.
    pub fn process_window(&mut self, words: &Grid<PackedWord>, params: &HwParams) -> WindowRun {
        self.process_window_with(words, params, true)
    }

    /// Like [`PeArray::process_window`], but the final u-sweep is optional —
    /// the frame scheduler only sweeps `u` on the last round of a frame, so
    /// intermediate rounds must not pay its cycles. With `emit_u = false`
    /// the returned `u` grid is all zeros.
    ///
    /// # Panics
    ///
    /// Panics if the window exceeds the configured geometry or is empty.
    pub fn process_window_with(
        &mut self,
        words: &Grid<PackedWord>,
        params: &HwParams,
        emit_u: bool,
    ) -> WindowRun {
        let (w, h) = words.dims();
        assert!(w > 0 && h > 0, "window must be non-empty, got {w}x{h}");
        assert!(
            w <= self.config.stride && h <= self.config.max_rows,
            "window {w}x{h} exceeds array geometry {}x{}",
            self.config.stride,
            self.config.max_rows
        );
        let run_start = self.stats;

        // Initial loading "through the FPGA input pins" (Section IV) — a
        // backdoor, not a port access.
        for (x, y, word) in words.iter() {
            let addr = self.addr(y, x);
            self.data[y % DATA_BRAMS].poke(addr, word.to_bits());
        }

        let ladder = self.config.rows_per_region;
        let regions = h.div_ceil(ladder);
        let mut u_out = Grid::new(w, h, WordFixed::ZERO);

        for _ in 0..params.iterations {
            for r in 0..regions {
                let r0 = r * ladder;
                let nr = ladder.min(h - r0);
                self.region_pass(r0, nr, w, r % 2, params, PassKind::Iterate, &mut u_out);
            }
            self.flush_pass(w, h, (regions + 1) % 2, params);
        }

        // Final u-sweep: PE-T batteries only, recording u = v - theta*div p.
        if emit_u {
            for r in 0..regions {
                let r0 = r * ladder;
                let nr = ladder.min(h - r0);
                self.region_pass(r0, nr, w, r % 2, params, PassKind::USweep, &mut u_out);
            }
        }

        // Read the final state back (backdoor).
        let out = Grid::from_fn(w, h, |x, y| {
            PackedWord::from_bits(self.data[y % DATA_BRAMS].peek(self.addr(y, x)))
        });

        let mut stats = self.stats;
        stats.cycles -= run_start.cycles;
        stats.passes -= run_start.passes;
        stats.data_reads -= run_start.data_reads;
        stats.data_writes -= run_start.data_writes;
        stats.term_reads -= run_start.term_reads;
        stats.term_writes -= run_start.term_writes;
        stats.pe_t_ops -= run_start.pe_t_ops;
        stats.pe_v_ops -= run_start.pe_v_ops;

        WindowRun {
            words: out,
            u: u_out,
            stats,
        }
    }

    /// One region pass: PE-Ts over rows `r0..r0+nr-1`, PE-Vs over rows
    /// `r0-1..r0+nr-2` (unless u-sweeping).
    #[allow(clippy::too_many_arguments)]
    fn region_pass(
        &mut self,
        r0: usize,
        nr: usize,
        w: usize,
        parity: usize,
        params: &HwParams,
        kind: PassKind,
        u_out: &mut Grid<WordFixed>,
    ) {
        let has_aux = r0 > 0; // the row above the region (a_py / PE-V_0 data)
        let pe_v_active = kind == PassKind::Iterate;
        let stride = self.config.stride;

        let mut prev: [RowRegs; ROWS_PER_REGION] = Default::default();
        let mut cur: [RowRegs; ROWS_PER_REGION] = Default::default();
        // One-step-old aux word (row r0-1) and BRAM-Term data for PE-V_0.
        let mut aux_prev: Option<(usize, PackedWord)> = None;
        let mut bterm_prev: Option<WordFixed> = None;

        // Last step with work: PE-V_{nr-1} finishes column w-1 at w + nr;
        // see the schedule in the module docs.
        let total_steps = w + nr + 1;
        for s in 0..total_steps {
            // 1. Capture data latched by reads issued at step s-1.
            for regs in cur.iter_mut() {
                regs.valid = false;
            }
            for (i, regs) in cur.iter_mut().enumerate().take(nr) {
                let col = (s as i64) - 1 - i as i64;
                if (0..w as i64).contains(&col) {
                    let word = self.data[(r0 + i) % DATA_BRAMS]
                        .data_out(Port::One)
                        .expect("read was issued one step earlier");
                    *regs = RowRegs {
                        valid: true,
                        col: col as usize,
                        word: PackedWord::from_bits(word),
                        term: WordFixed::ZERO,
                        u: WordFixed::ZERO,
                    };
                }
            }
            let mut aux_cur: Option<(usize, PackedWord)> = None;
            if has_aux {
                let col = (s as i64) - 1;
                if (0..w as i64).contains(&col) {
                    let word = self.data[(r0 - 1) % DATA_BRAMS]
                        .data_out(Port::One)
                        .expect("aux read was issued one step earlier");
                    aux_cur = Some((col as usize, PackedWord::from_bits(word)));
                }
            }
            let bterm_cur = if pe_v_active && has_aux {
                self.bram_term
                    .data_out(Port::One)
                    .map(|bits| WordFixed::from_bits(bits as i32))
            } else {
                None
            };

            // 2. PE-T battery.
            for i in 0..nr {
                if !cur[i].valid {
                    continue;
                }
                let col = cur[i].col;
                let word = cur[i].word;
                let l_px = if col == 0 {
                    WordFixed::ZERO
                } else {
                    prev[i].word.px()
                };
                let a_py = if i == 0 {
                    match aux_cur {
                        Some((c, aux)) => {
                            debug_assert_eq!(c, col, "aux word column mismatch");
                            aux.py()
                        }
                        None => WordFixed::ZERO, // r0 == 0: first frame row
                    }
                } else {
                    debug_assert!(prev[i - 1].valid && prev[i - 1].col == col);
                    prev[i - 1].word.py()
                };
                let out: PeTOutputs = pe_t(
                    PeTInputs {
                        c_px: word.px(),
                        c_py: word.py(),
                        l_px,
                        a_py,
                        v: word.v(),
                    },
                    &params.datapath,
                );
                cur[i].term = out.term;
                cur[i].u = out.u;
                self.stats.pe_t_ops += 1;
                if kind == PassKind::USweep {
                    u_out[(col, r0 + i)] = out.u;
                }
            }

            // 3. PE-V battery (staged writes applied in step 6).
            let mut staged_writes: Vec<(usize, usize, usize, PackedWord)> = Vec::new();
            if pe_v_active {
                // PE-V_i, i >= 1: rows r0 .. r0+nr-2, pure register reuse.
                for i in 1..nr {
                    let col = (s as i64) - 1 - i as i64;
                    if !(0..w as i64).contains(&col) {
                        continue;
                    }
                    let col = col as usize;
                    let row = r0 + i - 1;
                    if !prev[i - 1].valid || prev[i - 1].col != col {
                        continue; // pipeline not yet filled for this diagonal
                    }
                    let last_col = col + 1 == w;
                    let c_term = prev[i - 1].term;
                    let r_term = if last_col {
                        WordFixed::ZERO
                    } else {
                        cur[i - 1].term
                    };
                    debug_assert!(last_col || (cur[i - 1].valid && cur[i - 1].col == col + 1));
                    debug_assert!(cur[i].valid && cur[i].col == col);
                    let b_term = cur[i].term;
                    let word = prev[i - 1].word;
                    let (px, py) = pe_v(
                        PeVInputs {
                            c_term,
                            r_term,
                            b_term,
                            c_px: word.px(),
                            c_py: word.py(),
                            last_col,
                            last_row: false, // rows here are never the frame's last
                        },
                        &params.datapath,
                        &self.sqrt,
                    );
                    self.stats.pe_v_ops += 1;
                    staged_writes.push((row, col, self.addr(row, col), word.with_p(px, py)));
                }

                // PE-V_0: row r0-1, fed by the BRAM-Term and the aux word.
                if has_aux {
                    let col = (s as i64) - 2;
                    if (0..w as i64).contains(&col) {
                        let col = col as usize;
                        let row = r0 - 1;
                        let last_col = col + 1 == w;
                        let c_term = bterm_prev.expect("BRAM-Term pipeline filled");
                        let r_term = if last_col {
                            WordFixed::ZERO
                        } else {
                            bterm_cur.expect("BRAM-Term read issued last step")
                        };
                        let (acol, aword) = aux_prev.expect("aux word pipeline filled");
                        debug_assert_eq!(acol, col, "aux word column mismatch for PE-V_0");
                        debug_assert!(prev[0].valid && prev[0].col == col);
                        let b_term = prev[0].term;
                        let (px, py) = pe_v(
                            PeVInputs {
                                c_term,
                                r_term,
                                b_term,
                                c_px: aword.px(),
                                c_py: aword.py(),
                                last_col,
                                last_row: false,
                            },
                            &params.datapath,
                            &self.sqrt,
                        );
                        self.stats.pe_v_ops += 1;
                        staged_writes.push((row, col, self.addr(row, col), aword.with_p(px, py)));
                    }
                }
            }

            // 4. BRAM-Term write: the last active PE-T's Term (bridges to the
            //    next region), only during iterate passes.
            if pe_v_active && cur[nr - 1].valid {
                let col = cur[nr - 1].col;
                self.bram_term.write(
                    Port::Two,
                    parity * stride + col,
                    cur[nr - 1].term.to_bits() as u32,
                );
                self.stats.term_writes += 1;
            }

            // 5. Issue reads for step s+1.
            for i in 0..nr {
                let col = (s as i64) - i as i64; // column at step s+1 is (s+1)-1-i
                if (0..w as i64).contains(&col) {
                    let addr = self.addr(r0 + i, col as usize);
                    self.data[(r0 + i) % DATA_BRAMS].issue_read(Port::One, addr);
                    self.stats.data_reads += 1;
                }
            }
            if has_aux {
                let col = s as i64;
                if (0..w as i64).contains(&col) {
                    let addr = self.addr(r0 - 1, col as usize);
                    self.data[(r0 - 1) % DATA_BRAMS].issue_read(Port::One, addr);
                    self.stats.data_reads += 1;
                }
            }
            if pe_v_active && has_aux && s < w {
                // Term of the previous region's last row (other parity).
                self.bram_term
                    .issue_read(Port::One, (1 - parity) * stride + s);
                self.stats.term_reads += 1;
            }

            // 6. Apply staged PE-V writes (port 2 of the data BRAMs).
            for (row, _col, addr, word) in staged_writes {
                self.data[row % DATA_BRAMS].write(Port::Two, addr, word.to_bits());
                self.stats.data_writes += 1;
            }

            // 7. Clock every memory.
            for bram in &mut self.data {
                bram.clock();
            }
            self.bram_term.clock();

            // 8. Shift the register files.
            prev = cur;
            aux_prev = aux_cur;
            bterm_prev = bterm_cur;
        }

        self.stats.cycles += total_steps as u64 + self.fill_cycles;
        self.stats.passes += 1;
    }

    /// The flush pass: PE-V for the frame's last row (`Term2` gated to
    /// zero), reading its `Term` from the BRAM-Term.
    fn flush_pass(&mut self, w: usize, h: usize, parity: usize, params: &HwParams) {
        let row = h - 1;
        let stride = self.config.stride;
        let mut word_prev: Option<(usize, PackedWord)> = None;
        let mut bterm_prev: Option<WordFixed> = None;

        let total_steps = w + 2;
        for s in 0..total_steps {
            // Capture.
            let mut word_cur: Option<(usize, PackedWord)> = None;
            if (1..=w).contains(&s) {
                let bits = self.data[row % DATA_BRAMS]
                    .data_out(Port::One)
                    .expect("flush read issued one step earlier");
                word_cur = Some((s - 1, PackedWord::from_bits(bits)));
            }
            let bterm_cur = if s >= 1 && s <= w {
                self.bram_term
                    .data_out(Port::One)
                    .map(|bits| WordFixed::from_bits(bits as i32))
            } else {
                None
            };

            // PE-V for column c = s - 2.
            if s >= 2 {
                let col = s - 2;
                if col < w {
                    let last_col = col + 1 == w;
                    let (wcol, word) = word_prev.expect("flush word pipeline filled");
                    debug_assert_eq!(wcol, col);
                    let c_term = bterm_prev.expect("flush BRAM-Term pipeline filled");
                    let r_term = if last_col {
                        WordFixed::ZERO
                    } else {
                        bterm_cur.expect("flush BRAM-Term read issued last step")
                    };
                    let (px, py) = pe_v(
                        PeVInputs {
                            c_term,
                            r_term,
                            b_term: WordFixed::ZERO,
                            c_px: word.px(),
                            c_py: word.py(),
                            last_col,
                            last_row: true,
                        },
                        &params.datapath,
                        &self.sqrt,
                    );
                    self.stats.pe_v_ops += 1;
                    let addr = self.addr(row, col);
                    self.data[row % DATA_BRAMS].write(
                        Port::Two,
                        addr,
                        word.with_p(px, py).to_bits(),
                    );
                    self.stats.data_writes += 1;
                }
            }

            // Issue reads for step s+1 (column s).
            if s < w {
                let addr = self.addr(row, s);
                self.data[row % DATA_BRAMS].issue_read(Port::One, addr);
                self.stats.data_reads += 1;
                self.bram_term
                    .issue_read(Port::One, parity_addr(parity, stride, s));
                self.stats.term_reads += 1;
            }

            for bram in &mut self.data {
                bram.clock();
            }
            self.bram_term.clock();

            word_prev = word_cur;
            bterm_prev = bterm_cur;
        }

        self.stats.cycles += total_steps as u64 + self.fill_cycles;
        self.stats.passes += 1;
    }
}

fn parity_addr(parity: usize, stride: usize, col: usize) -> usize {
    parity * stride + col
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{fixed_chambolle_reference, quantize_input};
    use chambolle_imaging::Image;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_image(w: usize, h: usize, seed: u64) -> Image {
        let mut rng = StdRng::seed_from_u64(seed);
        Grid::from_fn(w, h, |_, _| rng.gen_range(0.0f32..1.0))
    }

    fn run_both(
        w: usize,
        h: usize,
        iters: u32,
        seed: u64,
    ) -> (WindowRun, crate::reference::FixedSolution) {
        let v = random_image(w, h, seed);
        let words = quantize_input(&v);
        let params = HwParams::standard(iters);
        let mut array = PeArray::new(ArrayConfig::paper());
        let run = array.process_window(&words, &params);
        let reference = fixed_chambolle_reference(&words, &params);
        (run, reference)
    }

    #[test]
    fn matches_reference_bit_exact_small() {
        let (run, reference) = run_both(12, 10, 5, 1);
        assert_eq!(run.words, reference.words);
        assert_eq!(run.u, reference.u);
    }

    #[test]
    fn matches_reference_bit_exact_multi_region() {
        // 3 full regions + 1 partial (h = 25), several iterations.
        let (run, reference) = run_both(20, 25, 7, 2);
        assert_eq!(run.words, reference.words);
        assert_eq!(run.u, reference.u);
    }

    #[test]
    fn matches_reference_on_paper_window() {
        let (run, reference) = run_both(92, 88, 3, 3);
        assert_eq!(run.words, reference.words);
        assert_eq!(run.u, reference.u);
    }

    #[test]
    fn matches_reference_degenerate_shapes() {
        for &(w, h) in &[(1usize, 1usize), (5, 1), (1, 9), (92, 1), (2, 88), (8, 8)] {
            let (run, reference) = run_both(w, h, 4, 7 + w as u64 * h as u64);
            assert_eq!(run.words, reference.words, "words mismatch at {w}x{h}");
            assert_eq!(run.u, reference.u, "u mismatch at {w}x{h}");
        }
    }

    #[test]
    fn single_region_heights() {
        for h in 2..=7 {
            let (run, reference) = run_both(10, h, 6, 100 + h as u64);
            assert_eq!(run.words, reference.words, "h = {h}");
        }
    }

    #[test]
    fn region_boundary_heights() {
        for h in [7usize, 8, 14, 15, 16, 21, 22] {
            let (run, reference) = run_both(9, h, 5, 200 + h as u64);
            assert_eq!(run.words, reference.words, "h = {h}");
            assert_eq!(run.u, reference.u, "h = {h}");
        }
    }

    #[test]
    fn stats_reflect_schedule() {
        let (run, _) = run_both(92, 88, 2, 9);
        let s = run.stats;
        // Passes: per iteration 13 regions + 1 flush, plus 13 u-sweep.
        assert_eq!(s.passes, 2 * 14 + 13);
        // Every element visited once per PE-T pass: 2 iterations + 1 sweep.
        assert_eq!(s.pe_t_ops, 3 * 92 * 88);
        // Every element's p updated once per iteration.
        assert_eq!(s.pe_v_ops, 2 * 92 * 88);
        assert!(s.cycles > 0);
    }

    #[test]
    fn reuse_claim_15_vectors_per_7_elements() {
        // Interior regions read 8 words per step for 7 PE-T elements: the
        // paper's 15 operand vectors instead of 28.
        let (run, _) = run_both(92, 88, 1, 4);
        let per_element = run.stats.operand_vectors_per_element();
        // 15/7 ≈ 2.143 vectors per element with reuse; 4.0 without. Frame
        // borders (region 0 has no aux row) pull the average slightly down.
        assert!(
            per_element < 2.143 + 1e-9,
            "reuse should cap vectors/element at 15/7, got {per_element}"
        );
        assert!(per_element > 1.9, "unexpectedly few reads: {per_element}");
    }

    #[test]
    fn cycle_count_is_deterministic() {
        let (a, _) = run_both(30, 20, 3, 11);
        let (b, _) = run_both(30, 20, 3, 12); // different data, same geometry
        assert_eq!(a.stats.cycles, b.stats.cycles);
        assert_eq!(a.stats.data_reads, b.stats.data_reads);
    }

    #[test]
    fn array_is_reusable_across_windows() {
        let params = HwParams::standard(3);
        let mut array = PeArray::new(ArrayConfig::paper());
        let v1 = random_image(16, 12, 21);
        let v2 = random_image(24, 30, 22);
        let r1 = array.process_window(&quantize_input(&v1), &params);
        let r2 = array.process_window(&quantize_input(&v2), &params);
        assert_eq!(
            r1.words,
            fixed_chambolle_reference(&quantize_input(&v1), &params).words
        );
        assert_eq!(
            r2.words,
            fixed_chambolle_reference(&quantize_input(&v2), &params).words
        );
    }

    #[test]
    #[should_panic(expected = "exceeds array geometry")]
    fn oversized_window_panics() {
        let mut array = PeArray::new(ArrayConfig::paper());
        let v = Grid::new(93, 10, 0.0f32);
        array.process_window(&quantize_input(&v), &HwParams::standard(1));
    }

    #[test]
    fn shallower_ladders_stay_bit_exact() {
        let v = random_image(20, 19, 31);
        let words = quantize_input(&v);
        let params = HwParams::standard(4);
        let reference = fixed_chambolle_reference(&words, &params);
        for ladder in [1usize, 2, 3, 5, 7] {
            let mut array = PeArray::new(ArrayConfig::paper_with_ladder(ladder));
            let run = array.process_window(&words, &params);
            assert_eq!(run.words, reference.words, "ladder = {ladder}");
            assert_eq!(run.u, reference.u, "ladder = {ladder}");
        }
    }

    #[test]
    fn shallower_ladders_cost_cycles() {
        let v = random_image(40, 40, 32);
        let words = quantize_input(&v);
        let params = HwParams::standard(2);
        let mut prev = u64::MAX;
        for ladder in [1usize, 3, 7] {
            let mut array = PeArray::new(ArrayConfig::paper_with_ladder(ladder));
            let run = array.process_window(&words, &params);
            assert!(
                run.stats.cycles < prev,
                "deeper ladder should be faster: {} cycles at depth {ladder}",
                run.stats.cycles
            );
            prev = run.stats.cycles;
        }
    }

    #[test]
    #[should_panic(expected = "ladder depth")]
    fn ladder_depth_eight_rejected() {
        // 8 rows + the aux row would need 9 distinct mod-8 BRAM banks.
        ArrayConfig::paper_with_ladder(8);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(10))]

            /// Bit-exactness of the systolic schedule for random shapes,
            /// iteration counts and ladder depths.
            #[test]
            fn array_equals_reference_random(
                w in 1usize..30,
                h in 1usize..30,
                iters in 1u32..5,
                ladder in 1usize..=7,
                seed in any::<u64>(),
            ) {
                let v = random_image(w, h, seed);
                let words = quantize_input(&v);
                let params = HwParams::standard(iters);
                let mut array = PeArray::new(ArrayConfig::paper_with_ladder(ladder));
                let run = array.process_window(&words, &params);
                let reference = fixed_chambolle_reference(&words, &params);
                prop_assert_eq!(run.words, reference.words);
                prop_assert_eq!(run.u, reference.u);
            }
        }
    }

    #[test]
    fn bram_capacity_matches_paper() {
        assert_eq!(ArrayConfig::paper().bram_capacity(), 1012);
    }
}
