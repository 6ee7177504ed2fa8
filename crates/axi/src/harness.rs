//! Matrix-level measurement harness: functional output plus the paper's
//! latency (`T_L`) and periodicity (`T_P`) figures, measured in simulation.

use crate::adapter::MatrixWrapperSpec;
use crate::bfm::{AxisDriver, AxisMonitor, ProtocolChecker};
use hc_bits::Bits;
use hc_rtl::{Module, ValidateError};
use hc_sim::{CompiledSimulator, SimBackend, Simulator};

/// Cycle figures measured by [`StreamHarness::run`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamTiming {
    /// Cycles from the first input beat of a matrix to its last output
    /// beat, inclusive — the paper's `T_L`.
    pub latency: u64,
    /// Steady-state cycles between consecutive matrices' first output
    /// beats — the paper's `T_P`.
    pub periodicity: u64,
}

/// Feeds matrices through an AXI-Stream wrapper and measures timing.
///
/// Expects the conventional interface produced by the adapter generators:
/// `rst`, `s_axis_*` (rows of packed input elements) and `m_axis_*` (rows
/// of packed output elements). The default geometry is the paper's 8×8
/// IDCT (96-bit rows of 12-bit elements in, 72-bit rows of 9-bit elements
/// out); [`StreamHarness::with_spec`] drives any [`MatrixWrapperSpec`]
/// geometry. See the [crate-level example](crate).
///
/// The harness is generic over the simulation engine. The default is the
/// interpreted [`Simulator`]; [`StreamHarness::compiled`] builds one on the
/// lowered [`CompiledSimulator`], and measurement runs it on the scalar
/// JIT ([`NativeSimulator`], through [`StreamHarness::with_spec`]).
/// Every engine produces identical functional output and timing.
///
/// [`NativeSimulator`]: hc_sim::NativeSimulator
#[derive(Debug)]
pub struct StreamHarness<B: SimBackend = Simulator> {
    sim: B,
    rows: usize,
    cols: usize,
    in_elem_width: u32,
    out_elem_width: u32,
    /// Protocol violations observed during runs.
    pub protocol_errors: Vec<crate::ProtocolError>,
}

impl StreamHarness<Simulator> {
    /// Builds an interpreted-backend harness (validating the module) and
    /// applies one reset cycle.
    ///
    /// # Errors
    ///
    /// Returns the module's [`ValidateError`] if it is structurally
    /// invalid.
    pub fn new(module: Module) -> Result<Self, ValidateError> {
        Self::with_backend(module, MatrixWrapperSpec::idct())
    }
}

impl StreamHarness<CompiledSimulator> {
    /// Builds a harness on the compiled backend and applies one reset
    /// cycle.
    ///
    /// # Errors
    ///
    /// Returns the module's [`ValidateError`] if it is structurally
    /// invalid.
    pub fn compiled(module: Module) -> Result<Self, ValidateError> {
        Self::with_backend(module, MatrixWrapperSpec::idct())
    }

    /// A compiled-backend harness with explicit engine construction options
    /// (e.g. [`hc_sim::EngineOptions::no_tape_opt`] to A/B the tape backend
    /// optimizer in measurement sweeps).
    ///
    /// # Errors
    ///
    /// Returns the module's [`ValidateError`] if it is structurally
    /// invalid.
    pub fn compiled_with_options(
        module: Module,
        options: hc_sim::EngineOptions,
    ) -> Result<Self, ValidateError> {
        Ok(Self::from_sim(
            CompiledSimulator::with_options(module, options)?,
            MatrixWrapperSpec::idct(),
        ))
    }
}

impl StreamHarness<hc_sim::NativeSimulator> {
    /// Builds a harness on the native (per-cone JIT) backend and applies
    /// one reset cycle. On non-x86-64 hosts, or under `HC_NO_NATIVE=1`,
    /// the engine transparently degrades to the tape interpreter with
    /// identical observable behavior.
    ///
    /// # Errors
    ///
    /// Returns the module's [`ValidateError`] if it is structurally
    /// invalid.
    pub fn native(module: Module) -> Result<Self, ValidateError> {
        Self::with_backend(module, MatrixWrapperSpec::idct())
    }
}

impl<B: SimBackend> StreamHarness<B> {
    /// Builds a harness on any backend for an explicit wrapper geometry
    /// and applies one reset cycle.
    ///
    /// # Errors
    ///
    /// Returns the module's [`ValidateError`] if it is structurally
    /// invalid.
    pub fn with_spec(module: Module, spec: MatrixWrapperSpec) -> Result<Self, ValidateError> {
        Self::with_backend(module, spec)
    }

    fn with_backend(module: Module, spec: MatrixWrapperSpec) -> Result<Self, ValidateError> {
        Ok(Self::from_sim(B::from_module(module)?, spec))
    }

    /// Wraps an already-constructed engine and applies one reset cycle.
    fn from_sim(mut sim: B, spec: MatrixWrapperSpec) -> Self {
        sim.set_u64("rst", 1);
        sim.set_u64("s_axis_tvalid", 0);
        sim.set_u64("m_axis_tready", 0);
        sim.step();
        sim.set_u64("rst", 0);
        StreamHarness {
            sim,
            rows: spec.rows as usize,
            cols: spec.cols as usize,
            in_elem_width: spec.in_elem_width,
            out_elem_width: spec.out_elem_width,
            protocol_errors: Vec::new(),
        }
    }

    /// Access to the simulator (e.g. for probing).
    pub fn simulator_mut(&mut self) -> &mut B {
        &mut self.sim
    }

    /// Streams 8×8 matrices through the wrapper back-to-back and collects
    /// the decoded outputs plus timing. Gives up after `max_cycles`
    /// (returning whatever was collected — callers assert on the output
    /// count).
    ///
    /// # Panics
    ///
    /// Panics if the harness geometry is not 8×8 (use [`Self::run_flat`]).
    pub fn run(
        &mut self,
        matrices: &[[[i32; 8]; 8]],
        max_cycles: u64,
    ) -> (Vec<[[i32; 8]; 8]>, StreamTiming) {
        assert_eq!((self.rows, self.cols), (8, 8), "run() is the 8x8 API");
        let flat: Vec<Vec<i32>> = matrices
            .iter()
            .map(|m| m.iter().flatten().copied().collect())
            .collect();
        let (outs, timing) = self.run_flat(&flat, max_cycles);
        let outputs = outs
            .into_iter()
            .map(|o| {
                let mut m = [[0i32; 8]; 8];
                for (i, v) in o.into_iter().enumerate() {
                    m[i / 8][i % 8] = v;
                }
                m
            })
            .collect();
        (outputs, timing)
    }

    /// Streams row-major `rows`×`cols` blocks through the wrapper
    /// back-to-back and collects the decoded outputs plus timing. Gives up
    /// after `max_cycles` (returning whatever was collected — callers
    /// assert on the output count).
    ///
    /// # Panics
    ///
    /// Panics if a block does not have `rows * cols` elements.
    pub fn run_flat(
        &mut self,
        blocks: &[Vec<i32>],
        max_cycles: u64,
    ) -> (Vec<Vec<i32>>, StreamTiming) {
        let rows = self.rows;
        let cols = self.cols;
        let mut driver = AxisDriver::new("s_axis", self.in_elem_width * cols as u32);
        let mut monitor = AxisMonitor::new("m_axis");
        let mut checker = ProtocolChecker::new("m_axis");
        for block in blocks {
            assert_eq!(block.len(), rows * cols, "block has rows*cols elements");
            for row in block.chunks(cols) {
                driver.push(pack_elems_n(row, self.in_elem_width));
            }
        }

        let expected_beats = blocks.len() * rows;
        let mut first_in_beats: Vec<u64> = Vec::new();
        for _ in 0..max_cycles {
            let sent_before = driver.beats_sent;
            // Consumer-side ready is applied before the driver samples
            // s_tready: ready can propagate combinationally through the
            // wrapper's hand-over logic.
            monitor.before_edge(&mut self.sim);
            driver.before_edge(&mut self.sim);
            checker.before_edge(&mut self.sim);
            if driver.beats_sent > sent_before
                && (driver.beats_sent - 1).is_multiple_of(rows as u64)
            {
                first_in_beats.push(self.sim.cycle());
            }
            self.sim.step();
            if monitor.beats.len() >= expected_beats {
                break;
            }
        }
        self.protocol_errors.extend(checker.errors);

        let outputs: Vec<Vec<i32>> = monitor
            .beats
            .chunks(rows)
            .filter(|c| c.len() == rows)
            .map(|beat_rows| {
                let mut block = Vec::with_capacity(rows * cols);
                for (_, bits) in beat_rows {
                    block.extend(unpack_elems_n(bits, self.out_elem_width, cols));
                }
                block
            })
            .collect();

        // Timing: latency of matrix 0; periodicity from steady state.
        let mut timing = StreamTiming::default();
        if !monitor.beats.is_empty() && !first_in_beats.is_empty() {
            let last_out_of_first = monitor.beats.get(rows - 1).map(|(c, _)| *c);
            if let Some(last) = last_out_of_first {
                timing.latency = last - first_in_beats[0] + 1;
            }
            let firsts: Vec<u64> = monitor
                .beats
                .iter()
                .step_by(rows)
                .map(|(c, _)| *c)
                .collect();
            if firsts.len() >= 3 {
                // Steady state: the spacing of the last pair.
                timing.periodicity = firsts[firsts.len() - 1] - firsts[firsts.len() - 2];
            } else if firsts.len() == 2 {
                timing.periodicity = firsts[1] - firsts[0];
            }
        }
        (outputs, timing)
    }
}

/// Packs signed elements into one row word, element 0 in the low bits.
pub fn pack_elems_n(row: &[i32], elem_width: u32) -> Bits {
    let mut word = Bits::zero(elem_width * row.len() as u32);
    let mut words = vec![0; word.as_words().len()];
    pack_words(row, elem_width, &mut words);
    word.copy_from_words(&words);
    word
}

/// Unpacks one row word into `n` sign-extended elements.
///
/// # Panics
///
/// Panics if `n` elements do not fit in the word.
pub fn unpack_elems_n(word: &Bits, elem_width: u32, n: usize) -> Vec<i32> {
    assert!(
        n as u32 * elem_width <= word.width(),
        "{n} elements of {elem_width} bits overrun a {}-bit word",
        word.width()
    );
    let mut out = Vec::with_capacity(n);
    unpack_words(word.as_words(), elem_width, n, &mut out);
    out
}

/// Packs signed elements into little-endian row words, element 0 in the
/// low bits. Each element is truncated to `elem_width` (1..=64) bits;
/// `out` is cleared first, so its bits above the row are zero.
pub(crate) fn pack_words(row: &[i32], elem_width: u32, out: &mut [u64]) {
    out.fill(0);
    let m = u64::MAX >> (64 - elem_width);
    for (c, &v) in row.iter().enumerate() {
        let e = i64::from(v) as u64 & m;
        let lo = c as u32 * elem_width;
        let (w, sh) = ((lo / 64) as usize, lo % 64);
        out[w] |= e << sh;
        if sh + elem_width > 64 {
            out[w + 1] |= e >> (64 - sh);
        }
    }
}

/// Appends `n` sign-extended `elem_width`-bit (1..=64) elements unpacked
/// from little-endian row words, element 0 from the low bits.
pub(crate) fn unpack_words(words: &[u64], elem_width: u32, n: usize, out: &mut Vec<i32>) {
    let up = 64 - elem_width;
    out.extend((0..n).map(|c| {
        let lo = c as u32 * elem_width;
        let (w, sh) = ((lo / 64) as usize, lo % 64);
        let mut x = words[w] >> sh;
        if sh + elem_width > 64 {
            x |= words[w + 1] << (64 - sh);
        }
        ((x << up) as i64 >> up) as i32
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{wrap_comb_matrix, MatrixWrapperSpec};

    fn identity_wrapper() -> Module {
        wrap_comb_matrix("w", MatrixWrapperSpec::idct(), |m, elems| {
            elems.iter().map(|&e| m.slice(e, 0, 9)).collect()
        })
    }

    #[test]
    fn pack_unpack_round_trip() {
        let row = [-2048, -1, 0, 1, 2047, -100, 100, 7];
        let word = pack_elems_n(&row, 12);
        assert_eq!(unpack_elems_n(&word, 12, 8), row);
        // Element 5 of a 96-bit row straddles bit 64; every element must
        // land where the per-bit definition puts it.
        assert_eq!(word.width(), 96);
        for (c, &v) in row.iter().enumerate() {
            let e = word.slice(c as u32 * 12, 12);
            assert_eq!(e, Bits::from_i64(12, i64::from(v)), "element {c}");
        }
        assert_eq!(word.extract_u64(60, 12), 0xf9c, "-100 across the word seam");
        // The 12-bit extremes, alternating, and a 9-bit output row.
        let extremes = [-2048, 2047, -2048, 2047, -2048, 2047, -2048, 2047];
        assert_eq!(
            unpack_elems_n(&pack_elems_n(&extremes, 12), 12, 8),
            extremes
        );
        let out_row = [-256, 255, -1, 0, 1, -200, 200, 7];
        let out_word = pack_elems_n(&out_row, 9);
        assert_eq!(out_word.width(), 72);
        assert_eq!(unpack_elems_n(&out_word, 9, 8), out_row);
        // Out-of-range values truncate to the element width.
        assert_eq!(
            unpack_elems_n(&pack_elems_n(&[256, -257], 9), 9, 2),
            [-256, 255]
        );
        // A whole 8x8 block in one 768-bit beat (the stream kernels' shape).
        let block: Vec<i32> = (0..64).map(|i| (i * 67 % 4096) - 2048).collect();
        let beat = pack_elems_n(&block, 12);
        assert_eq!(beat.width(), 768);
        assert_eq!(unpack_elems_n(&beat, 12, 64), block);
        for (c, &v) in block.iter().enumerate() {
            assert_eq!(beat.slice(c as u32 * 12, 12).to_i64(), i64::from(v));
        }
    }

    #[test]
    fn comb_wrapper_has_paper_timing() {
        // Latency 17 and periodicity 8 — the initial Verilog row of
        // Table II.
        let mut h = StreamHarness::new(identity_wrapper()).unwrap();
        let a = [[1i32; 8]; 8];
        let b = [[2i32; 8]; 8];
        let c = [[3i32; 8]; 8];
        let (outs, timing) = h.run(&[a, b, c], 500);
        assert_eq!(outs.len(), 3);
        assert_eq!(timing.latency, 17);
        assert_eq!(timing.periodicity, 8);
        assert!(h.protocol_errors.is_empty());
    }

    #[test]
    fn functional_path_preserves_values() {
        let mut h = StreamHarness::new(identity_wrapper()).unwrap();
        let m = {
            let mut m = [[0i32; 8]; 8];
            for (r, row) in m.iter_mut().enumerate() {
                for (c, v) in row.iter_mut().enumerate() {
                    *v = (r * 8 + c) as i32 - 32; // fits in 9 bits
                }
            }
            m
        };
        let (outs, _) = h.run(&[m], 200);
        assert_eq!(
            outs[0],
            m.map(|row| row.map(|v| {
                // identity kernel truncates to 9 bits then we sign-extend back
                let x = v & 0x1ff;
                if x >= 256 {
                    x - 512
                } else {
                    x
                }
            }))
        );
    }

    #[test]
    fn compiled_backend_matches_interpreted_timing() {
        let mut interp = StreamHarness::new(identity_wrapper()).unwrap();
        let mut comp = StreamHarness::compiled(identity_wrapper()).unwrap();
        let blocks: Vec<[[i32; 8]; 8]> = (0..4).map(|k| [[k - 2; 8]; 8]).collect();
        let (outs_i, timing_i) = interp.run(&blocks, 1000);
        let (outs_c, timing_c) = comp.run(&blocks, 1000);
        assert_eq!(outs_i, outs_c);
        assert_eq!(timing_i, timing_c);
        assert!(comp.protocol_errors.is_empty());
    }

    #[test]
    fn back_to_back_matrices_all_come_through() {
        let mut h = StreamHarness::new(identity_wrapper()).unwrap();
        let blocks: Vec<[[i32; 8]; 8]> = (0..10).map(|k| [[k; 8]; 8]).collect();
        let (outs, timing) = h.run(&blocks, 2000);
        assert_eq!(outs.len(), 10);
        for (k, o) in outs.iter().enumerate() {
            assert_eq!(o[0][0], k as i32);
        }
        assert_eq!(timing.periodicity, 8);
    }

    #[test]
    fn non_8x8_geometry_streams_through() {
        let spec = MatrixWrapperSpec::new(4, 4, 12, 9);
        let w = wrap_comb_matrix("w4", spec, |m, elems| {
            elems.iter().map(|&e| m.slice(e, 0, 9)).collect()
        });
        let mut h = StreamHarness::<Simulator>::with_spec(w, spec).unwrap();
        let blocks: Vec<Vec<i32>> = (0..3)
            .map(|k| (0..16).map(|i| k * 16 + i).collect())
            .collect();
        let (outs, timing) = h.run_flat(&blocks, 500);
        assert_eq!(outs, blocks);
        assert_eq!(timing.periodicity, 4);
        assert!(h.protocol_errors.is_empty());
    }
}
