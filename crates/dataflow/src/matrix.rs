//! Benchmark-matrix kernels as MaxJ-style stream kernels — the
//! "MaxCompiler" column of the kernel × frontend matrix.
//!
//! Each kernel follows the paper's *initial* dataflow shape: the whole
//! block arrives as one wide sample per cycle (`rows·cols·in_width` bits),
//! the fully-pipelined compute graph transforms it, and one wide result
//! leaves per cycle. No AXI wrapper — like the IDCT entry, these are
//! system kernels whose throughput ceiling is the PCIe link, and the test
//! bench drives the raw `in_data`/`in_valid` stream ports.

use crate::{Kernel, StreamValue};
use hc_kernels::{Algo, KernelSpec};
use hc_rtl::Module;

/// This module's own source text — the matrix LOC accounting counts the
/// kernel-construction functions here the way the paper counts design LOC.
pub const DESIGN_SRC: &str = include_str!("matrix.rs");

/// Working width of the first (row) pass.
const P1_WIDTH: u32 = 32;
/// Working width of the second (column) pass.
const P2_WIDTH: u32 = 40;
/// Working width of the FIR accumulator.
const FIR_WIDTH: u32 = 32;

/// `(Σ coeff[i]·v[i] + bias) >> shift` at `width`.
fn mac(
    k: &mut Kernel,
    v: &[StreamValue],
    coeffs: &[i64],
    width: u32,
    bias: i64,
    shift: u32,
) -> StreamValue {
    let mut acc = k.lit(width, bias);
    for (&x, &c) in v.iter().zip(coeffs) {
        if c == 0 {
            continue;
        }
        let xw = k.cast(x, width);
        let cl = k.lit(width, c);
        let p = k.mul(cl, xw, width);
        acc = k.add(acc, p);
    }
    k.shr(acc, shift)
}

/// Saturate into the signed `out_width` range, then narrow.
fn clip(k: &mut Kernel, v: StreamValue, width: u32, out_width: u32) -> StreamValue {
    let hi = (1i64 << (out_width - 1)) - 1;
    let lo = k.lit(width, -hi - 1);
    let hic = k.lit(width, hi);
    let under = k.lt(v, lo);
    let over = k.gt(v, hic);
    let c = k.sel(over, hic, v);
    let c = k.sel(under, lo, c);
    k.slice(c, 0, out_width)
}

fn pack(k: &mut Kernel, elems: &[StreamValue]) -> StreamValue {
    let mut acc = elems[0];
    for &e in &elems[1..] {
        acc = k.concat(e, acc);
    }
    acc
}

/// The full-block stream kernel: one `rows·cols·in_width`-bit sample in,
/// one `rows·cols·out_width`-bit block out, per cycle, fully pipelined.
///
/// # Panics
///
/// Never panics for registry kernels.
pub fn matrix_kernel(spec: &KernelSpec) -> Module {
    let in_w = spec.in_width * spec.elems() as u32;
    let out_w = spec.out_width * spec.elems() as u32;
    let mut k = Kernel::new(&format!("{}_maxj", spec.id), in_w);
    let word = k.stream_in();
    let elems: Vec<StreamValue> = (0..spec.elems() as u32)
        .map(|i| k.slice(word, i * spec.in_width, spec.in_width))
        .collect();
    let out = match &spec.algo {
        Algo::Separable {
            m,
            mid_width,
            s1,
            b1,
            s2,
            b2,
        } => {
            let n = spec.cols as usize;
            let t: Vec<Vec<StreamValue>> = (0..n)
                .map(|r| {
                    let row = &elems[r * n..(r + 1) * n];
                    (0..n)
                        .map(|j| {
                            let v = mac(&mut k, row, &m[j], P1_WIDTH, *b1, *s1);
                            k.slice(v, 0, *mid_width)
                        })
                        .collect()
                })
                .collect();
            let mut out = vec![None; spec.elems()];
            #[allow(clippy::needless_range_loop)]
            for i in 0..n {
                for c in 0..n {
                    let column: Vec<StreamValue> = (0..n).map(|r| t[r][c]).collect();
                    let v = mac(&mut k, &column, &m[i], P2_WIDTH, *b2, *s2);
                    out[i * n + c] = Some(clip(&mut k, v, P2_WIDTH, spec.out_width));
                }
            }
            out.into_iter().map(Option::unwrap).collect::<Vec<_>>()
        }
        Algo::Fir { taps, shift, bias } => (0..spec.elems())
            .map(|i| {
                let window: Vec<StreamValue> =
                    (0..taps.len().min(i + 1)).map(|j| elems[i - j]).collect();
                let v = mac(&mut k, &window, taps, FIR_WIDTH, *bias, *shift);
                clip(&mut k, v, FIR_WIDTH, spec.out_width)
            })
            .collect(),
    };
    let packed = pack(&mut k, &out);
    k.stream_out(packed, out_w);
    k.finalize()
        .expect("matrix kernels are valid dataflow graphs")
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_axi::{MatrixWrapperSpec, StreamHarness};
    use hc_sim::Simulator;

    fn check(spec: &KernelSpec, nblocks: usize, seed: u64) {
        let wspec = MatrixWrapperSpec::new(spec.rows, spec.cols, spec.in_width, spec.out_width);
        let mut h = StreamHarness::<Simulator>::with_spec(matrix_kernel(spec), wspec).unwrap();
        let blocks = spec.stimulus(nblocks, seed);
        let (outs, _) = h.run_flat(&blocks, nblocks as u64 + 512);
        assert_eq!(outs.len(), nblocks, "{}", spec.id);
        for (o, blk) in outs.iter().zip(&blocks) {
            assert_eq!(o, &spec.golden(blk), "{}", spec.id);
        }
    }

    #[test]
    fn dct8_stream_matches_golden() {
        check(&hc_kernels::dct8(), 3, 11);
    }

    #[test]
    fn fir32_stream_matches_golden() {
        check(&hc_kernels::fir32(), 3, 13);
    }

    #[test]
    fn idct4_stream_matches_golden() {
        check(&hc_kernels::idct4(), 3, 15);
    }

    #[test]
    fn idct16_stream_matches_golden() {
        check(&hc_kernels::idct16(), 1, 19);
    }
}
