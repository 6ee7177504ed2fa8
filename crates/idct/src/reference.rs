//! The ideal double-precision reference IDCT of IEEE Std 1180-1990.

use crate::Block;
use std::f64::consts::PI;
use std::sync::OnceLock;

/// The textbook's per-term factors, each computed once per process with
/// the textbook's own expression, so every product below sees the same
/// `f64` the quadruple sum computed inline.
struct Factors {
    /// `cos[i][k] = cos((2i+1)·k·π/16)`: `[x][u]` for the row factor,
    /// `[y][v]` for the column factor.
    cos: [[f64; 8]; 8],
    /// `cc[u][v] = c(u)·c(v)`, with `c(0) = 1/√2` and `c(k) = 1` else.
    cc: [[f64; 8]; 8],
}

fn factors() -> &'static Factors {
    static FACTORS: OnceLock<Factors> = OnceLock::new();
    FACTORS.get_or_init(|| {
        let c = |k: usize| if k == 0 { 1.0 / 2f64.sqrt() } else { 1.0 };
        let mut f = Factors {
            cos: [[0.0; 8]; 8],
            cc: [[0.0; 8]; 8],
        };
        for i in 0..8 {
            for k in 0..8 {
                f.cos[i][k] = ((2 * i + 1) as f64 * k as f64 * PI / 16.0).cos();
                f.cc[i][k] = c(i) * c(k);
            }
        }
        f
    })
}

/// The unrounded reference outputs `Σ_u Σ_v c(u)c(v)·F(u,v)·cos[x][u]·
/// cos[y][v] / 4`.
///
/// Every output sum adds the same terms in the textbook's `(u, v)` order,
/// each term the textbook's left-to-right product
/// `((c(u)c(v)·F)·cos[x][u])·cos[y][v]`, with no fused multiply-add; only
/// the shared prefixes are hoisted (`c(u)c(v)·F` once per block, its
/// product with `cos[x][u]` once per `(x, u, v)`) and the eight `y` sums
/// of a row accumulate side by side. So every sum is bit-identical to the
/// quadruple loop's.
// Index loops keep the Σ-over-(x,y,u,v) form recognizable.
#[allow(clippy::needless_range_loop)]
fn idct_sums(coeffs: &Block) -> [[f64; 8]; 8] {
    let f = factors();
    let mut scaled = [[0.0f64; 8]; 8];
    for u in 0..8 {
        for v in 0..8 {
            scaled[u][v] = f.cc[u][v] * f64::from(coeffs[(u, v)]);
        }
    }
    let mut out = [[0.0f64; 8]; 8];
    for x in 0..8 {
        let mut acc = [0.0f64; 8];
        for u in 0..8 {
            for v in 0..8 {
                let t = scaled[u][v] * f.cos[x][u];
                for y in 0..8 {
                    acc[y] += t * f.cos[y][v];
                }
            }
        }
        for y in 0..8 {
            out[x][y] = acc[y] / 4.0;
        }
    }
    out
}

/// The separable 2-D inverse DCT computed in `f64`, rounded to nearest and
/// clamped to the 9-bit output range `[-256, 255]`.
///
/// This is the yardstick the IEEE 1180 accuracy statistics compare against.
///
/// # Examples
///
/// ```
/// use hc_idct::{reference, Block};
///
/// // An all-zero coefficient block decodes to all zeros.
/// assert_eq!(reference::idct_f64(&Block::zero()), Block::zero());
/// ```
pub fn idct_f64(coeffs: &Block) -> Block {
    let out = idct_sums(coeffs);
    Block::from_fn(|r, c| (out[r][c].round() as i32).clamp(-256, 255))
}

/// The forward DCT in `f64` (used by test machinery to build coefficient
/// blocks whose IDCT is a known image).
#[allow(clippy::needless_range_loop)]
pub fn fdct_f64(samples: &Block) -> Block {
    let mut out = [[0.0f64; 8]; 8];
    for u in 0..8 {
        for v in 0..8 {
            let mut acc = 0.0;
            for x in 0..8 {
                for y in 0..8 {
                    acc += f64::from(samples[(x, y)])
                        * ((2 * x + 1) as f64 * u as f64 * PI / 16.0).cos()
                        * ((2 * y + 1) as f64 * v as f64 * PI / 16.0).cos();
                }
            }
            let cu = if u == 0 { 1.0 / 2f64.sqrt() } else { 1.0 };
            let cv = if v == 0 { 1.0 / 2f64.sqrt() } else { 1.0 };
            out[u][v] = acc * cu * cv / 4.0;
        }
    }
    Block::from_fn(|r, c| (out[r][c].round() as i32).clamp(-2048, 2047))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::BlockGen;
    use crate::ieee1180::STANDARD_RANGES;
    use crate::rand1180::Rand1180;

    /// The textbook quadruple sum, term by term: the oracle
    /// [`idct_sums`] must reproduce bit for bit.
    #[allow(clippy::needless_range_loop)]
    fn textbook_sums(coeffs: &Block) -> [[f64; 8]; 8] {
        let mut out = [[0.0f64; 8]; 8];
        for x in 0..8 {
            for y in 0..8 {
                let mut acc = 0.0;
                for u in 0..8 {
                    for v in 0..8 {
                        let cu = if u == 0 { 1.0 / 2f64.sqrt() } else { 1.0 };
                        let cv = if v == 0 { 1.0 / 2f64.sqrt() } else { 1.0 };
                        acc += cu
                            * cv
                            * f64::from(coeffs[(u, v)])
                            * ((2 * x + 1) as f64 * u as f64 * PI / 16.0).cos()
                            * ((2 * y + 1) as f64 * v as f64 * PI / 16.0).cos();
                    }
                }
                out[x][y] = acc / 4.0;
            }
        }
        out
    }

    #[test]
    fn sums_are_bit_identical_to_the_textbook() {
        // The first 500 blocks of each of the standard's six runs (the
        // same generator and negation as `ieee1180::measure_range`), plus
        // the full-range 12-bit blocks the measurements use.
        let mut blocks = Vec::new();
        for &(l, h) in &STANDARD_RANGES {
            for negate in [false, true] {
                let mut rng = Rand1180::new();
                blocks.extend((0..500).map(|_| {
                    let b = Block::from_fn(|_, _| rng.next_in(l, h));
                    if negate {
                        b.negated()
                    } else {
                        b
                    }
                }));
            }
        }
        blocks.extend(BlockGen::new(7, -2048, 2047).take_blocks(1000));
        for (k, b) in blocks.iter().enumerate() {
            let (got, want) = (idct_sums(b), textbook_sums(b));
            for (x, (g, w)) in got.iter().zip(&want).enumerate() {
                for y in 0..8 {
                    assert_eq!(
                        g[y].to_bits(),
                        w[y].to_bits(),
                        "block {k} ({x}, {y}): {} vs {}",
                        g[y],
                        w[y]
                    );
                }
            }
        }
    }

    #[test]
    fn dc_only_block_is_flat() {
        let mut c = Block::zero();
        c[(0, 0)] = 64;
        let out = idct_f64(&c);
        // DC 64 -> every sample 64/8 = 8.
        assert!(out.iter().all(|v| v == 8), "{out:?}");
    }

    #[test]
    fn single_ac_coefficient_is_a_cosine() {
        let mut c = Block::zero();
        c[(0, 1)] = 100;
        let out = idct_f64(&c);
        // Constant along rows, cosine along columns; symmetric up to sign.
        for r in 1..8 {
            assert_eq!(out.row(r), out.row(0));
        }
        assert_eq!(out[(0, 0)], -out[(0, 7)]);
        assert!(out[(0, 0)] > 0);
    }

    #[test]
    fn idct_inverts_fdct_approximately() {
        let img = Block::from_fn(|r, c| ((r as i32 - 4) * 20 + (c as i32) * 7).clamp(-256, 255));
        let coeffs = fdct_f64(&img);
        let back = idct_f64(&coeffs);
        for (a, b) in img.iter().zip(back.iter()) {
            assert!((a - b).abs() <= 1, "{a} vs {b}");
        }
    }

    #[test]
    fn output_is_clamped() {
        let mut c = Block::zero();
        c[(0, 0)] = 2047; // huge DC
        let out = idct_f64(&c);
        assert!(out.in_range(-256, 255));
        assert_eq!(out[(0, 0)], 255);
    }
}
