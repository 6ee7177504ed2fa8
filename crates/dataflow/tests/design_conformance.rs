//! Conformance of the MaxJ-style kernels: bit-exact streaming results.

use hc_bits::Bits;
use hc_dataflow::designs;
use hc_idct::generator::{corner_cases, BlockGen};
use hc_idct::{fixed, Block};
use hc_sim::Simulator;

fn unpack_matrix(word: &Bits, elem_w: u32) -> Block {
    Block::from_fn(|r, c| word.slice((r * 8 + c) as u32 * elem_w, elem_w).to_i64() as i32)
}

fn pack_row(row: &[i32; 8]) -> Bits {
    hc_axi::pack_elems_n(row, 12)
}

fn pack_matrix(b: &Block) -> Bits {
    let mut word = Bits::zero(768);
    for r in 0..8 {
        for c in 0..8 {
            let e = Bits::from_i64(12, i64::from(b[(r, c)]));
            for bit in 0..12 {
                if e.bit(bit) {
                    word.set_bit((r * 8 + c) as u32 * 12 + bit, true);
                }
            }
        }
    }
    word
}

fn blocks() -> Vec<Block> {
    let mut v = corner_cases();
    v.extend(BlockGen::new(11, -2048, 2047).take_blocks(6));
    v
}

#[test]
fn full_matrix_kernel_is_bit_exact_at_one_per_cycle() {
    let m = designs::full_matrix_kernel();
    let mut sim = Simulator::new(m).unwrap();
    sim.set_u64("rst", 1);
    sim.step();
    sim.set_u64("rst", 0);
    sim.set_u64("in_valid", 1);
    let inputs = blocks();
    let mut outs: Vec<Block> = Vec::new();
    let mut first_out_cycle = None;
    for cycle in 0..inputs.len() + 100 {
        let b = inputs.get(cycle).copied().unwrap_or(Block::zero());
        sim.set("in_data", pack_matrix(&b));
        if sim.get("out_valid").to_bool() {
            first_out_cycle.get_or_insert(cycle);
            outs.push(unpack_matrix(&sim.get("out_data"), 9));
        }
        sim.step();
        if outs.len() >= inputs.len() {
            break;
        }
    }
    assert_eq!(outs.len(), inputs.len());
    for (i, (input, out)) in inputs.iter().zip(&outs).enumerate() {
        assert_eq!(*out, fixed::idct2d(input), "matrix {i}");
    }
    // Fully pipelined: deep latency, one result per cycle afterwards.
    let depth = first_out_cycle.unwrap();
    assert!(depth > 10, "expected a deep pipeline, got {depth}");
}

#[test]
fn row_kernel_is_bit_exact_at_one_matrix_per_8_rows() {
    let m = designs::row_kernel();
    let mut sim = Simulator::new(m).unwrap();
    sim.set_u64("rst", 1);
    sim.step();
    sim.set_u64("rst", 0);
    sim.set_u64("in_valid", 1);
    let inputs = blocks();
    let mut out_cycles = Vec::new();
    let mut outs: Vec<Block> = Vec::new();
    let total_rows = inputs.len() * 8;
    for cycle in 0..total_rows + 100 {
        let row = if cycle < total_rows {
            *inputs[cycle / 8].row(cycle % 8)
        } else {
            [0i32; 8]
        };
        sim.set("in_data", pack_row(&row));
        if sim.get("out_valid").to_bool() {
            outs.push(unpack_matrix(&sim.get("out_data"), 9));
            out_cycles.push(cycle);
        }
        sim.step();
        if outs.len() >= inputs.len() {
            break;
        }
    }
    assert_eq!(outs.len(), inputs.len());
    for (i, (input, out)) in inputs.iter().zip(&outs).enumerate() {
        assert_eq!(*out, fixed::idct2d(input), "matrix {i}");
    }
    // One matrix per 8 input rows, steady state.
    let d: Vec<u64> = out_cycles
        .windows(2)
        .map(|w| (w[1] - w[0]) as u64)
        .collect();
    assert!(d.iter().all(|&x| x == 8), "{d:?}");
}
