//! What a traced pass's spans cannot separate, measured after the pass
//! and outside op time:
//!
//! - the golden compare, which the program's `simulate` span shares with
//!   the harness run or stream drive: replayed on the same stimulus and
//!   moved from that layer to `idct.golden` / `kernels.golden`;
//! - the work `measure` / `measure_cell` do outside any span, which would
//!   otherwise read as the op's `other` remainder: the structural hash
//!   that keys the front-half cache (`core.cache`), the copy of the
//!   optimized module handed to the back half (that back half's layer)
//!   and the kernel stimulus (`kernels.golden`);
//! - the engine alone: an engine-only replay of the lane-cycles each op
//!   simulated (`sim.engine_ms`, `sim.lane_cycles`), driven the way
//!   perfsnap's `engine_rate` drives an engine.
//!
//! The ops themselves always run the program's own functions; nothing
//! here is on their path.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

use hc_axi::{lanes_for_blocks, BatchedStreamHarness};
use hc_idct::{fixed, Block};
use hc_kernels::KernelSpec;
use hc_rtl::Module;
use hc_sim::{NativeBatchedSimulator, NativeSimulator};

use crate::trace::OP;

/// The matrix measurement's stimulus seed (`hc_core::matrix::STIM_SEED`,
/// which is private).
const MATRIX_STIM_SEED: u64 = 7;

/// One op's simulation, recorded by a traced pass for the replays.
pub enum Replay {
    /// A design point measured by `hc_core::measure::measure` (`spec`
    /// `None`) or `hc_core::matrix::measure_cell`, with its measured
    /// timing.
    Design {
        module: Box<Module>,
        stream: bool,
        spec: Option<KernelSpec>,
        nblocks: usize,
        t_l: u64,
        t_p: u64,
    },
    /// One `hc_bench::rtl_idct_batched` call on `nblocks` blocks. Its
    /// golden work (stimulus, f64 reference, statistics) is spanned
    /// directly, so only the engine is replayed.
    IdctBatch { module: Arc<Module>, nblocks: usize },
}

/// The replays' results for one traced pass.
#[derive(Default)]
pub struct Replayed {
    /// Engine-only time of the lane-batched (AXI) ops, ms.
    pub batched_ms: f64,
    /// Engine-only time of the scalar (stream) ops, ms.
    pub scalar_ms: f64,
    pub lane_cycles: f64,
    /// Replayed time to move `(from layer, to layer, ms)`.
    pub moves: Vec<(&'static str, &'static str, f64)>,
}

/// `(lanes, lane-cycles)` of a lane-batched harness run, by (structural
/// hash, kernel id or "" for the IDCT, blocks). The timing of every
/// measured design is data-independent, so one harness replay per run
/// gives every later pass's count.
fn harness_cycles(module: &Module, spec: Option<&KernelSpec>, n: usize) -> (usize, u64) {
    type Memo = Mutex<HashMap<(u128, &'static str, usize), (usize, u64)>>;
    static MEMO: OnceLock<Memo> = OnceLock::new();
    let key = (
        hc_rtl::hash::content_hash(module),
        spec.map_or("", |s| s.id),
        n,
    );
    let memo = MEMO.get_or_init(Memo::default);
    if let Some(&hit) = memo
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get(&key)
    {
        return hit;
    }
    let lanes = lanes_for_blocks(n);
    let mut harness = match spec {
        None => {
            let mut h = BatchedStreamHarness::new(module.clone(), lanes)
                .expect("measured designs validate");
            let inputs: Vec<[[i32; 8]; 8]> = idct_blocks(n).iter().map(|b| b.0).collect();
            h.run_blocks(&inputs, 2000 * (n as u64 + 4));
            h
        }
        Some(spec) => {
            let mut h = BatchedStreamHarness::with_spec(
                module.clone(),
                lanes,
                hc_core::matrix::wrapper_spec(spec),
            )
            .expect("measured designs validate");
            h.run_blocks_flat(&spec.stimulus(n, MATRIX_STIM_SEED), 4000 * (n as u64 + 4));
            h
        }
    };
    let sim = harness.simulator_mut();
    // Every lane spent one cycle in the construction-time reset.
    let cycles = (0..lanes).map(|l| sim.cycle(l)).sum::<u64>() - lanes as u64;
    memo.lock()
        .unwrap_or_else(PoisonError::into_inner)
        .insert(key, (lanes, cycles));
    (lanes, cycles)
}

/// The program's IDCT sample blocks (`hc_core::measure`'s
/// `sample_blocks`: seed 7, full 12-bit range).
fn idct_blocks(n: usize) -> Vec<Block> {
    hc_idct::generator::BlockGen::new(7, -2048, 2047).take_blocks(n)
}

/// Times the golden compare of `n` blocks: the reference model on each
/// block and the comparison of its output.
fn golden_ms(spec: Option<&KernelSpec>, n: usize) -> f64 {
    match spec {
        None => {
            let blocks = idct_blocks(n);
            let outputs: Vec<Block> = blocks.iter().map(fixed::idct2d).collect();
            let t = Instant::now();
            for (b, o) in blocks.iter().zip(&outputs) {
                assert_eq!(*std::hint::black_box(o), fixed::idct2d(b));
            }
            t.elapsed().as_secs_f64() * 1e3
        }
        Some(spec) => {
            let blocks = spec.stimulus(n, MATRIX_STIM_SEED);
            let outputs: Vec<Vec<i32>> = blocks.iter().map(|b| spec.golden(b)).collect();
            let t = Instant::now();
            for (b, o) in blocks.iter().zip(&outputs) {
                assert_eq!(std::hint::black_box(o), &spec.golden(b));
            }
            t.elapsed().as_secs_f64() * 1e3
        }
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs a traced pass's replays. Call with the tracer disarmed.
pub fn replay(replays: Vec<Replay>) -> Replayed {
    let mut out = Replayed::default();
    let mut stim = 0x9e37_79b9_7f4a_7c15u64;
    for r in replays {
        let (module, lanes, steps) = match r {
            Replay::Design {
                module,
                stream,
                spec,
                nblocks,
                t_l,
                t_p,
            } => {
                // The pass's front-half cache still holds the optimized
                // module the op simulated.
                let optimized = Arc::clone(&hc_core::cache::front_half(&module).module);
                let n = nblocks.max(2);
                let (from, to) = match (stream, &spec) {
                    (false, None) => ("axi.harness", "idct.golden"),
                    (false, Some(_)) => ("axi.harness", "kernels.golden"),
                    (true, None) => ("core.stream_drive", "idct.golden"),
                    (true, Some(_)) => ("core.stream_drive", "kernels.golden"),
                };
                out.moves.push((from, to, golden_ms(spec.as_ref(), n)));
                let t = Instant::now();
                std::hint::black_box(hc_rtl::hash::content_hash(std::hint::black_box(&module)));
                out.moves.push((OP, "core.cache", ms_since(t)));
                let t = Instant::now();
                let copy = std::hint::black_box(optimized.as_ref().clone());
                out.moves.push((OP, from, ms_since(t)));
                drop(copy);
                if let Some(spec) = &spec {
                    let t = Instant::now();
                    std::hint::black_box(spec.stimulus(n, MATRIX_STIM_SEED));
                    out.moves.push((OP, "kernels.golden", ms_since(t)));
                }
                if stream {
                    // A stream drive steps once in reset, then until the
                    // n-th output, which appears T_L - 1 + (n - 1)·T_P
                    // cycles in (outputs are evenly spaced).
                    let steps = t_l + (n as u64 - 1) * t_p + 1;
                    out.lane_cycles += steps as f64;
                    (optimized, 0, steps)
                } else {
                    let (lanes, cycles) = harness_cycles(&optimized, spec.as_ref(), n);
                    out.lane_cycles += cycles as f64;
                    (optimized, lanes, cycles.div_ceil(lanes as u64))
                }
            }
            Replay::IdctBatch { module, nblocks } => {
                let (lanes, cycles) = harness_cycles(&module, None, nblocks);
                out.lane_cycles += cycles as f64;
                (module, lanes, cycles.div_ceil(lanes as u64))
            }
        };
        // Engines are built outside the timed region; valid data every
        // cycle with the output side ready, so the engine evaluates the
        // datapath rather than an idle wrapper.
        if lanes > 0 {
            let mut sim = NativeBatchedSimulator::new(module.as_ref().clone(), lanes)
                .expect("replayed modules validate");
            sim.set_all_u64("rst", 0);
            sim.set_all_u64("s_axis_tvalid", 1);
            sim.set_all_u64("m_axis_tready", 1);
            let port = sim.in_port("s_axis_tdata");
            let t = Instant::now();
            for _ in 0..steps {
                stim = stim.wrapping_add(0x9e37_79b9_7f4a_7c15);
                for lane in 0..lanes {
                    sim.set_port_u64(lane, port, stim ^ lane as u64);
                }
                sim.step();
            }
            out.batched_ms += t.elapsed().as_secs_f64() * 1e3;
            std::hint::black_box(&mut sim);
        } else {
            let mut sim =
                NativeSimulator::new(module.as_ref().clone()).expect("replayed modules validate");
            sim.set_u64("rst", 0);
            sim.set_u64("in_valid", 1);
            let t = Instant::now();
            for _ in 0..steps {
                stim = stim.wrapping_add(0x9e37_79b9_7f4a_7c15);
                sim.set_u64("in_data", stim);
                sim.step();
            }
            out.scalar_ms += t.elapsed().as_secs_f64() * 1e3;
            std::hint::black_box(&mut sim);
        }
    }
    out
}
