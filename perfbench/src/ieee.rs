//! `ieee1180_rtl`: the §III-B compliance run through the Verilog
//! `opt_rowcol` design on the lane-batched RTL simulator.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use hc_idct::ieee1180::{measure_range_batched, STANDARD_BLOCKS, STANDARD_RANGES};

use crate::layers::Replay;
use crate::reference::{check_range, RangeRef, Reference};
use crate::trace;
use crate::{Op, Pass, Rng, Timer, Workload};

pub struct Ieee1180 {
    module: Option<Arc<hc_rtl::Module>>,
    /// The six range/sign runs in the standard's order.
    runs: Vec<(i32, i32, bool)>,
    /// Draws each pass's order of the runs.
    rng: Rng,
    reference: Reference,
}

fn standard_runs() -> Vec<(i32, i32, bool)> {
    STANDARD_RANGES
        .iter()
        .flat_map(|&(l, h)| [(l, h, false), (l, h, true)])
        .collect()
}

impl Ieee1180 {
    pub fn new(seed: u64) -> Ieee1180 {
        Ieee1180 {
            module: None,
            runs: standard_runs(),
            rng: Rng::new(seed),
            reference: Reference::frozen(),
        }
    }

    /// The software fixed-point path's statistics (what `--freeze`
    /// records and the RTL runs must equal).
    pub fn freeze() -> Vec<RangeRef> {
        standard_runs()
            .into_iter()
            .map(|(l, h, negate)| {
                let s = hc_idct::ieee1180::measure_range(
                    &mut |b| hc_idct::fixed::idct2d(b),
                    l,
                    h,
                    STANDARD_BLOCKS,
                    negate,
                );
                RangeRef::of(l, h, negate, &s)
            })
            .collect()
    }
}

impl Workload for Ieee1180 {
    fn setup(&mut self) {
        let _s = hc_obs::span("verilog.elab");
        self.module = Some(Arc::new(
            hc_verilog::designs::opt_rowcol().expect("shipped sources parse"),
        ));
    }

    fn pass(&mut self) -> Pass {
        let module = self.module.as_ref().expect("set up before the first pass");
        let traced = hc_obs::trace::enabled();
        let mut replays = Vec::new();
        let start = Instant::now();
        let mut ops = Vec::with_capacity(self.runs.len());
        for i in self.rng.permutation(self.runs.len()) {
            let (l, h, negate) = self.runs[i];
            let _op = trace::op_span(i as u64 + 1, false);
            let t = Timer::start();
            let stats = catch_unwind(AssertUnwindSafe(|| {
                let mut rtl = hc_bench::rtl_idct_batched(module.as_ref().clone());
                // The stimulus, f64 reference and statistics are the
                // golden side; each call of the RTL IDCT is the harness
                // (its engine compile nests inside as `sim.compile`).
                let _golden = hc_obs::span("idct.golden");
                measure_range_batched(
                    &mut |batch| {
                        let _harness = hc_obs::span("axi.harness");
                        if traced {
                            replays.push(Replay::IdctBatch {
                                module: Arc::clone(module),
                                nblocks: batch.len(),
                            });
                        }
                        rtl(batch)
                    },
                    l,
                    h,
                    STANDARD_BLOCKS,
                    negate,
                )
            }));
            ops.push(Op::checked(i, t.ms(), stats, |s| {
                check_range(
                    self.reference.range(l, h, negate),
                    &RangeRef::of(l, h, negate, s),
                    s.is_compliant(),
                )
            }));
        }
        Pass {
            wall_s: start.elapsed().as_secs_f64(),
            ops,
            extras: Vec::new(),
            replays,
        }
    }
}
