//! `fig1_cold` and `matrix`: parallel design sweeps that re-elaborate and
//! start from a cleared front-half cache on every pass.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use hc_core::entries::{dse_points, Design, DesignInterface};
use hc_core::matrix::{cell_design, tool_slug, MATRIX_TOOLS};
use hc_core::tool::ToolId;
use hc_kernels::KernelSpec;

use crate::layers::Replay;
use crate::reference::{check_design, DesignRef, Reference};
use crate::trace;
use crate::{Op, Pass, Rng, Timer, Workload, WORKERS};

/// Simulated blocks per design point, as in `hc-bench`'s Fig. 1 sweeps.
const NBLOCKS: usize = 2;

/// Latency, in cycles, from which a design point counts as a long
/// sequential run (only `matrix.idct16.hls_bambu`, at 9 506).
const LONG_T_L: u64 = 5_000;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Every (tool, DSE point) of Fig. 1: 72 points.
    Fig1,
    /// Every registry kernel × frontend cell: 28 cells.
    Matrix,
}

struct Item {
    key: String,
    design: Design,
    spec: Option<KernelSpec>,
}

pub struct Sweep {
    kind: Kind,
    len: usize,
    /// Draws each pass's order of the work list.
    rng: Rng,
    reference: Reference,
}

/// The span around one frontend's constructors.
fn elab_span(tool: ToolId) -> &'static str {
    match tool {
        ToolId::Verilog => "verilog.elab",
        ToolId::Chisel => "construct.elab",
        ToolId::Bsv => "rules.elab",
        ToolId::Dslx => "flow.elab",
        ToolId::Maxj => "dataflow.elab",
        ToolId::CBambu | ToolId::CVivadoHls => "hls.elab",
    }
}

fn elaborate(kind: Kind) -> Vec<Item> {
    let mut items = Vec::new();
    match kind {
        Kind::Fig1 => {
            for tool in MATRIX_TOOLS {
                let points = {
                    let _s = hc_obs::span(elab_span(tool));
                    dse_points(tool)
                };
                items.extend(points.into_iter().map(|design| Item {
                    key: format!("{}:{}", tool_slug(tool), design.label),
                    design,
                    spec: None,
                }));
            }
        }
        Kind::Matrix => {
            for spec in hc_kernels::kernels() {
                for tool in MATRIX_TOOLS {
                    let design = {
                        let _s = hc_obs::span(elab_span(tool));
                        cell_design(&spec, tool)
                    };
                    items.push(Item {
                        key: design.label.clone(),
                        design,
                        spec: Some(spec.clone()),
                    });
                }
            }
        }
    }
    items
}

impl Sweep {
    pub fn new(kind: Kind, seed: u64) -> Sweep {
        Sweep {
            kind,
            len: match kind {
                Kind::Fig1 => 72,
                Kind::Matrix => 28,
            },
            rng: Rng::new(seed),
            reference: Reference::frozen(),
        }
    }

    /// The program's reference measurement of every item, in elaboration
    /// order (what `--freeze` records).
    pub fn freeze(kind: Kind) -> Vec<DesignRef> {
        elaborate(kind)
            .iter()
            .map(|item| DesignRef::of(item.key.clone(), &measure(item)))
            .collect()
    }
}

/// The program's measurement of one item.
fn measure(item: &Item) -> hc_core::measure::Measurement {
    match &item.spec {
        Some(spec) => hc_core::matrix::measure_cell(spec, &item.design, NBLOCKS),
        None => hc_core::measure::measure(&item.design, NBLOCKS),
    }
}

impl Workload for Sweep {
    fn setup(&mut self) {
        let items = elaborate(self.kind);
        assert_eq!(items.len(), self.len, "work list size changed");
    }

    fn pass(&mut self) -> Pass {
        let traced = hc_obs::trace::enabled();
        hc_core::cache::clear();
        let start = Instant::now();
        let mut items: Vec<Option<Item>> = elaborate(self.kind).into_iter().map(Some).collect();
        let mut work: Vec<(usize, Item)> = self
            .rng
            .permutation(items.len())
            .into_iter()
            .map(|j| (j, items[j].take().expect("a permutation")))
            .collect();
        // Long sequential cells start first, as a scheduler balancing two
        // workers would order them; otherwise where the seed happens to
        // put `idct16.hls_bambu` decides the pass's wall time.
        work.sort_by_key(|(_, item)| {
            std::cmp::Reverse(
                self.reference
                    .design(&item.key)
                    .is_some_and(|d| d.t_l >= LONG_T_L),
            )
        });
        let sweep_start = Instant::now();
        let outcomes = hc_core::par::parallel_map(&work, |(id, item)| {
            let stream = matches!(item.design.interface, DesignInterface::Stream { .. });
            let _op = trace::op_span(*id as u64 + 1, stream);
            let t = Timer::start();
            let m = catch_unwind(AssertUnwindSafe(|| measure(item)));
            (t.ms(), m)
        });
        let sweep_s = sweep_start.elapsed().as_secs_f64();
        let wall_s = start.elapsed().as_secs_f64();

        let mut extras = Vec::new();
        let mut replays = Vec::new();
        let ops: Vec<Op> = work
            .into_iter()
            .zip(outcomes)
            .map(|((id, item), (time, m))| {
                if let (true, Ok(m)) = (traced, &m) {
                    replays.push(Replay::Design {
                        stream: matches!(item.design.interface, DesignInterface::Stream { .. }),
                        module: Box::new(item.design.module.clone()),
                        spec: item.spec.clone(),
                        nblocks: NBLOCKS,
                        t_l: m.latency,
                        t_p: m.periodicity,
                    });
                }
                let got = m.map(|m| DesignRef::of(item.key.clone(), &m));
                Op::checked(id, time, got, |got| {
                    check_design(self.reference.design(&item.key), got)
                })
            })
            .collect();
        if !traced {
            let busy: f64 = ops.iter().map(|o| o.ms).sum::<f64>() / 1e3;
            extras.push(("core.par.busy_frac", busy / (WORKERS as f64 * sweep_s)));
            let (hits, misses) = hc_core::cache::stats();
            extras.push((
                "core.cache.front_hit_ratio",
                hits as f64 / (hits + misses).max(1) as f64,
            ));
        }
        Pass {
            wall_s,
            ops,
            extras,
            replays,
        }
    }
}
