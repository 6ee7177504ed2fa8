//! §III-C procedure: synthesize, simulate, measure.
//!
//! One path measures every design: [`try_measure`] checks the port
//! contract, runs the memoized front half, drives the design's wrapper
//! with its [`Workload`]'s stimulus, compares every output block with the
//! workload's golden model and derives `T_L`, `T_P` and `Q`. A design
//! that cannot be measured is a [`MeasureError`], never a panic.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use crate::entries::{Design, DesignInterface, ToolEntry};
use crate::metrics;
use crate::par::parallel_map;
use crate::tool::ToolId;
use hc_axi::{MatrixWrapperSpec, PcieLink, ProtocolError, StreamHarness};
use hc_idct::generator::BlockGen;
use hc_idct::{fixed, Block};
use hc_kernels::KernelSpec;
use hc_rtl::passes::optimize;
use hc_rtl::{Module, ValidateError};
use hc_sim::NativeSimulator;
use hc_synth::{synthesize, Device, SynthOptions};

/// Stimulus seed of every workload: all designs of a workload see the same
/// deterministic blocks.
const STIM_SEED: u64 = 7;

/// Cycles a run may spend per block (plus four blocks of slack) before
/// the outputs still missing count as lost. Only a failing design ever
/// reaches it.
const CYCLES_PER_BLOCK: u64 = 4000;

/// Cycles a stream kernel's run keeps clocking after its last input beat
/// — deep enough for the deepest registry pipeline (the 16×16 transform's
/// auto-pipelined mac trees).
const FLUSH_CYCLES: u64 = 2000;

/// What a design computes, as its measurement sees it: the wrapper
/// geometry its ports carry, a deterministic stimulus of row-major blocks
/// and the golden model every output block must match bit for bit.
#[derive(Clone, Debug)]
pub enum Workload {
    /// The paper's Chen–Wang 8×8 IDCT (Table II, Fig. 1): 12-bit
    /// coefficients over the full range in, [`fixed::idct2d`]'s 9-bit
    /// samples out.
    Idct,
    /// A registry kernel of the benchmark matrix ([`crate::matrix`]).
    Kernel(KernelSpec),
}

impl Workload {
    /// The wrapper geometry: beats per block, elements per beat and the
    /// element widths.
    pub(crate) fn spec(&self) -> MatrixWrapperSpec {
        match self {
            Workload::Idct => MatrixWrapperSpec::idct(),
            Workload::Kernel(k) => crate::matrix::wrapper_spec(k),
        }
    }

    /// The registry kernel's id, `None` for the IDCT.
    pub(crate) fn kernel_id(&self) -> Option<&'static str> {
        match self {
            Workload::Idct => None,
            Workload::Kernel(k) => Some(k.id),
        }
    }

    /// The deterministic stimulus of an `nblocks`-block run, generated
    /// once per workload and size per process: every design of a sweep
    /// shares it, and the generator's determinism makes sharing sound.
    ///
    /// A panic while the cache lock is held poisons it; the cache is
    /// insert-only with deterministic values, so a poisoned lock carries
    /// no torn state and is taken over.
    pub(crate) fn stimulus(&self, nblocks: usize) -> Arc<Vec<Vec<i32>>> {
        let mut cache = stimulus_cache()
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        cache
            .entry((self.kernel_id(), nblocks))
            .or_insert_with(|| {
                Arc::new(match self {
                    Workload::Idct => BlockGen::new(STIM_SEED, -2048, 2047)
                        .take_blocks(nblocks)
                        .iter()
                        .map(|b| b.iter().collect())
                        .collect(),
                    Workload::Kernel(k) => k.stimulus(nblocks, STIM_SEED),
                })
            })
            .clone()
    }

    /// The golden model's output for one row-major input block.
    pub(crate) fn golden(&self, block: &[i32]) -> Vec<i32> {
        match self {
            Workload::Idct => fixed::idct2d(&Block::from_fn(|r, c| block[r * 8 + c]))
                .iter()
                .collect(),
            Workload::Kernel(k) => k.golden(block),
        }
    }
}

type StimulusCache = Mutex<HashMap<(Option<&'static str>, usize), Arc<Vec<Vec<i32>>>>>;

/// The process-wide stimulus cache behind [`Workload::stimulus`].
fn stimulus_cache() -> &'static StimulusCache {
    static CACHE: OnceLock<StimulusCache> = OnceLock::new();
    CACHE.get_or_init(Mutex::default)
}

/// Why a design could not be measured.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MeasureError {
    /// The module lacks a port its interface model drives, or has it at a
    /// width the workload's geometry does not allow.
    Interface {
        /// The offending port.
        port: &'static str,
        /// What is wrong with it.
        problem: String,
    },
    /// The simulator rejected the module as structurally invalid.
    Validate(ValidateError),
    /// Fewer output blocks than input blocks came back within the cycle
    /// budget.
    LostBlocks {
        /// Blocks fed.
        expected: usize,
        /// Blocks that came back.
        got: usize,
    },
    /// The first output element that differs from the golden model.
    Mismatch {
        /// Block index in the stimulus.
        block: usize,
        /// Row-major element index within the block.
        element: usize,
        /// The golden model's value.
        expected: i32,
        /// The design's value.
        got: i32,
    },
    /// The output stream broke an AXI-Stream stability rule.
    ///
    /// Unreachable from [`try_measure`] as it stands: a measurement drives
    /// `m_axis_tready` high on every cycle, so no output beat ever stalls
    /// and the stability checks, which run only on a stalled beat, never
    /// fire. The harness tests reach the rules with a stalling consumer.
    Protocol(ProtocolError),
}

impl fmt::Display for MeasureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeasureError::Interface { port, problem } => write!(f, "port \"{port}\": {problem}"),
            MeasureError::Validate(e) => write!(f, "invalid module: {e}"),
            MeasureError::LostBlocks { expected, got } => {
                write!(f, "lost blocks: {got} of {expected} came back")
            }
            MeasureError::Mismatch {
                block,
                element,
                expected,
                got,
            } => write!(
                f,
                "block {block} not bit-exact: element {element} is {got}, expected {expected}"
            ),
            MeasureError::Protocol(error) => write!(f, "protocol violation: {error}"),
        }
    }
}

impl std::error::Error for MeasureError {}

/// Everything measured for one design point.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Design label (configuration).
    pub label: String,
    /// Maximum clock frequency, MHz.
    pub fmax_mhz: f64,
    /// Minimum clock period, ns.
    pub t_clk_ns: f64,
    /// Latency `T_L`, cycles (including I/O transmission).
    pub latency: u64,
    /// Periodicity `T_P`, cycles between operation starts.
    pub periodicity: u64,
    /// Throughput `P`, MOPS.
    pub throughput_mops: f64,
    /// Area with default synthesis (DSPs allowed).
    pub area: hc_synth::AreaReport,
    /// Area with `maxdsp=0` (the normalization run).
    pub area_nodsp: hc_synth::AreaReport,
    /// Quality `Q = P / A` (OPS per normalized area unit).
    pub q: f64,
    /// Lines of code including configuration (`L`).
    pub loc: usize,
}

/// One Table II column pair (a tool's initial and optimized designs) plus
/// the derived cross-metrics.
#[derive(Clone, Debug)]
pub struct ToolRow {
    /// Which tool.
    pub id: ToolId,
    /// The initial design's measurement.
    pub initial: Measurement,
    /// The optimized design's measurement.
    pub optimized: Measurement,
    /// Changed lines between them (`ΔL`).
    pub delta_loc: usize,
    /// Degree of automation α, percent, for (initial, optimized).
    pub automation: (f64, f64),
    /// Controllability `C_Q`, percent (vs. the Verilog optimum).
    pub controllability: f64,
    /// Flexibility `F_Q`.
    pub flexibility: f64,
}

/// Measures one design point: checks its port contract, optimizes the
/// netlist, synthesizes twice (default and `maxdsp=0`), simulates its
/// wrapper against the golden model of its [`Workload`] and derives
/// throughput and quality.
///
/// The optimize + synthesize front-half is memoized through
/// [`crate::cache::front_half`], keyed on the module's structural hash —
/// sweep points sharing a module (Fig. 1 revisits the Table II designs
/// under many parameters) compute it once. Use [`measure_uncached`] for
/// the cold-pipeline baseline.
///
/// # Errors
///
/// A [`MeasureError`] when the design cannot be driven or is not
/// bit-exact with the golden model on the sample blocks — measurement
/// implies conformance.
pub fn try_measure(design: &Design, nblocks: usize) -> Result<Measurement, MeasureError> {
    check_ports(design)?;
    let front = crate::cache::front_half(&design.module);

    // Third tier: the persistent store also memoizes whole measurements,
    // keyed by the front-half key plus everything else the result depends
    // on (stimulus size, interface model, workload). `label` and `loc` are
    // design metadata, not derived from the module, so they come from the
    // live design, never from disk.
    let store_key = crate::persist::store().map(|store| {
        let key =
            crate::persist::measure_key(front.key, nblocks, &design.interface, &design.workload);
        let tier = crate::persist::tier_counters();
        (store, key, tier)
    });
    if let Some((store, key, tier)) = &store_key {
        if let Some(mut m) = crate::persist::load_measurement_in(store, key) {
            tier.measure_hits.inc();
            m.label = design.label.clone();
            m.loc = design.loc;
            return Ok(m);
        }
        tier.measure_misses.inc();
    }

    let module = front.module.as_ref().clone();
    let m = measure_back_half(design, nblocks, module, &front.full, &front.nodsp)?;
    if let Some((store, key, _)) = &store_key {
        crate::persist::save_measurement_in(store, key, &m);
    }
    Ok(m)
}

/// [`try_measure`] for batch sweeps, where a failing design is a bug.
///
/// # Panics
///
/// Panics with the [`MeasureError`] if the design fails to measure.
pub fn measure(design: &Design, nblocks: usize) -> Measurement {
    try_measure(design, nblocks).unwrap_or_else(|e| panic!("{}: {e}", design.label))
}

/// The legacy cold pipeline: clone, optimize, synthesize twice and
/// simulate, sharing nothing across points. This is what every sweep did
/// before the memo cache existed; the fig1 benchmark keeps it as its
/// serial baseline so `fig1_speedup` measures the end-to-end win of the
/// cached + chunked driver over the old per-point pipeline.
///
/// # Panics
///
/// As [`measure`].
pub fn measure_uncached(design: &Design, nblocks: usize) -> Measurement {
    let measured = check_ports(design).and_then(|()| {
        let mut module = design.module.clone();
        optimize(&mut module);
        let device = Device::xcvu9p();
        let full = synthesize(&module, &device, &SynthOptions::default());
        let nodsp = synthesize(&module, &device, &SynthOptions::no_dsp());
        measure_back_half(design, nblocks, module, &full, &nodsp)
    });
    measured.unwrap_or_else(|e| panic!("{}: {e}", design.label))
}

/// Checks that the design's module carries every port its interface model
/// drives, at the widths its workload's geometry implies: `rst` plus the
/// `s_axis_*`/`m_axis_*` bundles of an AXIS wrapper, or the
/// `in_*`/`out_*` ports of a stream kernel, whose `in_data` carries a
/// whole number of rows per beat.
fn check_ports(design: &Design) -> Result<(), MeasureError> {
    let module = &design.module;
    let spec = design.workload.spec();
    let width = |port: &'static str, input: bool| {
        let found = if input {
            module.input_named(port).map(|p| p.width)
        } else {
            module
                .output_named(port)
                .and_then(|o| module.nodes().get(o.node.index()))
                .map(|n| n.width)
        };
        found.ok_or_else(|| MeasureError::Interface {
            port,
            problem: format!("missing {}", if input { "input" } else { "output" }),
        })
    };
    let expect = |port: &'static str, input: bool, want: u32| {
        let w = width(port, input)?;
        if w == want {
            Ok(())
        } else {
            Err(MeasureError::Interface {
                port,
                problem: format!("{w} bits wide, expected {want}"),
            })
        }
    };
    expect("rst", true, 1)?;
    match design.interface {
        DesignInterface::Axis => {
            expect("s_axis_tvalid", true, 1)?;
            expect("s_axis_tdata", true, spec.in_row_width())?;
            expect("m_axis_tready", true, 1)?;
            expect("s_axis_tready", false, 1)?;
            expect("m_axis_tvalid", false, 1)?;
            expect("m_axis_tdata", false, spec.out_row_width())
        }
        DesignInterface::Stream { .. } => {
            expect("in_valid", true, 1)?;
            let w = width("in_data", true)?;
            let row = spec.in_row_width();
            let block = row * spec.rows;
            if !w.is_multiple_of(row) || !block.is_multiple_of(w) {
                return Err(MeasureError::Interface {
                    port: "in_data",
                    problem: format!(
                        "{w} bits wide, expected whole {row}-bit rows dividing the {block}-bit block"
                    ),
                });
            }
            expect("out_valid", false, 1)?;
            expect("out_data", false, spec.elems() as u32 * spec.out_elem_width)
        }
    }
}

/// Simulates the (already optimized) module on its workload, checks the
/// outputs against the golden model and assembles the [`Measurement`]
/// from the two synthesis reports.
///
/// Every measurement runs one stimulus stream through the one
/// [`StreamHarness`] on the scalar JIT ([`NativeSimulator`]), AXIS
/// wrappers and stream kernels alike; only the cycle budget depends on the
/// interface. Table II takes 3 blocks, Fig. 1 and the kernel matrix 2, and
/// at one lane the lane-batched vector JIT leaves three of every four
/// `ymm` lanes idle: the scalar JIT built and ran all 94 AXIS designs
/// faster with identical outputs and `T_L`/`T_P`, and the stream kernels
/// 1.9–3.3× faster per cycle. A 64-block `/v1/measure`, which would fill
/// 16 lanes, takes about 2.2× as long here as on the batched harness;
/// that harness stays with the IEEE 1180 runs (EXPERIMENTS.md, "Engine
/// ladder"). Off x86-64 (or under `HC_NO_NATIVE=1`) the engine degrades
/// to the tape interpreter with identical results.
fn measure_back_half(
    design: &Design,
    nblocks: usize,
    module: Module,
    full: &hc_synth::SynthReport,
    nodsp: &hc_synth::SynthReport,
) -> Result<Measurement, MeasureError> {
    let fmax = full.timing.fmax_mhz();
    let workload = &design.workload;
    let blocks = workload.stimulus(nblocks.max(2));
    let mut span = hc_obs::span("simulate").with("design", design.label.as_str());
    span.attach("blocks", blocks.len());
    let mut harness = StreamHarness::<NativeSimulator>::with_spec(module, workload.spec())
        .map_err(MeasureError::Validate)?;
    let budget = match design.interface {
        DesignInterface::Axis => CYCLES_PER_BLOCK * (blocks.len() as u64 + 4),
        DesignInterface::Stream { .. } => harness.input_beats(blocks.len()) + FLUSH_CYCLES,
    };
    let (outputs, timing) = harness.run_flat(&blocks, budget);
    if outputs.len() != blocks.len() {
        return Err(MeasureError::LostBlocks {
            expected: blocks.len(),
            got: outputs.len(),
        });
    }
    for (block, (input, output)) in blocks.iter().zip(&outputs).enumerate() {
        let golden = workload.golden(input);
        if let Some(element) = golden.iter().zip(output).position(|(g, o)| g != o) {
            return Err(MeasureError::Mismatch {
                block,
                element,
                expected: golden[element],
                got: output[element],
            });
        }
    }
    if let Some((_, error)) = harness.protocol_errors.into_iter().next() {
        return Err(MeasureError::Protocol(error));
    }
    span.attach("latency", timing.latency);
    span.attach("periodicity", timing.periodicity);
    drop(span);

    let throughput_mops = match design.interface {
        DesignInterface::Axis => fmax / timing.periodicity as f64,
        DesignInterface::Stream { bits_per_op } => {
            let pcie = PcieLink::gen3_x16().ops_per_second(bits_per_op) / 1e6;
            pcie.min(fmax / timing.periodicity as f64)
        }
    };
    let q = metrics::quality(throughput_mops, nodsp.area.normalized());

    Ok(Measurement {
        label: design.label.clone(),
        fmax_mhz: fmax,
        t_clk_ns: full.timing.t_clk_ns,
        latency: timing.latency,
        periodicity: timing.periodicity,
        throughput_mops,
        area: full.area,
        area_nodsp: nodsp.area,
        q,
        loc: design.loc,
    })
}

/// Measures every tool's initial and optimized designs and derives the
/// cross-tool metrics of Table II. `nblocks` controls simulation effort.
///
/// The 2×N design points are independent, so they fan out across the
/// available cores; results are reassembled in tool order, making the
/// output identical to a serial run.
pub fn measure_all(tools: &[ToolEntry], nblocks: usize) -> Vec<ToolRow> {
    let designs: Vec<&Design> = tools
        .iter()
        .flat_map(|t| [&t.initial, &t.optimized])
        .collect();
    let mut points = parallel_map(&designs, |d| measure(d, nblocks)).into_iter();
    let measured: Vec<(Measurement, Measurement)> = tools
        .iter()
        .map(|_| {
            let initial = points.next().expect("one result per design");
            let optimized = points.next().expect("one result per design");
            (initial, optimized)
        })
        .collect();
    let verilog_idx = tools
        .iter()
        .position(|t| t.info.id == ToolId::Verilog)
        .expect("the Verilog baseline is part of every run");
    let verilog_best_q = measured[verilog_idx].1.q;
    let verilog_loc = (measured[verilog_idx].0.loc, measured[verilog_idx].1.loc);

    tools
        .iter()
        .zip(measured)
        .map(|(t, (initial, optimized))| {
            let automation = (
                metrics::automation(initial.loc, verilog_loc.0),
                metrics::automation(optimized.loc, verilog_loc.1),
            );
            let controllability = metrics::controllability(optimized.q, verilog_best_q);
            let flexibility = metrics::flexibility(optimized.q, initial.q, t.delta_loc);
            ToolRow {
                id: t.info.id,
                initial,
                optimized,
                delta_loc: t.delta_loc,
                automation,
                controllability,
                flexibility,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entries::{axis, pcie_stream};
    use hc_axi::{wrap_comb_matrix, BatchedStreamHarness};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// The AXIS port bundle around a pass-through core that accepts every
    /// beat; `tvalid_low` ties `m_axis_tvalid` low instead.
    fn axis_shell(rst: bool, tdata: u32, tvalid_low: bool) -> Module {
        let mut m = Module::new("axis_shell");
        if rst {
            m.input("rst", 1);
        }
        let valid = m.input("s_axis_tvalid", 1);
        let data = m.input("s_axis_tdata", tdata);
        m.input("m_axis_tready", 1);
        let one = m.const_u(1, 1);
        m.output("s_axis_tready", one);
        let out_valid = if tvalid_low { m.const_u(1, 0) } else { valid };
        m.output("m_axis_tvalid", out_valid);
        let out = m.slice(data, 0, 72);
        m.output("m_axis_tdata", out);
        m
    }

    /// The variant of a measurement error and the field a test pins.
    fn tag(e: &MeasureError) -> String {
        match e {
            MeasureError::Interface { port, .. } => format!("interface {port}"),
            MeasureError::Validate(_) => "validate".to_owned(),
            MeasureError::LostBlocks { expected, got } => format!("lost {got} of {expected}"),
            MeasureError::Mismatch { block, .. } => format!("mismatch at block {block}"),
            MeasureError::Protocol(_) => "protocol".to_owned(),
        }
    }

    #[test]
    fn try_measure_returns_typed_errors() {
        let stream = {
            let mut m = Module::new("stream_100");
            m.input("rst", 1);
            let valid = m.input("in_valid", 1);
            m.input("in_data", 100);
            m.output("out_valid", valid);
            let out = m.const_u(576, 0);
            m.output("out_data", out);
            m
        };
        let identity = wrap_comb_matrix("identity", MatrixWrapperSpec::idct(), |m, elems| {
            elems.iter().map(|&e| m.slice(e, 0, 9)).collect()
        });
        let cases = [
            (
                axis("no_rst", axis_shell(false, 96, false), 0),
                "interface rst",
            ),
            (
                axis("wide_tdata", axis_shell(true, 100, false), 0),
                "interface s_axis_tdata",
            ),
            (pcie_stream("stream_100", stream, 0), "interface in_data"),
            (axis("identity", identity, 0), "mismatch at block 0"),
            (
                axis("tvalid_low", axis_shell(true, 96, true), 0),
                "lost 0 of 2",
            ),
        ];
        for (design, want) in cases {
            let result = catch_unwind(AssertUnwindSafe(|| try_measure(&design, 2)));
            let err = result
                .unwrap_or_else(|_| panic!("{}: try_measure panicked", design.label))
                .expect_err("a bad design cannot measure");
            assert_eq!(tag(&err), want, "{}: {err}", design.label);
        }
    }

    #[test]
    fn try_measure_reports_bad_designs_instead_of_dying() {
        // A module without the AXIS contract can't be driven: try_measure
        // names the first missing port.
        let mut m = Module::new("not_an_idct");
        let a = m.input("a", 8);
        m.output("y", a);
        let err = try_measure(&axis("bad", m, 1), 2).expect_err("a portless design cannot measure");
        assert!(err.to_string().contains("\"rst\""), "{err}");
        // The path stays healthy afterwards: a real design still measures.
        let good = axis(
            "good",
            hc_verilog::designs::initial_design().expect("parses"),
            1,
        );
        let meas = try_measure(&good, 2).expect("the Verilog initial design measures");
        assert!(meas.throughput_mops > 0.0);
    }

    /// The scalar harness every AXIS measurement runs must reproduce, on
    /// every Fig. 1 AXIS point, the outputs and `T_L`/`T_P` of the 1-lane
    /// batched harness, and `try_measure` must report those figures.
    #[test]
    fn scalar_route_matches_the_batched_harness_on_every_fig1_point() {
        let mut points = 0;
        for tool in crate::matrix::MATRIX_TOOLS {
            for design in crate::entries::dse_points(tool) {
                if design.interface != DesignInterface::Axis {
                    continue;
                }
                let label = &design.label;
                let blocks = design.workload.stimulus(2);
                let budget = CYCLES_PER_BLOCK * (blocks.len() as u64 + 4);
                let module = crate::cache::front_half(&design.module)
                    .module
                    .as_ref()
                    .clone();
                let spec = design.workload.spec();

                let mut scalar =
                    StreamHarness::<NativeSimulator>::with_spec(module.clone(), spec).unwrap();
                let (outputs, timing) = scalar.run_flat(&blocks, budget);
                let mut batched = BatchedStreamHarness::with_spec(module, 1, spec).unwrap();
                let (batched_outputs, batched_timing) = batched.run_blocks_flat(&blocks, budget);
                assert_eq!(outputs, batched_outputs, "{tool:?} {label}: outputs");
                assert_eq!(timing, batched_timing, "{tool:?} {label}: T_L/T_P");
                assert!(scalar.protocol_errors.is_empty(), "{tool:?} {label}");
                assert!(batched.protocol_errors.is_empty(), "{tool:?} {label}");

                let m = try_measure(&design, 2).unwrap_or_else(|e| panic!("{tool:?} {label}: {e}"));
                assert_eq!(
                    (m.latency, m.periodicity),
                    (timing.latency, timing.periodicity),
                    "{tool:?} {label}: measured T_L/T_P"
                );
                points += 1;
            }
        }
        assert_eq!(points, 70, "every Fig. 1 AXIS point");
    }

    /// A long `/v1/measure` run (6 to 64 blocks) streams every block through
    /// one scalar harness. Each Table II design must still match the golden
    /// model on every block and report the `T_L`/`T_P` lane 0 of the
    /// lane-batched harness gives at that length.
    #[test]
    fn long_runs_match_the_batched_harness_on_every_table2_design() {
        for nblocks in [6, 64] {
            for tool in crate::entries::all_tools() {
                for design in [&tool.initial, &tool.optimized] {
                    if design.interface != DesignInterface::Axis {
                        continue;
                    }
                    let label = &design.label;
                    let blocks = design.workload.stimulus(nblocks);
                    let lanes = hc_axi::lanes_for_blocks(nblocks);
                    let module = crate::cache::front_half(&design.module)
                        .module
                        .as_ref()
                        .clone();
                    let mut batched =
                        BatchedStreamHarness::with_spec(module, lanes, design.workload.spec())
                            .unwrap();
                    let budget = CYCLES_PER_BLOCK * (blocks.len() as u64 + 4);
                    let (_, timing) = batched.run_blocks_flat(&blocks, budget);

                    let m = try_measure(design, nblocks)
                        .unwrap_or_else(|e| panic!("{label} x{nblocks}: {e}"));
                    assert_eq!(
                        (m.latency, m.periodicity),
                        (timing.latency, timing.periodicity),
                        "{label} x{nblocks}: T_L/T_P"
                    );
                }
            }
        }
    }

    /// `T_L`/`T_P` of every stream design the repo measures, at the block
    /// counts its sweeps use: the MaxJ Table II pair (3 blocks), the same
    /// two kernels as Fig. 1 points (2 blocks) and the four dataflow
    /// cells of the kernel matrix (2 blocks). The figures were recorded
    /// from the stream drive that predates the one harness; perfbench's
    /// frozen reference holds the same six designs at 2 blocks.
    #[test]
    fn stream_timing_is_pinned() {
        #[rustfmt::skip]
        let expected: &[(&str, usize, u64, u64)] = &[
            // (label, blocks, latency, periodicity)
            ("matrix/cycle",           3, 48, 1),
            ("row/cycle",              3, 56, 8),
            ("matrix/cycle",           2, 48, 1),
            ("row/cycle",              2, 56, 8),
            ("matrix.dct8.dataflow",   2, 46, 1),
            ("matrix.fir32.dataflow",  2, 52, 1),
            ("matrix.idct4.dataflow",  2, 29, 1),
            ("matrix.idct16.dataflow", 2, 80, 1),
        ];
        let maxj = crate::entries::all_tools()
            .into_iter()
            .find(|t| t.info.id == ToolId::Maxj)
            .expect("MaxJ is a Table II tool");
        let mut designs: Vec<(Design, usize)> = vec![(maxj.initial, 3), (maxj.optimized, 3)];
        designs.extend(
            crate::entries::dse_points(ToolId::Maxj)
                .into_iter()
                .map(|d| (d, 2)),
        );
        designs.extend(
            hc_kernels::kernels()
                .iter()
                .map(|spec| (crate::matrix::cell_design(spec, ToolId::Maxj), 2)),
        );
        let actual: Vec<(&str, usize, u64, u64)> = designs
            .iter()
            .map(|(design, n)| {
                assert!(matches!(design.interface, DesignInterface::Stream { .. }));
                let m = try_measure(design, *n).unwrap_or_else(|e| panic!("{}: {e}", design.label));
                (design.label.as_str(), *n, m.latency, m.periodicity)
            })
            .collect();
        assert_eq!(actual, expected, "stream T_L/T_P drifted");
    }

    #[test]
    fn sample_blocks_recovers_from_poisoned_cache() {
        // A sweep task panicking while holding the stimulus cache lock
        // used to poison the mutex and abort every later sweep in the
        // process.
        let result = catch_unwind(AssertUnwindSafe(|| {
            let items: Vec<u32> = (0..4).collect();
            parallel_map(&items, |&x| {
                if x == 2 {
                    let _guard = stimulus_cache()
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner);
                    panic!("sweep task died mid-measure");
                }
                x
            });
        }));
        assert!(result.is_err(), "the panic must propagate out of the sweep");
        // The next sweep's stimulus generation still completes and the
        // cache still memoizes.
        let stim = Workload::Idct.stimulus(3);
        assert_eq!(stim.len(), 3);
        assert!(stim.iter().all(|b| b.len() == 64));
        let again = Workload::Idct.stimulus(3);
        assert!(Arc::ptr_eq(&stim, &again), "cache lost its memoization");
    }
}
