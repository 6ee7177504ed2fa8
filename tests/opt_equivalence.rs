//! Differential guarantees for the optimization pass pipeline.
//!
//! The oracle is the *unoptimized* module on the interpreted backend —
//! the netlist exactly as the frontend emitted it, executed by the
//! reference engine. Every Table II design must produce bit-identical
//! outputs and identical `T_L`/`T_P` after the full pass pipeline, the
//! pipeline must be idempotent (a second run changes nothing), and the
//! compiled-tape shrink the PR claims (≥ 20% on at least two Table II
//! designs) is pinned here so it cannot silently regress. The optimized
//! netlist of every shipped design (Table II, Fig. 1, kernel matrix) is
//! pinned by content hash, so a pass change that moves synthesized area
//! or Q shows up here first, and the tape the compiled engine builds from
//! it by its instruction, part and slot counts.

use hls_vs_hc::axi::{BatchedStreamHarness, StreamHarness};
use hls_vs_hc::core::entries::{all_tools, dse_points, Design, DesignInterface};
use hls_vs_hc::core::matrix::matrix_cells;
use hls_vs_hc::idct::generator::BlockGen;
use hls_vs_hc::kernels::kernels;
use hls_vs_hc::rtl::hash::content_hash;
use hls_vs_hc::rtl::passes::{optimize, optimize_with, PassConfig};
use hls_vs_hc::sim::{CompiledSimulator, SimBackend, Simulator};
use proptest::prelude::*;

fn optimized_module(design: &Design) -> hls_vs_hc::rtl::Module {
    let mut module = design.module.clone();
    optimize(&mut module);
    module
}

/// AXI designs: outputs and `T_L`/`T_P` of the optimized netlist (on the
/// compiled engine, as measured) against the unoptimized interpreter.
fn check_axis(design: &Design, inputs: &[[[i32; 8]; 8]]) {
    let budget = 2000 * (inputs.len() as u64 + 4);
    let mut oracle = StreamHarness::new(design.module.clone()).expect("validates");
    let mut opt = StreamHarness::compiled(optimized_module(design)).expect("validates");
    let (oout, otiming) = oracle.run(inputs, budget);
    let (pout, ptiming) = opt.run(inputs, budget);
    assert_eq!(oout, pout, "{}: outputs diverge after passes", design.label);
    assert_eq!(
        otiming, ptiming,
        "{}: T_L/T_P diverge after passes",
        design.label
    );
}

/// Raw-stream kernels: a port trace with a dense stimulus. `salt = 0`
/// reproduces the fixed pattern the deterministic tests pin; a nonzero
/// salt perturbs every input word for property-based runs.
fn stream_trace<B: SimBackend>(
    mut sim: B,
    cycles: u64,
    salt: u64,
) -> Vec<(bool, hls_vs_hc::bits::Bits)> {
    let width = sim.module().input_named("in_data").expect("port").width;
    sim.set_u64("rst", 1);
    sim.set_u64("in_valid", 0);
    sim.step();
    sim.set_u64("rst", 0);
    sim.set_u64("in_valid", 1);
    let mut trace = Vec::new();
    for cycle in 0..cycles {
        let mut word = hls_vs_hc::bits::Bits::zero(width);
        for w in (0..width).step_by(48) {
            let chunk = (width - w).min(48);
            let base = cycle.wrapping_mul(0x9e37_79b9).rotate_left(w);
            word.deposit_u64(w, chunk, base ^ salt.rotate_left(cycle as u32 + w));
        }
        sim.set("in_data", word);
        trace.push((sim.get("out_valid").to_bool(), sim.get("out_data")));
        sim.step();
    }
    trace
}

fn check_stream(design: &Design) {
    let oracle = Simulator::new(design.module.clone()).expect("validates");
    let opt = CompiledSimulator::new(optimized_module(design)).expect("validates");
    assert_eq!(
        stream_trace(oracle, 200, 0),
        stream_trace(opt, 200, 0),
        "{}: stream traces diverge after passes",
        design.label
    );
}

#[test]
fn optimized_netlists_match_the_unoptimized_interpreter_oracle() {
    let blocks = BlockGen::new(23, -2048, 2047).take_blocks(2);
    let inputs: Vec<[[i32; 8]; 8]> = blocks.iter().map(|b| b.0).collect();
    for tool in all_tools() {
        for design in [&tool.initial, &tool.optimized] {
            match design.interface {
                DesignInterface::Axis => check_axis(design, &inputs),
                DesignInterface::Stream { .. } => check_stream(design),
            }
        }
    }
}

/// Running the pipeline a second time on any Table II design must change
/// nothing — neither the report accounting nor the node list.
#[test]
fn pass_pipeline_is_idempotent_on_every_table2_design() {
    for tool in all_tools() {
        for design in [&tool.initial, &tool.optimized] {
            let mut module = design.module.clone();
            optimize_with(&mut module, &PassConfig::all());
            let nodes: Vec<_> = module.nodes().iter().map(|nd| nd.node.clone()).collect();
            let second = optimize_with(&mut module, &PassConfig::all());
            assert!(
                !second.changed(),
                "{}: second pipeline run changed sizes: {second:?}",
                design.label
            );
            let nodes2: Vec<_> = module.nodes().iter().map(|nd| nd.node.clone()).collect();
            assert_eq!(
                nodes, nodes2,
                "{}: second pipeline run reordered nodes",
                design.label
            );
        }
    }
}

/// The PR's headline claim: the pipeline shrinks the compiled tape by at
/// least 20% on two or more Table II designs.
#[test]
fn tape_shrinks_at_least_20_percent_on_two_designs() {
    let mut big_shrinks = Vec::new();
    for tool in all_tools() {
        for design in [&tool.initial, &tool.optimized] {
            let plain = CompiledSimulator::new(design.module.clone())
                .expect("validates")
                .tape_stats()
                .0;
            let opt = CompiledSimulator::new(optimized_module(design))
                .expect("validates")
                .tape_stats()
                .0;
            let shrink = (plain.saturating_sub(opt)) as f64 / plain.max(1) as f64;
            if shrink >= 0.20 {
                big_shrinks.push((design.label.clone(), plain, opt));
            }
        }
    }
    assert!(
        big_shrinks.len() >= 2,
        "expected >= 2 Table II designs with >= 20% tape shrink, got {big_shrinks:?}"
    );
}

/// Optimized-module content hashes of every shipped design, recorded
/// before the passes were rewritten to edit modules in place. Any change
/// to what the pipeline emits (a node, its order, width or name, a port,
/// register or memory) changes a hash. `content_hash` feeds `usize`
/// lengths as eight bytes, so the values hold on 64-bit hosts.
/// Table II designs: every tool's initial, then optimized design.
const TABLE2_OPTIMIZED: [(&str, u128); 14] = [
    ("initial", 0x7ee95d74dac75afd6014430a661a5b04),
    ("opt(1row+1col)", 0xa93a6e7581ee4ce42cb2916b7ddb1259),
    ("initial", 0x5e695f84e15fe6747af85fd5c730699d),
    ("opt(1row+1col)", 0x3435bc2823ca5ac38114771f2cb48b1a),
    ("initial(C translation)", 0x8c369e6eed5b2df04d44c8ccfd9aaa01),
    ("opt(1row+1col)", 0xddff24c5a38aba170b91d3a6f7b05678),
    ("stages=0(comb)", 0x464df769df8d0a112f4e69a3157c6a20),
    ("stages=8", 0x165bba4600ff7b597868f6a70804bf4a),
    ("matrix/cycle", 0xe857610c524e1361e38c3c05797e1d86),
    ("row/cycle", 0x19b7587a1aa237bffc1bac0a2b25c4ba),
    ("MEM_ACC_11+LSS", 0xe11b60cf7be18d08767ddb891ce06de5),
    ("PERFORMANCE-MP+sdc", 0x9b4a1e1d1d682c9ddf703c78322fbc0c),
    ("push-button", 0x3340edbcb35d919e1a0f0d1cbede533b),
    (
        "pipeline+partition+inline",
        0x97e44ca0dda04ecf09c8c9fecd690be8,
    ),
];

/// Fig. 1 design-space points, in sweep order.
const FIG1_OPTIMIZED: [(&str, u128); 72] = [
    ("8row+8col", 0x7ee95d74dac75afd6014430a661a5b04),
    ("1row+8col", 0xfacd98d76dbcf2204820d24794691afb),
    ("1row+1col", 0xa93a6e7581ee4ce42cb2916b7ddb1259),
    ("8row+8col", 0x5e695f84e15fe6747af85fd5c730699d),
    ("1row+1col", 0x3435bc2823ca5ac38114771f2cb48b1a),
    ("seq,urgency0", 0x8c369e6eed5b2df04d44c8ccfd9aaa01),
    ("seq,urgency1", 0x42f269eb18147e6049a6719678ded2fd),
    ("seq,urgency2", 0xbde72ec2ffc03347e5fdac311672e696),
    ("seq,urgency3", 0x4a478d3855455cba1567e790f432f00f),
    ("seq,urgency4", 0x93ecac0eedb967dfd65037f0512c142e),
    ("seq,urgency5", 0x1c588b60357a4286d45efe19cf22528b),
    ("rowcol,urgency0", 0xddff24c5a38aba170b91d3a6f7b05678),
    ("rowcol,urgency1", 0x15d87c080fca0038b7128bf58def7baf),
    ("rowcol,urgency2", 0xa73d86a9c46879ab7811301f9fd348ac),
    ("rowcol,urgency3", 0x7cc593f00885cb395a018971b18466b2),
    ("rowcol,urgency4", 0xafe5d89492921d21de41e256691d09a6),
    ("rowcol,urgency5", 0x436e66c4dcf7ae1335f0240f6c102430),
    ("rowcol,urgency6", 0xf1e9fa1c277f52f6097b8f2193789cb5),
    ("rowcol,urgency7", 0xe970299175618d681173f1957c046eab),
    ("rowcol,urgency8", 0xc78df5ebe5341cd22d86e7ad3461fc61),
    ("rowcol,urgency9", 0xf2fa044e07e75da1767b0ede627064a2),
    ("rowcol,urgency10", 0x4893cee8fc29b5a79b1134b2b57d7104),
    ("rowcol,urgency11", 0xfb82780e9549f295beabaa7fcf211dd6),
    ("rowcol,urgency12", 0xdeb659692e553017f08b7326c934d860),
    ("rowcol,urgency13", 0xd34e64fa92aeb4493104734101ed42ca),
    ("rowcol,urgency14", 0xddff24c5a38aba170b91d3a6f7b05678),
    ("rowcol,urgency15", 0x15d87c080fca0038b7128bf58def7baf),
    ("rowcol,urgency16", 0xa73d86a9c46879ab7811301f9fd348ac),
    ("rowcol,urgency17", 0x7cc593f00885cb395a018971b18466b2),
    ("rowcol,urgency18", 0xafe5d89492921d21de41e256691d09a6),
    ("rowcol,urgency19", 0x436e66c4dcf7ae1335f0240f6c102430),
    ("stages=0", 0x464df769df8d0a112f4e69a3157c6a20),
    ("stages=1", 0x0f20c9e714122ee4521bd37631a3852d),
    ("stages=2", 0x874dd7aa74c3f783a2323b5db31692e2),
    ("stages=3", 0x4baf985401d8afa63d6a877ed34e3e5f),
    ("stages=4", 0x4326de5d5ffa3ad94f0267ab7b304090),
    ("stages=5", 0xdac10e7bca9aafe0acde152e604ef6d3),
    ("stages=6", 0xf260d93ae157bd988d603376184ee6ed),
    ("stages=7", 0xc758ef54f36695a62eb75374fb64e879),
    ("stages=8", 0x165bba4600ff7b597868f6a70804bf4a),
    ("stages=9", 0xe839d909002d6d5e4d90c39a3b7ec985),
    ("stages=10", 0x7cb692d750848139737fea5abb856334),
    ("stages=11", 0x2d13abaa230b66f5bc2a58df43463d7c),
    ("stages=12", 0x1ee10eaacabcfddcccf1d34534b09d33),
    ("stages=13", 0x854655913cbe253f9bed8a492d282d64),
    ("stages=14", 0xa8c59f4b12b3f1105401d5865820a7c9),
    ("stages=15", 0x85c0e8bf254af4fa4d47c080f18e0dc7),
    ("stages=16", 0x4db25cf5efba4abeddc3da58cfa43101),
    ("stages=17", 0x5911dc336d9f4df419ef8e228c61c1f5),
    ("stages=18", 0xd3d9bd0c11ff7e2083c0fadc37578997),
    ("matrix/cycle", 0xe857610c524e1361e38c3c05797e1d86),
    ("row/cycle", 0x19b7587a1aa237bffc1bac0a2b25c4ba),
    ("Area", 0x72982b8c0f71bcb70b6b3af30fd7a0a6),
    ("Area+lss", 0xe11b60cf7be18d08767ddb891ce06de5),
    ("Area+sdc", 0x22d77dd1e226d3bcbbd82fea1f345ec1),
    ("Area+sdc+lss", 0x707982596ce19aae511533bc94663985),
    ("Balanced", 0x72982b8c0f71bcb70b6b3af30fd7a0a6),
    ("Balanced+lss", 0xe11b60cf7be18d08767ddb891ce06de5),
    ("Balanced+sdc", 0x22d77dd1e226d3bcbbd82fea1f345ec1),
    ("Balanced+sdc+lss", 0x707982596ce19aae511533bc94663985),
    ("PerformanceMp", 0xaa73e5f4d813ab840daf8cdcabdfc3a7),
    ("PerformanceMp+lss", 0xbc6d4ec5e1901d819c1765a59a049fee),
    ("PerformanceMp+sdc", 0xf1d58b9dcdfc8ad325a62f09bcf71d8c),
    ("PerformanceMp+sdc+lss", 0x9b4a1e1d1d682c9ddf703c78322fbc0c),
    ("pipe=0,part=0,inline=0", 0x3340edbcb35d919e1a0f0d1cbede533b),
    ("pipe=0,part=0,inline=1", 0x3d66867dcc4b2be46e5adf9ea0a6be21),
    ("pipe=0,part=1,inline=0", 0x4c4a9a15b8bfd1a08bd73304ea396a81),
    ("pipe=0,part=1,inline=1", 0x78aecb11076698656fd712d78977a9c8),
    ("pipe=1,part=0,inline=0", 0x3340edbcb35d919e1a0f0d1cbede533b),
    ("pipe=1,part=0,inline=1", 0x3d66867dcc4b2be46e5adf9ea0a6be21),
    ("pipe=1,part=1,inline=0", 0x4c4a9a15b8bfd1a08bd73304ea396a81),
    ("pipe=1,part=1,inline=1", 0x97e44ca0dda04ecf09c8c9fecd690be8),
];

/// Kernel x frontend matrix cells, kernel by kernel.
const MATRIX_OPTIMIZED: [(&str, u128); 28] = [
    ("matrix.dct8.verilog", 0x9f6981d87cb3856837773e1e777cf4d3),
    ("matrix.dct8.construct", 0x72f33f991aa61a4ce661d4dd3cdbc687),
    ("matrix.dct8.rules", 0x05810b253b957cfbcc5772ad258c188a),
    ("matrix.dct8.flow", 0x060789eae729ae7784f73dde638a8756),
    ("matrix.dct8.dataflow", 0x3daa1a360a0badbc864e08dc0dbb6167),
    ("matrix.dct8.hls_bambu", 0x58d40a013df1b6c7b0c9b8bdd3139cbc),
    ("matrix.dct8.hls_vivado", 0x9688da662de6be383746e61fbdd2b17d),
    ("matrix.fir32.verilog", 0xe46d247912211eb6ca3f9e3e5f93a8f3),
    ("matrix.fir32.construct", 0x0cbc3b651f446a53b25314e6ac9f25de),
    ("matrix.fir32.rules", 0x1d3b632b3ab521f77decbb6ef2719328),
    ("matrix.fir32.flow", 0x1021a30b41ec08f3ad7ef5e4d9bd3266),
    ("matrix.fir32.dataflow", 0x810f29c0016d8b36786e4f62d7cec4a7),
    ("matrix.fir32.hls_bambu", 0x2fc2156fb6a032eafbfa5196091679e3),
    (
        "matrix.fir32.hls_vivado",
        0x00ef375fefff808874feb95266f821db,
    ),
    ("matrix.idct4.verilog", 0x9f9dd3ef1a281151bad3e21c8416c004),
    ("matrix.idct4.construct", 0x5141701023b20b7a12f0b86ff5bb9127),
    ("matrix.idct4.rules", 0xbb15bd187dd400de37e9187947f6ac85),
    ("matrix.idct4.flow", 0xcccf93535455125bff89418fefaa593c),
    ("matrix.idct4.dataflow", 0xf7a8ade3644f4a59716cc9befda747c6),
    ("matrix.idct4.hls_bambu", 0xf2b6962a5bad8d0a181ca3199784bcd3),
    (
        "matrix.idct4.hls_vivado",
        0x55a406d8ffd16a2fdc069bb3ebfee056,
    ),
    ("matrix.idct16.verilog", 0x4aa1ec3658d3c56aa6979c4b08c670d5),
    (
        "matrix.idct16.construct",
        0xfaaa8f5ce4505e05ce4801fc751dc292,
    ),
    ("matrix.idct16.rules", 0xe03944e55ced1ab406b8ef647caa866d),
    ("matrix.idct16.flow", 0x855355ba520863039d4106097763d202),
    ("matrix.idct16.dataflow", 0x439fa51b40660861505320795f2b665e),
    (
        "matrix.idct16.hls_bambu",
        0xbd65039ae5ae94b0431c614a0e20e2ef,
    ),
    (
        "matrix.idct16.hls_vivado",
        0xaf84698cacbc54bb4306b284e46e96a4,
    ),
];

fn assert_pinned(set: &str, designs: &[Design], pins: &[(&str, u128)]) {
    assert_eq!(designs.len(), pins.len(), "{set}: design count changed");
    let drift: Vec<String> = designs
        .iter()
        .zip(pins)
        .filter_map(|(design, &(label, want))| {
            assert_eq!(design.label, label, "{set}: design order changed");
            let mut module = design.module.clone();
            optimize_with(&mut module, &PassConfig::all());
            let got = content_hash(&module);
            (got != want).then(|| format!("{label}: {got:#034x} != {want:#034x}"))
        })
        .collect();
    assert!(
        drift.is_empty(),
        "{set}: optimized netlists changed:\n{}",
        drift.join("\n")
    );
}

/// Every tool's initial, then optimized design.
fn table2_designs() -> Vec<Design> {
    all_tools()
        .into_iter()
        .flat_map(|tool| [tool.initial, tool.optimized])
        .collect()
}

/// Every tool's DSE points, in sweep order.
fn fig1_designs() -> Vec<Design> {
    all_tools()
        .iter()
        .flat_map(|tool| dse_points(tool.info.id))
        .collect()
}

/// Every kernel's matrix cells, kernel by kernel.
fn matrix_designs() -> Vec<Design> {
    kernels()
        .iter()
        .flat_map(|spec| matrix_cells(spec).into_iter().map(|(_, design)| design))
        .collect()
}

#[test]
fn optimized_table2_modules_match_their_pinned_hashes() {
    assert_pinned("Table II", &table2_designs(), &TABLE2_OPTIMIZED);
}

#[test]
fn optimized_fig1_modules_match_their_pinned_hashes() {
    assert_pinned("Fig. 1", &fig1_designs(), &FIG1_OPTIMIZED);
}

#[test]
fn optimized_matrix_modules_match_their_pinned_hashes() {
    assert_pinned("matrix", &matrix_designs(), &MATRIX_OPTIMIZED);
}

/// The tape the compiled engine builds from each optimized module, as
/// `(label, instrs_post, parts, narrow_slots_post)` from its
/// `tape_opt_report()`: the tape every measurement replays. Recorded while
/// the tape optimizer still ran a CSE pass of its own, which merged
/// nothing on these netlists, so a change to lowering or the tape
/// optimizer that moves what the measurements run shows up here.
/// Table II designs, in `TABLE2_OPTIMIZED` order.
const TABLE2_TAPES: [(&str, usize, usize, usize); 14] = [
    ("initial", 1438, 489, 730),
    ("opt(1row+1col)", 650, 81, 180),
    ("initial", 2041, 489, 1090),
    ("opt(1row+1col)", 712, 76, 215),
    ("initial(C translation)", 573, 95, 178),
    ("opt(1row+1col)", 780, 139, 241),
    ("stages=0(comb)", 1413, 489, 773),
    ("stages=8", 1460, 602, 1782),
    ("matrix/cycle", 1528, 858, 5363),
    ("row/cycle", 1049, 560, 3556),
    ("MEM_ACC_11+LSS", 668, 298, 724),
    ("PERFORMANCE-MP+sdc", 640, 255, 663),
    ("push-button", 669, 287, 708),
    ("pipeline+partition+inline", 1458, 665, 1898),
];

/// Fig. 1 design-space points, in `FIG1_OPTIMIZED` order.
const FIG1_TAPES: [(&str, usize, usize, usize); 72] = [
    ("8row+8col", 1438, 489, 730),
    ("1row+8col", 984, 270, 379),
    ("1row+1col", 650, 81, 180),
    ("8row+8col", 2041, 489, 1090),
    ("1row+1col", 712, 76, 215),
    ("seq,urgency0", 573, 95, 178),
    ("seq,urgency1", 572, 96, 177),
    ("seq,urgency2", 572, 95, 176),
    ("seq,urgency3", 573, 95, 176),
    ("seq,urgency4", 573, 95, 176),
    ("seq,urgency5", 572, 96, 178),
    ("rowcol,urgency0", 780, 139, 241),
    ("rowcol,urgency1", 780, 140, 264),
    ("rowcol,urgency2", 780, 140, 264),
    ("rowcol,urgency3", 780, 140, 264),
    ("rowcol,urgency4", 779, 140, 261),
    ("rowcol,urgency5", 780, 139, 241),
    ("rowcol,urgency6", 779, 140, 242),
    ("rowcol,urgency7", 780, 140, 261),
    ("rowcol,urgency8", 780, 139, 241),
    ("rowcol,urgency9", 780, 140, 264),
    ("rowcol,urgency10", 779, 141, 262),
    ("rowcol,urgency11", 780, 139, 261),
    ("rowcol,urgency12", 780, 139, 260),
    ("rowcol,urgency13", 780, 139, 241),
    ("rowcol,urgency14", 780, 139, 241),
    ("rowcol,urgency15", 780, 140, 264),
    ("rowcol,urgency16", 780, 140, 264),
    ("rowcol,urgency17", 780, 140, 264),
    ("rowcol,urgency18", 779, 140, 261),
    ("rowcol,urgency19", 780, 139, 241),
    ("stages=0", 1413, 489, 773),
    ("stages=1", 1422, 556, 993),
    ("stages=2", 1425, 550, 1085),
    ("stages=3", 1430, 612, 1231),
    ("stages=4", 1427, 510, 1262),
    ("stages=5", 1446, 539, 1387),
    ("stages=6", 1445, 648, 1567),
    ("stages=7", 1461, 589, 1657),
    ("stages=8", 1460, 602, 1782),
    ("stages=9", 1458, 665, 1898),
    ("stages=10", 1468, 667, 1971),
    ("stages=11", 1454, 689, 2007),
    ("stages=12", 1463, 662, 2044),
    ("stages=13", 1479, 703, 2224),
    ("stages=14", 1491, 739, 2343),
    ("stages=15", 1482, 766, 2403),
    ("stages=16", 1479, 765, 2566),
    ("stages=17", 1498, 780, 2649),
    ("stages=18", 1491, 772, 2741),
    ("matrix/cycle", 1528, 858, 5363),
    ("row/cycle", 1049, 560, 3556),
    ("Area", 664, 278, 695),
    ("Area+lss", 668, 298, 724),
    ("Area+sdc", 652, 251, 648),
    ("Area+sdc+lss", 664, 281, 694),
    ("Balanced", 664, 278, 695),
    ("Balanced+lss", 668, 298, 724),
    ("Balanced+sdc", 652, 251, 648),
    ("Balanced+sdc+lss", 664, 281, 694),
    ("PerformanceMp", 640, 252, 663),
    ("PerformanceMp+lss", 644, 272, 691),
    ("PerformanceMp+sdc", 628, 225, 613),
    ("PerformanceMp+sdc+lss", 640, 255, 663),
    ("pipe=0,part=0,inline=0", 669, 287, 708),
    ("pipe=0,part=0,inline=1", 657, 279, 696),
    ("pipe=0,part=1,inline=0", 6144, 1539, 2188),
    ("pipe=0,part=1,inline=1", 5875, 1468, 2114),
    ("pipe=1,part=0,inline=0", 669, 287, 708),
    ("pipe=1,part=0,inline=1", 657, 279, 696),
    ("pipe=1,part=1,inline=0", 6144, 1539, 2188),
    ("pipe=1,part=1,inline=1", 1458, 665, 1898),
];

/// Kernel x frontend matrix cells, in `MATRIX_OPTIMIZED` order.
const MATRIX_TAPES: [(&str, usize, usize, usize); 28] = [
    ("matrix.dct8.verilog", 1886, 217, 428),
    ("matrix.dct8.construct", 4357, 281, 913),
    ("matrix.dct8.rules", 613, 65, 150),
    ("matrix.dct8.flow", 1882, 604, 1496),
    ("matrix.dct8.dataflow", 2752, 2194, 11360),
    ("matrix.dct8.hls_bambu", 2973, 1198, 2096),
    ("matrix.dct8.hls_vivado", 2152, 1096, 3094),
    ("matrix.fir32.verilog", 2022, 542, 1378),
    ("matrix.fir32.construct", 4158, 598, 825),
    ("matrix.fir32.rules", 1991, 546, 665),
    ("matrix.fir32.flow", 1841, 588, 1722),
    ("matrix.fir32.dataflow", 3266, 2888, 13578),
    ("matrix.fir32.hls_bambu", 583, 227, 564),
    ("matrix.fir32.hls_vivado", 2969, 1424, 4633),
    ("matrix.idct4.verilog", 351, 65, 142),
    ("matrix.idct4.construct", 508, 65, 159),
    ("matrix.idct4.rules", 232, 46, 99),
    ("matrix.idct4.flow", 353, 132, 367),
    ("matrix.idct4.dataflow", 432, 294, 1565),
    ("matrix.idct4.hls_bambu", 575, 277, 541),
    ("matrix.idct4.hls_vivado", 386, 178, 514),
    ("matrix.idct16.verilog", 12230, 2153, 2529),
    ("matrix.idct16.construct", 27958, 2153, 3547),
    ("matrix.idct16.rules", 1986, 152, 349),
    ("matrix.idct16.flow", 11929, 2948, 7982),
    ("matrix.idct16.dataflow", 19200, 16946, 87260),
    ("matrix.idct16.hls_bambu", 19571, 6591, 10024),
    ("matrix.idct16.hls_vivado", 13674, 7278, 22996),
];

fn assert_tapes_pinned(set: &str, designs: &[Design], pins: &[(&str, usize, usize, usize)]) {
    assert_eq!(designs.len(), pins.len(), "{set}: design count changed");
    let drift: Vec<String> = designs
        .iter()
        .zip(pins)
        .filter_map(|(design, &(label, instrs, parts, slots))| {
            assert_eq!(design.label, label, "{set}: design order changed");
            let r = CompiledSimulator::new(optimized_module(design))
                .expect("validates")
                .tape_opt_report()
                .expect("tape optimizer is on by default");
            let got = (r.instrs_post, r.parts, r.narrow_slots_post);
            let want = (instrs, parts, slots);
            (got != want).then(|| format!("{label}: {got:?} != {want:?}"))
        })
        .collect();
    assert!(
        drift.is_empty(),
        "{set}: optimized tapes changed (instrs_post, parts, narrow_slots_post):\n{}",
        drift.join("\n")
    );
}

#[test]
fn optimized_table2_tapes_match_their_pins() {
    assert_tapes_pinned("Table II", &table2_designs(), &TABLE2_TAPES);
}

#[test]
fn optimized_fig1_tapes_match_their_pins() {
    assert_tapes_pinned("Fig. 1", &fig1_designs(), &FIG1_TAPES);
}

#[test]
fn optimized_matrix_tapes_match_their_pins() {
    assert_tapes_pinned("matrix", &matrix_designs(), &MATRIX_TAPES);
}

proptest! {
    // Each case drives every Table II design through the interpreter
    // oracle, so a handful of cases already covers thousands of cycles
    // per design; more cases would only slow CI without new coverage.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Differential property for the *tape backend optimizer*: the same
    /// raw netlist (no pass pipeline) run on the compiled engine with the
    /// optimized tape must be bit-exact against the interpreter oracle on
    /// random stimuli — outputs *and* `T_L`/`T_P` — for every Table II
    /// design. AXI designs additionally go through the SoA batched engine
    /// with ragged lanes (unequal chunks, including an empty lane), whose
    /// per-lane outputs and timing must match the scalar oracle runs.
    #[test]
    fn optimized_tape_matches_interpreter_on_random_stimuli(
        seed in 1u64..u64::MAX,
        nblocks in 1usize..=2,
    ) {
        let blocks = BlockGen::new(seed, -2048, 2047).take_blocks(nblocks);
        let inputs: Vec<Vec<i32>> = blocks.iter().map(|b| b.iter().collect()).collect();
        let short = &inputs[..inputs.len() - 1];
        let budget = 2000 * (inputs.len() as u64 + 4);
        for tool in all_tools() {
            for design in [&tool.initial, &tool.optimized] {
                match design.interface {
                    DesignInterface::Axis => {
                        let mut oracle =
                            StreamHarness::new(design.module.clone()).expect("validates");
                        let mut tape =
                            StreamHarness::compiled(design.module.clone()).expect("validates");
                        let (oout, otiming) = oracle.run_flat(&inputs, budget);
                        let (tout, ttiming) = tape.run_flat(&inputs, budget);
                        prop_assert_eq!(
                            &oout, &tout,
                            "{}: optimized tape diverges from interpreter", design.label
                        );
                        prop_assert_eq!(
                            otiming, ttiming,
                            "{}: T_L/T_P diverge on the optimized tape", design.label
                        );

                        // Ragged batched lanes: full chunk, shorter chunk,
                        // empty chunk. Lane 0 must reproduce the oracle run
                        // above; lane 1 gets its own scalar oracle run.
                        let mut batched =
                            BatchedStreamHarness::new(design.module.clone(), 3)
                                .expect("validates");
                        let chunks: Vec<&[Vec<i32>]> = vec![&inputs, short, &[]];
                        let (louts, ltimings) = batched.run_lanes_flat(&chunks, budget);
                        prop_assert_eq!(
                            &louts[0], &oout,
                            "{}: batched lane 0 diverges from interpreter", design.label
                        );
                        prop_assert_eq!(
                            ltimings[0], otiming,
                            "{}: batched lane 0 timing diverges", design.label
                        );
                        if short.is_empty() {
                            prop_assert!(louts[1].is_empty());
                        } else {
                            let (sout, stiming) = oracle.run_flat(short, budget);
                            prop_assert_eq!(
                                &louts[1], &sout,
                                "{}: ragged batched lane diverges", design.label
                            );
                            prop_assert_eq!(
                                ltimings[1], stiming,
                                "{}: ragged batched lane timing diverges", design.label
                            );
                        }
                        prop_assert!(louts[2].is_empty(), "{}: empty lane produced output", design.label);
                    }
                    DesignInterface::Stream { .. } => {
                        let oracle =
                            Simulator::new(design.module.clone()).expect("validates");
                        let tape = CompiledSimulator::new(design.module.clone())
                            .expect("validates");
                        prop_assert_eq!(
                            stream_trace(oracle, 96, seed),
                            stream_trace(tape, 96, seed),
                            "{}: optimized tape stream trace diverges", design.label
                        );
                    }
                }
            }
        }
    }
}
