//! The evaluated designs: initial/optimized pairs and DSE sweeps.

use crate::measure::Workload;
use crate::metrics::{count_loc, fn_loc, fn_source, line_diff};
use crate::tool::{table1_rows, ToolId, ToolInfo};
use hc_hls::{BambuConfig, VivadoHlsConfig};
use hc_rtl::Module;

/// How a design is driven and how its throughput is bounded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DesignInterface {
    /// AXI-Stream wrapper (`s_axis_*` / `m_axis_*` ports).
    Axis,
    /// MaxCompiler-style raw stream behind a PCIe manager; one operation
    /// moves `bits_per_op` over the link.
    Stream {
        /// Link payload per operation, bits.
        bits_per_op: u64,
    },
}

/// One design point: a module plus its accounting.
#[derive(Clone, Debug)]
pub struct Design {
    /// Configuration label.
    pub label: String,
    /// The elaborated module.
    pub module: Module,
    /// Interface/throughput model.
    pub interface: DesignInterface,
    /// What the design computes: the stimulus it is driven with and the
    /// golden model it must match.
    pub workload: Workload,
    /// `L = L_FU + L_AXI + L_Conf`.
    pub loc: usize,
}

/// A tool with its initial and optimized designs.
#[derive(Clone, Debug)]
pub struct ToolEntry {
    /// Table I row.
    pub info: ToolInfo,
    /// The §III-C "initial" design (default settings).
    pub initial: Design,
    /// The "optimal" design (maximizing Q).
    pub optimized: Design,
    /// Changed lines between them (`ΔL`), including settings.
    pub delta_loc: usize,
}

/// An AXI-Stream design of the paper's IDCT.
pub fn axis(label: impl Into<String>, module: Module, loc: usize) -> Design {
    Design {
        label: label.into(),
        module,
        interface: DesignInterface::Axis,
        workload: Workload::Idct,
        loc,
    }
}

/// A MaxJ-style stream kernel of the paper's IDCT behind the PCIe link
/// (1024 bits of 16-bit-aligned elements per operation).
pub fn pcie_stream(label: impl Into<String>, module: Module, loc: usize) -> Design {
    Design {
        label: label.into(),
        module,
        interface: DesignInterface::Stream { bits_per_op: 1024 },
        workload: Workload::Idct,
        loc,
    }
}

fn rust_shared_loc(src: &str, fns: &[&str]) -> usize {
    fns.iter().map(|f| fn_loc(src, f)).sum()
}

/// The Verilog baseline.
pub fn verilog_entry() -> ToolEntry {
    use hc_verilog::designs as d;
    ToolEntry {
        info: table1_rows()[0].clone(),
        initial: axis(
            "initial",
            d::initial_design().expect("shipped sources parse"),
            d::initial_loc(),
        ),
        optimized: axis(
            "opt(1row+1col)",
            d::opt_rowcol().expect("shipped sources parse"),
            d::opt_loc(),
        ),
        delta_loc: d::delta_loc(),
    }
}

/// The Chisel-like construction entry.
pub fn chisel_entry() -> ToolEntry {
    use hc_construct::designs as d;
    let shared = rust_shared_loc(d::DESIGN_SRC, &["row_pass", "col_pass", "iclip", "pack"]);
    let init_loc =
        shared + fn_loc(d::DESIGN_SRC, "idct_2d") + fn_loc(d::DESIGN_SRC, "initial_design");
    let opt_loc = shared + fn_loc(d::DESIGN_SRC, "opt_rowcol");
    let delta = line_diff(
        fn_source(d::DESIGN_SRC, "initial_design").unwrap_or(""),
        fn_source(d::DESIGN_SRC, "opt_rowcol").unwrap_or(""),
    ) + fn_loc(d::DESIGN_SRC, "idct_2d");
    ToolEntry {
        info: table1_rows()[1].clone(),
        initial: axis("initial", d::initial_design(), init_loc),
        optimized: axis("opt(1row+1col)", d::opt_rowcol(), opt_loc),
        delta_loc: delta,
    }
}

/// The BSV-like rules entry.
pub fn bsv_entry() -> ToolEntry {
    use hc_rules::designs as d;
    let shared = rust_shared_loc(d::DESIGN_SRC, &["butterfly", "unpack", "pack", "column_of"]);
    // The public entry points are thin variant wrappers; LOC is counted
    // on the real design bodies.
    let init_loc = shared + fn_loc(d::DESIGN_SRC, "initial_impl");
    let opt_loc = shared + fn_loc(d::DESIGN_SRC, "opt_impl");
    let delta = line_diff(
        fn_source(d::DESIGN_SRC, "initial_impl").unwrap_or(""),
        fn_source(d::DESIGN_SRC, "opt_impl").unwrap_or(""),
    );
    ToolEntry {
        info: table1_rows()[2].clone(),
        initial: axis("initial(C translation)", d::initial_design(), init_loc),
        optimized: axis("opt(1row+1col)", d::opt_rowcol(), opt_loc),
        delta_loc: delta,
    }
}

/// The DSLX/XLS-like flow entry. The optimized stage count follows the
/// paper's best (8 stages).
pub fn dslx_entry() -> ToolEntry {
    use hc_flow::designs as d;
    let fu = rust_shared_loc(
        d::DESIGN_SRC,
        &["row_pass", "col_pass", "iclip", "idct_kernel"],
    );
    // One configuration parameter: the stage count.
    let init_loc = fu; // default configuration (combinational)
    let opt_loc = fu + 1;
    ToolEntry {
        info: table1_rows()[3].clone(),
        initial: axis("stages=0(comb)", d::design(0), init_loc),
        optimized: axis("stages=8", d::design(8), opt_loc),
        delta_loc: 1,
    }
}

/// The MaxJ/MaxCompiler-like dataflow entry (PCIe-bound system designs).
pub fn maxj_entry() -> ToolEntry {
    use hc_dataflow::designs as d;
    let shared = rust_shared_loc(d::DESIGN_SRC, &["butterfly", "idct_2d", "pack"]);
    let init_loc = shared + fn_loc(d::DESIGN_SRC, "full_matrix_kernel");
    let opt_loc = shared + fn_loc(d::DESIGN_SRC, "row_kernel");
    let delta = line_diff(
        fn_source(d::DESIGN_SRC, "full_matrix_kernel").unwrap_or(""),
        fn_source(d::DESIGN_SRC, "row_kernel").unwrap_or(""),
    );
    ToolEntry {
        info: table1_rows()[4].clone(),
        initial: pcie_stream("matrix/cycle", d::full_matrix_kernel(), init_loc),
        optimized: pcie_stream("row/cycle", d::row_kernel(), opt_loc),
        delta_loc: delta,
    }
}

fn c_program_loc() -> usize {
    use hc_hls::designs as d;
    rust_shared_loc(d::DESIGN_SRC, &["butterfly", "idx", "idct_program"])
}

/// The C/Bambu entry.
pub fn bambu_entry() -> ToolEntry {
    use hc_hls::designs as d;
    let fu = c_program_loc();
    let init = BambuConfig::initial();
    let opt = BambuConfig::optimized();
    ToolEntry {
        info: table1_rows()[5].clone(),
        initial: axis(
            "MEM_ACC_11+LSS",
            d::bambu_design(&init),
            fu + init.config_loc(),
        ),
        optimized: axis(
            "PERFORMANCE-MP+sdc",
            d::bambu_design(&opt),
            fu + opt.config_loc(),
        ),
        delta_loc: 3, // preset + two option changes
    }
}

/// The C/Vivado HLS entry.
pub fn vivado_hls_entry() -> ToolEntry {
    use hc_hls::designs as d;
    let fu = c_program_loc();
    let init = VivadoHlsConfig::initial();
    let opt = VivadoHlsConfig::optimized();
    ToolEntry {
        info: table1_rows()[6].clone(),
        initial: axis(
            "push-button",
            d::vivado_hls_design(&init),
            fu + init.config_loc(),
        ),
        optimized: axis(
            "pipeline+partition+inline",
            d::vivado_hls_design(&opt),
            fu + opt.config_loc(),
        ),
        delta_loc: opt.config_loc() + 1, // pragmas plus the buf rewrite
    }
}

/// Every tool, in Table I order.
pub fn all_tools() -> Vec<ToolEntry> {
    vec![
        verilog_entry(),
        chisel_entry(),
        bsv_entry(),
        dslx_entry(),
        maxj_entry(),
        bambu_entry(),
        vivado_hls_entry(),
    ]
}

/// The Fig. 1 design-space points for one tool (configuration label +
/// design). Sizes follow the paper's sweeps: 19 XLS stage counts, the
/// Bambu option cross-product, the Vivado HLS pragma sets, the Verilog/
/// Chisel architectures and the two MaxJ kernels.
pub fn dse_points(id: ToolId) -> Vec<Design> {
    match id {
        ToolId::Verilog => {
            use hc_verilog::designs as d;
            vec![
                axis(
                    "8row+8col",
                    d::initial_design().expect("parses"),
                    d::initial_loc(),
                ),
                axis(
                    "1row+8col",
                    d::opt_row8col().expect("parses"),
                    count_loc(d::IDCT_ROW_SRC)
                        + count_loc(d::IDCT_COL_SRC)
                        + count_loc(d::TOP_ROW8COL_SRC),
                ),
                axis("1row+1col", d::opt_rowcol().expect("parses"), d::opt_loc()),
            ]
        }
        ToolId::Chisel => {
            use hc_construct::designs as d;
            vec![
                axis("8row+8col", d::initial_design(), 0),
                axis("1row+1col", d::opt_rowcol(), 0),
            ]
        }
        ToolId::Bsv => {
            // The paper synthesized 26 BSC circuits by varying tool options
            // and code attributes and found negligible impact; our sweep
            // varies the scheduler's urgency order the same way.
            use hc_rules::designs as d;
            let mut points: Vec<Design> = (0..6)
                .map(|v| axis(format!("seq,urgency{v}"), d::initial_design_variant(v), 0))
                .collect();
            points.extend(
                (0..20).map(|v| axis(format!("rowcol,urgency{v}"), d::opt_rowcol_variant(v), 0)),
            );
            points
        }
        ToolId::Dslx => {
            use hc_flow::designs as d;
            (0..=18)
                .map(|s| axis(format!("stages={s}"), d::design(s), 0))
                .collect()
        }
        ToolId::Maxj => {
            use hc_dataflow::designs as d;
            vec![
                pcie_stream("matrix/cycle", d::full_matrix_kernel(), 0),
                pcie_stream("row/cycle", d::row_kernel(), 0),
            ]
        }
        ToolId::CBambu => {
            use hc_hls::designs as d;
            BambuConfig::sweep()
                .into_iter()
                .map(|c| {
                    axis(
                        format!(
                            "{:?}{}{}",
                            c.preset,
                            if c.speculative_sdc { "+sdc" } else { "" },
                            if c.lss_policy { "+lss" } else { "" }
                        ),
                        d::bambu_design(&c),
                        0,
                    )
                })
                .collect()
        }
        ToolId::CVivadoHls => {
            use hc_hls::designs as d;
            VivadoHlsConfig::sweep()
                .into_iter()
                .map(|c| {
                    axis(
                        format!(
                            "pipe={},part={},inline={}",
                            u8::from(c.pipeline),
                            u8::from(c.partition),
                            u8::from(c.inline)
                        ),
                        d::vivado_hls_design(&c),
                        0,
                    )
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loc_accounting_is_plausible() {
        let tools = all_tools();
        let verilog = &tools[0];
        assert!(verilog.initial.loc > 150, "{}", verilog.initial.loc);
        // Every non-baseline language should need less code than Verilog
        // for at least one of its designs (the paper's α is positive
        // almost everywhere).
        for t in &tools[1..] {
            assert!(
                t.initial.loc < verilog.initial.loc || t.optimized.loc < verilog.optimized.loc,
                "{:?}: {} / {}",
                t.info.id,
                t.initial.loc,
                t.optimized.loc
            );
        }
    }

    #[test]
    fn dse_sweep_sizes_match_the_paper_order() {
        assert_eq!(dse_points(ToolId::Dslx).len(), 19);
        assert_eq!(dse_points(ToolId::CBambu).len(), 12);
        assert_eq!(dse_points(ToolId::CVivadoHls).len(), 8);
        assert_eq!(dse_points(ToolId::Bsv).len(), 26);
        assert_eq!(dse_points(ToolId::Verilog).len(), 3);
    }
}
