//! A stored measurement answers only the workload it was measured on.
//!
//! This test binary is its own process, so it can point the process-global
//! store at a scratch directory before anything touches it. It stores a
//! matrix cell's measurement, then measures the same module on the IDCT
//! workload: the stored record must not answer, so the IDCT golden check
//! runs and rejects the module.

use hc_core::entries::axis;
use hc_core::matrix::{cell_design, measure_cell};
use hc_core::measure::{try_measure, MeasureError};
use hc_core::persist;
use hc_core::tool::ToolId;
use hc_kernels::{Algo, KernelSpec};

#[test]
fn a_kernel_record_never_answers_the_idct_workload() {
    let dir = std::env::temp_dir().join(format!("hc-store-workload-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = hc_obs::Config::from_env();
    cfg.store_dir = Some(dir.to_string_lossy().into_owned());
    hc_obs::config::set_override(cfg);
    assert!(persist::store().is_some(), "store opens from the override");

    // The dct8 Verilog cell emits 12-bit elements; on the IDCT workload
    // its 96-bit output beats fail the 72-bit port contract.
    let dct8 = hc_kernels::dct8();
    let cell = cell_design(&dct8, ToolId::Verilog);
    assert!(measure_cell(&dct8, &cell, 2).q > 0.0);
    let err = try_measure(&axis("dct8 as idct", cell.module, 0), 2)
        .expect_err("the dct8 record must not answer the IDCT workload");
    assert!(
        matches!(
            err,
            MeasureError::Interface {
                port: "m_axis_tdata",
                ..
            }
        ),
        "{err}"
    );

    // A kernel with the IDCT's exact geometry (8×8, 12→9 bits): the
    // port contract holds, so only the golden check can tell the
    // workloads apart.
    let clip9 = KernelSpec {
        id: "clip9",
        name: "8x8 clip to 9 bits",
        rows: 8,
        cols: 8,
        in_width: 12,
        out_width: 9,
        algo: Algo::Fir {
            taps: vec![256],
            shift: 8,
            bias: 128,
        },
    };
    let cell = cell_design(&clip9, ToolId::Verilog);
    assert!(measure_cell(&clip9, &cell, 2).q > 0.0);
    let err = try_measure(&axis("clip9 as idct", cell.module, 0), 2)
        .expect_err("the clip9 record must not answer the IDCT workload");
    assert!(
        matches!(err, MeasureError::Mismatch { block: 0, .. }),
        "{err}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
