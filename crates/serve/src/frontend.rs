//! Request-body → [`Design`] resolution for every frontend the paper
//! evaluates.
//!
//! Each `POST` body names a `"frontend"` and the parameters that frontend
//! understands; this module turns that into an elaborated design or a
//! structured [`ApiError`] — never a panic, whatever the client sent.

use hc_core::entries::{axis, pcie_stream, Design};
use hc_core::tool::ToolId;
use hc_hls::{BambuConfig, BambuPreset, VivadoHlsConfig};

use crate::json::Json;

/// A client-visible failure: HTTP status plus a machine-readable code.
#[derive(Clone, Debug)]
pub struct ApiError {
    /// HTTP status to respond with.
    pub status: u16,
    /// Stable machine-readable code (`"unknown_frontend"`, ...).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl ApiError {
    /// A `400` protocol-shape error.
    pub fn bad_request(code: &'static str, message: impl Into<String>) -> ApiError {
        ApiError {
            status: 400,
            code,
            message: message.into(),
        }
    }

    /// A `422`: the request was well-formed but the design is unusable.
    pub fn unprocessable(code: &'static str, message: impl Into<String>) -> ApiError {
        ApiError {
            status: 422,
            code,
            message: message.into(),
        }
    }

    /// The response body: `{"error": {...}}`.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![(
            "error".to_owned(),
            crate::jobj! {
                "status" => u64::from(self.status),
                "code" => self.code,
                "message" => self.message.clone(),
            },
        )])
    }
}

fn missing(field: &'static str, frontend: &str) -> ApiError {
    ApiError::bad_request(
        "missing_field",
        format!("frontend {frontend:?} requires field {field:?}"),
    )
}

fn str_field<'a>(body: &'a Json, field: &'static str, frontend: &str) -> Result<&'a str, ApiError> {
    match body.get(field) {
        None => Err(missing(field, frontend)),
        Some(v) => v.as_str().ok_or_else(|| {
            ApiError::bad_request(
                "bad_field_type",
                format!("field {field:?} must be a string"),
            )
        }),
    }
}

fn bool_field(body: &Json, field: &'static str, default: bool) -> Result<bool, ApiError> {
    match body.get(field) {
        None => Ok(default),
        Some(v) => v.as_bool().ok_or_else(|| {
            ApiError::bad_request(
                "bad_field_type",
                format!("field {field:?} must be a boolean"),
            )
        }),
    }
}

fn usize_field(body: &Json, field: &'static str) -> Result<Option<usize>, ApiError> {
    match body.get(field) {
        None => Ok(None),
        Some(v) => v.as_usize().map(Some).ok_or_else(|| {
            ApiError::bad_request(
                "bad_field_type",
                format!("field {field:?} must be a non-negative integer"),
            )
        }),
    }
}

/// Parses the `"tool"` field of a DSE request.
///
/// # Errors
///
/// `400` for a missing/unknown tool name.
pub fn resolve_tool(body: &Json) -> Result<ToolId, ApiError> {
    let name = str_field(body, "tool", "dse")?;
    FRONTENDS
        .iter()
        .find(|f| f.name == name)
        .map(|f| f.tool)
        .ok_or_else(|| {
            ApiError::bad_request(
                "unknown_tool",
                format!("unknown tool {name:?}; see /v1/tools"),
            )
        })
}

/// Resolves a request body into an elaborated design.
///
/// # Errors
///
/// `400` for shape violations (missing/unknown/mistyped fields), `422`
/// for bodies that are shaped right but don't elaborate (Verilog that
/// fails to parse, out-of-range variants).
pub fn resolve_design(body: &Json) -> Result<Design, ApiError> {
    if !matches!(body, Json::Obj(_)) {
        return Err(ApiError::bad_request(
            "bad_body",
            "request body must be a JSON object",
        ));
    }
    let frontend = str_field(body, "frontend", "<any>")?;
    if let Some(design) = matrix_cell(frontend, body)? {
        return Ok(design);
    }
    match frontend {
        "verilog" => verilog_design(body),
        "chisel" => chisel_design(body),
        "bsv" => bsv_design(body),
        "dslx" => dslx_design(body),
        "maxj" => maxj_design(body),
        "bambu" => bambu_design(body),
        "vivado-hls" => vivado_hls_design(body),
        other => Err(ApiError::bad_request(
            "unknown_frontend",
            format!("unknown frontend {other:?}; see /v1/tools"),
        )),
    }
}

/// Resolves a `"kernel"` field naming a benchmark-matrix registry kernel
/// into the frontend's matrix cell (`matrix.<kernel>.<frontend>`).
///
/// `Ok(None)` means "not a matrix request": no `"kernel"` field, an
/// unknown frontend (the dispatch produces the `unknown_frontend` error),
/// or maxj's legacy `"kernel": "matrix"|"row"` values, which predate the
/// registry and stay with the maxj handler.
fn matrix_cell(frontend: &str, body: &Json) -> Result<Option<Design>, ApiError> {
    let Some(v) = body.get("kernel") else {
        return Ok(None);
    };
    let name = v.as_str().ok_or_else(|| {
        ApiError::bad_request("bad_field_type", "field \"kernel\" must be a string")
    })?;
    let registry = hc_kernels::kernels();
    let Some(spec) = registry.iter().find(|k| k.id == name) else {
        if frontend == "maxj" {
            return Ok(None);
        }
        let ids: Vec<&str> = registry.iter().map(|k| k.id).collect();
        return Err(ApiError::bad_request(
            "unknown_kernel",
            format!("matrix kernels are {}, got {name:?}", ids.join("|")),
        ));
    };
    let Some(tool) = FRONTENDS
        .iter()
        .find(|f| f.name == frontend)
        .map(|f| f.tool)
    else {
        return Ok(None);
    };
    Ok(Some(hc_core::matrix::cell_design(spec, tool)))
}

fn verilog_design(body: &Json) -> Result<Design, ApiError> {
    use hc_verilog::designs as d;
    if let Some(source) = body.get("source") {
        let source = source.as_str().ok_or_else(|| {
            ApiError::bad_request("bad_field_type", "field \"source\" must be a string")
        })?;
        let parsed = hc_verilog::parse(source)
            .map_err(|e| ApiError::unprocessable("verilog_error", e.to_string()))?;
        let top = match body.get("top") {
            Some(v) => v
                .as_str()
                .ok_or_else(|| {
                    ApiError::bad_request("bad_field_type", "field \"top\" must be a string")
                })?
                .to_owned(),
            None if parsed.modules.len() == 1 => parsed.modules[0].name.clone(),
            None => {
                return Err(ApiError::bad_request(
                    "missing_field",
                    "multi-module sources need an explicit \"top\"",
                ))
            }
        };
        let module = hc_verilog::elaborate(&parsed, &top)
            .map_err(|e| ApiError::unprocessable("verilog_error", e.to_string()))?;
        return Ok(axis(
            format!("verilog:{top}"),
            module,
            hc_verilog::count_loc(source),
        ));
    }
    let named = str_field(body, "design", "verilog")?;
    let (module, loc) = match named {
        "initial" => (d::initial_design(), d::initial_loc()),
        "row8col" => (
            d::opt_row8col(),
            hc_verilog::count_loc(d::IDCT_ROW_SRC)
                + hc_verilog::count_loc(d::IDCT_COL_SRC)
                + hc_verilog::count_loc(d::TOP_ROW8COL_SRC),
        ),
        "rowcol" => (d::opt_rowcol(), d::opt_loc()),
        other => {
            return Err(ApiError::bad_request(
                "unknown_design",
                format!("verilog designs are initial|row8col|rowcol, got {other:?}"),
            ))
        }
    };
    let module = module.map_err(|e| ApiError::unprocessable("verilog_error", e.to_string()))?;
    Ok(axis(format!("verilog:{named}"), module, loc))
}

fn chisel_design(body: &Json) -> Result<Design, ApiError> {
    use hc_construct::designs as d;
    let named = str_field(body, "design", "chisel")?;
    let module = match named {
        "initial" => d::initial_design(),
        "rowcol" => d::opt_rowcol(),
        other => {
            return Err(ApiError::bad_request(
                "unknown_design",
                format!("chisel designs are initial|rowcol, got {other:?}"),
            ))
        }
    };
    Ok(axis(format!("chisel:{named}"), module, 0))
}

fn bsv_design(body: &Json) -> Result<Design, ApiError> {
    use hc_rules::designs as d;
    let named = str_field(body, "design", "bsv")?;
    let variant = usize_field(body, "variant")?.unwrap_or(0);
    let (module, limit) = match named {
        "initial" => (d::initial_design_variant as fn(usize) -> _, 6),
        "rowcol" => (d::opt_rowcol_variant as fn(usize) -> _, 20),
        other => {
            return Err(ApiError::bad_request(
                "unknown_design",
                format!("bsv designs are initial|rowcol, got {other:?}"),
            ))
        }
    };
    if variant >= limit {
        return Err(ApiError::unprocessable(
            "variant_out_of_range",
            format!("bsv {named} urgency variants are 0..{limit}, got {variant}"),
        ));
    }
    Ok(axis(
        format!("bsv:{named},urgency{variant}"),
        module(variant),
        0,
    ))
}

fn dslx_design(body: &Json) -> Result<Design, ApiError> {
    use hc_flow::designs as d;
    let stages = usize_field(body, "stages")?.unwrap_or(0);
    if stages > 18 {
        return Err(ApiError::unprocessable(
            "stages_out_of_range",
            format!("dslx stage counts are 0..=18, got {stages}"),
        ));
    }
    Ok(axis(
        format!("dslx:stages={stages}"),
        d::design(stages as u32),
        0,
    ))
}

fn maxj_design(body: &Json) -> Result<Design, ApiError> {
    use hc_dataflow::designs as d;
    let kernel = str_field(body, "kernel", "maxj")?;
    let module = match kernel {
        "matrix" => d::full_matrix_kernel(),
        "row" => d::row_kernel(),
        other => {
            return Err(ApiError::bad_request(
                "unknown_design",
                format!("maxj kernels are matrix|row or a registry kernel id, got {other:?}"),
            ))
        }
    };
    Ok(pcie_stream(format!("maxj:{kernel}/cycle"), module, 0))
}

fn bambu_design(body: &Json) -> Result<Design, ApiError> {
    use hc_hls::designs as d;
    let preset = match str_field(body, "preset", "bambu")? {
        "area" => BambuPreset::Area,
        "balanced" => BambuPreset::Balanced,
        "performance-mp" => BambuPreset::PerformanceMp,
        other => {
            return Err(ApiError::bad_request(
                "unknown_design",
                format!("bambu presets are area|balanced|performance-mp, got {other:?}"),
            ))
        }
    };
    let cfg = BambuConfig {
        preset,
        speculative_sdc: bool_field(body, "sdc", false)?,
        lss_policy: bool_field(body, "lss", true)?,
    };
    Ok(axis(
        format!(
            "bambu:{:?}{}{}",
            cfg.preset,
            if cfg.speculative_sdc { "+sdc" } else { "" },
            if cfg.lss_policy { "+lss" } else { "" }
        ),
        d::bambu_design(&cfg),
        cfg.config_loc(),
    ))
}

fn vivado_hls_design(body: &Json) -> Result<Design, ApiError> {
    use hc_hls::designs as d;
    let cfg = VivadoHlsConfig {
        pipeline: bool_field(body, "pipeline", false)?,
        partition: bool_field(body, "partition", false)?,
        inline: bool_field(body, "inline", false)?,
    };
    Ok(axis(
        format!(
            "vivado-hls:pipe={},part={},inline={}",
            u8::from(cfg.pipeline),
            u8::from(cfg.partition),
            u8::from(cfg.inline)
        ),
        d::vivado_hls_design(&cfg),
        cfg.config_loc(),
    ))
}

/// One row of the `/v1/tools` listing.
pub struct FrontendInfo {
    /// Protocol name (the `"frontend"` / `"tool"` value).
    pub name: &'static str,
    /// The DSE sweep this maps to.
    pub tool: ToolId,
    /// Human-readable parameter summary.
    pub params: &'static str,
    /// A valid example body.
    pub example: &'static str,
}

/// Every frontend the API accepts.
pub static FRONTENDS: &[FrontendInfo] = &[
    FrontendInfo {
        name: "verilog",
        tool: ToolId::Verilog,
        params: "source(+top) for arbitrary RTL, or design: initial|row8col|rowcol",
        example: r#"{"frontend":"verilog","design":"rowcol"}"#,
    },
    FrontendInfo {
        name: "chisel",
        tool: ToolId::Chisel,
        params: "design: initial|rowcol",
        example: r#"{"frontend":"chisel","design":"initial"}"#,
    },
    FrontendInfo {
        name: "bsv",
        tool: ToolId::Bsv,
        params: "design: initial|rowcol, variant: urgency order (initial <6, rowcol <20)",
        example: r#"{"frontend":"bsv","design":"rowcol","variant":3}"#,
    },
    FrontendInfo {
        name: "dslx",
        tool: ToolId::Dslx,
        params: "stages: 0..=18 pipeline stages",
        example: r#"{"frontend":"dslx","stages":8}"#,
    },
    FrontendInfo {
        name: "maxj",
        tool: ToolId::Maxj,
        params: "kernel: matrix|row",
        example: r#"{"frontend":"maxj","kernel":"row"}"#,
    },
    FrontendInfo {
        name: "bambu",
        tool: ToolId::CBambu,
        params: "preset: area|balanced|performance-mp, sdc: bool, lss: bool",
        example: r#"{"frontend":"bambu","preset":"performance-mp","sdc":true}"#,
    },
    FrontendInfo {
        name: "vivado-hls",
        tool: ToolId::CVivadoHls,
        params: "pipeline/partition/inline: bool",
        example: r#"{"frontend":"vivado-hls","pipeline":true,"partition":true,"inline":true}"#,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    fn resolve(text: &str) -> Result<Design, ApiError> {
        resolve_design(&Json::parse(text).unwrap())
    }

    #[test]
    fn every_documented_example_resolves() {
        for f in FRONTENDS {
            let design = resolve(f.example).unwrap_or_else(|e| {
                panic!("{}: {} -> {}: {}", f.name, f.example, e.code, e.message)
            });
            assert!(design.label.starts_with(f.name), "{}", design.label);
        }
    }

    #[test]
    fn inline_verilog_source_elaborates() {
        let d = resolve(
            r#"{"frontend":"verilog","source":"module t (input [3:0] a, output [3:0] y); assign y = a + 4'd1; endmodule"}"#,
        )
        .unwrap();
        assert_eq!(d.label, "verilog:t");
        assert_eq!(d.loc, 1);
    }

    #[test]
    fn shape_errors_are_400_and_semantic_errors_422() {
        let shape_cases = [
            r#"{"design":"initial"}"#,
            r#"{"frontend":"fortran"}"#,
            r#"{"frontend":"verilog","design":"fastest"}"#,
            r#"{"frontend":"dslx","stages":"eight"}"#,
            r#"{"frontend":"bambu","preset":"area","sdc":"yes"}"#,
        ];
        for case in shape_cases {
            let e = resolve(case).unwrap_err();
            assert_eq!(e.status, 400, "{case}: {}", e.message);
        }
        let semantic_cases = [
            r#"{"frontend":"verilog","source":"module broken"}"#,
            r#"{"frontend":"bsv","design":"initial","variant":6}"#,
            r#"{"frontend":"dslx","stages":19}"#,
        ];
        for case in semantic_cases {
            let e = resolve(case).unwrap_err();
            assert_eq!(e.status, 422, "{case}: {}", e.message);
        }
    }

    #[test]
    fn kernel_field_selects_matrix_cells() {
        // Every frontend accepts every registry kernel.
        for f in FRONTENDS {
            for spec in hc_kernels::kernels() {
                let body = format!(r#"{{"frontend":"{}","kernel":"{}"}}"#, f.name, spec.id);
                let d =
                    resolve(&body).unwrap_or_else(|e| panic!("{body}: {}: {}", e.code, e.message));
                assert_eq!(
                    d.label,
                    format!("matrix.{}.{}", spec.id, hc_core::matrix::tool_slug(f.tool))
                );
                assert!(d.loc > 0, "{}", d.label);
            }
        }
    }

    #[test]
    fn legacy_maxj_kernels_still_resolve() {
        let d = resolve(r#"{"frontend":"maxj","kernel":"matrix"}"#).unwrap();
        assert_eq!(d.label, "maxj:matrix/cycle");
    }

    #[test]
    fn unknown_kernel_is_a_400() {
        let e = resolve(r#"{"frontend":"verilog","kernel":"dct9"}"#).unwrap_err();
        assert_eq!(e.status, 400);
        assert_eq!(e.code, "unknown_kernel");
        // An unknown frontend still reports unknown_frontend, kernel or not.
        let e = resolve(r#"{"frontend":"fortran","kernel":"dct8"}"#).unwrap_err();
        assert_eq!(e.code, "unknown_frontend");
    }

    #[test]
    fn tool_names_resolve_to_sweeps() {
        assert_eq!(
            resolve_tool(&Json::parse(r#"{"tool":"dslx"}"#).unwrap()).unwrap(),
            ToolId::Dslx
        );
        assert!(resolve_tool(&Json::parse(r#"{"tool":"hdl"}"#).unwrap()).is_err());
    }
}
