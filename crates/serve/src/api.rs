//! Endpoint handlers: pure `Json → Result<Json, ApiError>` functions the
//! server runs on pool workers.

use hc_core::cache;
use hc_core::entries::dse_points;
use hc_core::measure::{try_measure, MeasureError, Measurement};
use hc_core::{dse, obs};
use hc_synth::{AreaReport, SynthReport};

use crate::frontend::{resolve_design, resolve_tool, ApiError, FRONTENDS};
use crate::jobj;
use crate::json::Json;
use crate::pool::{JobPool, Worker};

fn area_json(a: &AreaReport) -> Json {
    jobj! {
        "lut" => a.lut,
        "ff" => a.ff,
        "dsp" => a.dsp,
        "bram" => a.bram,
        "io" => a.io,
        "normalized" => a.normalized(),
    }
}

fn synth_json(r: &SynthReport) -> Json {
    jobj! {
        "module" => r.module.clone(),
        "fmax_mhz" => r.timing.fmax_mhz(),
        "t_clk_ns" => r.timing.t_clk_ns,
        "area" => area_json(&r.area),
        "critical_path_len" => r.timing.critical_path.len(),
    }
}

pub(crate) fn measurement_json(m: &Measurement) -> Json {
    jobj! {
        "label" => m.label.clone(),
        "fmax_mhz" => m.fmax_mhz,
        "t_clk_ns" => m.t_clk_ns,
        "latency" => m.latency,
        "periodicity" => m.periodicity,
        "throughput_mops" => m.throughput_mops,
        "q" => m.q,
        "loc" => m.loc,
        "area" => area_json(&m.area),
        "area_nodsp" => area_json(&m.area_nodsp),
    }
}

/// `nblocks` with the request's override, clamped to a sane band.
pub(crate) fn nblocks(body: &Json) -> Result<usize, ApiError> {
    match body.get("nblocks") {
        None => Ok(3),
        Some(v) => match v.as_usize() {
            Some(n) if (2..=64).contains(&n) => Ok(n),
            _ => Err(ApiError::bad_request(
                "bad_field_type",
                "field \"nblocks\" must be an integer in 2..=64",
            )),
        },
    }
}

/// `POST /v1/synth`: resolve the design and run the memoized front half
/// (optimize + synthesize twice); no simulation.
///
/// # Errors
///
/// Resolution failures ([`resolve_design`]).
pub fn synth(body: &Json) -> Result<Json, ApiError> {
    let design = resolve_design(body)?;
    let front = cache::front_half(&design.module);
    Ok(jobj! {
        "label" => design.label,
        "loc" => design.loc,
        "opt" => jobj! {
            "nodes_before" => front.opt.nodes_before,
            "nodes_after" => front.opt.nodes_after,
            "regs_before" => front.opt.regs_before,
            "regs_after" => front.opt.regs_after,
            "iterations" => front.opt.iterations,
        },
        "synth" => synth_json(&front.full),
        "synth_nodsp" => synth_json(&front.nodsp),
    })
}

/// `POST /v1/measure`: full §III-C measurement of one design point,
/// checked against its workload's golden model (the IDCT, or a matrix
/// cell's kernel).
///
/// # Errors
///
/// Resolution failures, plus `422 measurement_failed` when the design
/// cannot be driven/verified (the [`MeasureError`], as text).
pub fn measure(body: &Json) -> Result<Json, ApiError> {
    let design = resolve_design(body)?;
    let n = nblocks(body)?;
    let m = try_measure(&design, n)
        .map_err(|e| ApiError::unprocessable("measurement_failed", e.to_string()))?;
    Ok(measurement_json(&m))
}

/// `POST /v1/dse`: measure a tool's whole design-space sweep, scattered
/// across the pool, and report the Pareto front.
///
/// # Errors
///
/// Unknown tool, or `422` if any sweep point fails to measure.
pub fn dse(body: &Json, worker: &Worker) -> Result<Json, ApiError> {
    let tool = resolve_tool(body)?;
    let n = nblocks(body)?;
    let points = dse_points(tool);
    let span = obs::span("serve.dse").with("tool", format!("{tool:?}"));
    let measured: Vec<Result<Measurement, MeasureError>> =
        worker.scatter(points, move |d, _| try_measure(d, n));
    drop(span);
    let mut ok = Vec::with_capacity(measured.len());
    for (i, r) in measured.into_iter().enumerate() {
        match r {
            Ok(m) => ok.push(m),
            Err(e) => {
                return Err(ApiError::unprocessable(
                    "measurement_failed",
                    format!("sweep point {i}: {e}"),
                ))
            }
        }
    }
    let pareto = dse::pareto_front(&ok);
    let best = dse::best_quality(&ok);
    Ok(jobj! {
        "tool" => format!("{tool:?}"),
        "points" => ok.iter().map(measurement_json).collect::<Vec<_>>(),
        "pareto" => pareto.into_iter().map(Json::from).collect::<Vec<_>>(),
        "best_q" => best.map_or(Json::Null, Json::from),
    })
}

/// `GET /v1/metrics`: queue/cache/store/counter snapshot.
///
/// Cache lookups partition three ways — `hits` (in-memory), `store_hits`
/// (answered by the persistent tier) and `misses` (recomputed) — at the
/// aggregate level and per shard. The `store` object reports the
/// persistent tier itself, or `{"enabled": false}` when `HC_STORE_DIR`
/// is unset.
pub fn metrics(pool: &JobPool) -> Json {
    let (hits, misses) = cache::stats();
    let per_shard = cache::shard_stats()
        .into_iter()
        .map(|(h, m, s)| jobj! { "hits" => h, "misses" => m, "store_hits" => s })
        .collect::<Vec<_>>();
    jobj! {
        "queue_depth" => pool.queue_depth(),
        "running_jobs" => pool.running(),
        "workers" => pool.workers(),
        "cache" => jobj! {
            "hits" => hits,
            "misses" => misses,
            "store_hits" => cache::store_hits(),
            "shards" => cache::shard_count(),
            "per_shard" => per_shard,
        },
        "store" => store_json(),
        "counters" => obs::metrics::snapshot_json(),
    }
}

fn store_json() -> Json {
    let Some(store) = hc_core::persist::store() else {
        return jobj! { "enabled" => false };
    };
    let s = store.stats();
    let (gets, hits, puts, put_drops) = store.io_counters();
    jobj! {
        "enabled" => true,
        "segments" => s.segments,
        "records" => s.records,
        "live_bytes" => s.live_bytes,
        "dead_bytes" => s.dead_bytes,
        "file_bytes" => s.file_bytes,
        "read_only" => s.read_only,
        "truncated_tails" => s.truncated_tails,
        "corrupt_records" => s.corrupt_records,
        "compactions" => s.compactions,
        "evicted_records" => s.evicted_records,
        "gets" => gets,
        "hits" => hits,
        "puts" => puts,
        "put_drops" => put_drops,
    }
}

/// `GET /v1/tools`: the accepted frontends with parameter summaries,
/// plus the benchmark-matrix kernel registry every frontend accepts via
/// the `"kernel"` field.
pub fn tools() -> Json {
    let list = FRONTENDS
        .iter()
        .map(|f| {
            jobj! {
                "name" => f.name,
                "tool" => format!("{:?}", f.tool),
                "params" => f.params,
                "example" => f.example,
                "sweep_points" => dse_points(f.tool).len(),
                "matrix_slug" => hc_core::matrix::tool_slug(f.tool),
            }
        })
        .collect::<Vec<_>>();
    let kernels = hc_kernels::kernels()
        .iter()
        .map(|k| {
            jobj! {
                "id" => k.id,
                "name" => k.name,
                "rows" => k.rows,
                "cols" => k.cols,
                "in_width" => k.in_width,
                "out_width" => k.out_width,
                "example" => format!(r#"{{"frontend":"verilog","kernel":"{}"}}"#, k.id),
            }
        })
        .collect::<Vec<_>>();
    jobj! { "frontends" => list, "kernels" => kernels }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synth_reports_the_front_half() {
        let body = Json::parse(r#"{"frontend":"chisel","design":"initial"}"#).unwrap();
        let out = synth(&body).unwrap();
        assert_eq!(
            out.get("label").and_then(Json::as_str),
            Some("chisel:initial")
        );
        let fmax = out
            .get("synth")
            .and_then(|s| s.get("fmax_mhz"))
            .and_then(Json::as_f64)
            .unwrap();
        assert!(fmax > 0.0);
        let nodes_after = out
            .get("opt")
            .and_then(|o| o.get("nodes_after"))
            .and_then(Json::as_u64)
            .unwrap();
        assert!(nodes_after > 0);
    }

    #[test]
    fn measure_rejects_undrivable_designs_with_422() {
        let body = Json::parse(
            r#"{"frontend":"verilog","source":"module nop (input a, output y); assign y = a; endmodule"}"#,
        )
        .unwrap();
        let err = measure(&body).unwrap_err();
        assert_eq!(err.status, 422);
        assert_eq!(err.code, "measurement_failed");
        assert!(err.message.contains("\"rst\""), "{}", err.message);
    }

    #[test]
    fn tools_lists_all_seven_frontends() {
        let out = tools();
        let list = out.get("frontends").and_then(Json::as_arr).unwrap();
        assert_eq!(list.len(), 7);
        assert!(list
            .iter()
            .any(|f| f.get("name").and_then(Json::as_str) == Some("vivado-hls")));
    }

    #[test]
    fn tools_lists_the_kernel_registry() {
        let out = tools();
        let kernels = out.get("kernels").and_then(Json::as_arr).unwrap();
        assert_eq!(kernels.len(), hc_kernels::kernels().len());
        for k in kernels {
            let example = k.get("example").and_then(Json::as_str).unwrap();
            let body = Json::parse(example).unwrap();
            let d = resolve_design(&body).unwrap();
            assert!(d.label.starts_with("matrix."), "{}", d.label);
        }
    }

    #[test]
    fn measure_handles_matrix_cells() {
        // A small matrix cell measured end-to-end through the endpoint:
        // verified against its own golden model, not the IDCT's.
        let body = Json::parse(r#"{"frontend":"chisel","kernel":"idct4"}"#).unwrap();
        let out = measure(&body).unwrap();
        assert_eq!(
            out.get("label").and_then(Json::as_str),
            Some("matrix.idct4.construct")
        );
        assert!(out.get("q").and_then(Json::as_f64).unwrap() > 0.0);
    }
}
