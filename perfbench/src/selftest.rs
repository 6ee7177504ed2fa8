//! `--freeze` and `--selftest`.
//!
//! `--freeze` records the program's own results as the reference.
//! `--selftest` (run from the repository root) re-derives the IEEE 1180
//! statistics from the software path, cross-checks every frozen figure
//! that overlaps the repository's published ones — `table2.csv`,
//! `fig1.csv`, the `matrix` section of `BENCH_sim.json` and the exact
//! T_L/T_P table in `tests/kernel_matrix.rs` — at the precision they are
//! printed with, and proves that a perturbed reference fails its op.

use std::collections::HashMap;

use hc_serve::Json;

use crate::reference::{check_design, check_range, DesignRef, Reference};
use crate::sweep::{Kind, Sweep};

const REFERENCE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/reference.json");

pub fn freeze() {
    let r = Reference {
        ieee1180: crate::ieee::Ieee1180::freeze(),
        fig1: Sweep::freeze(Kind::Fig1),
        matrix: Sweep::freeze(Kind::Matrix),
    };
    std::fs::write(REFERENCE_PATH, r.to_json().pretty() + "\n").expect("writes reference.json");
    eprintln!(
        "froze {} IEEE 1180 runs, {} Fig. 1 points, {} matrix cells",
        r.ieee1180.len(),
        r.fig1.len(),
        r.matrix.len()
    );
}

/// Tallies agreements and disagreements of one cross-check.
#[derive(Default)]
struct Tally {
    checked: usize,
    mismatches: Vec<String>,
}

impl Tally {
    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checked += 1;
        if !ok {
            self.mismatches.push(what());
        }
    }

    fn report(&self, source: &str) -> bool {
        eprintln!(
            "selftest: {source}: {} figures compared, {} mismatches",
            self.checked,
            self.mismatches.len()
        );
        for m in &self.mismatches {
            eprintln!("  mismatch: {m}");
        }
        self.checked > 0 && self.mismatches.is_empty()
    }
}

/// `|a - b|` within half a unit of the `decimals`-th place.
fn printed_as(frozen: f64, printed: f64, decimals: i32) -> bool {
    (frozen - printed).abs() <= 0.5 * 10f64.powi(-decimals) + 1e-9
}

fn tool_slug(csv_tool: &str) -> Option<&'static str> {
    Some(match csv_tool {
        "Verilog/Vivado" => "verilog",
        "Chisel" => "construct",
        "BSV/BSC" => "rules",
        "DSLX/XLS" => "flow",
        "MaxJ/MaxCompiler" => "dataflow",
        "C/Bambu" => "hls_bambu",
        "C/VivadoHLS" => "hls_vivado",
        _ => return None,
    })
}

fn read(path: &str) -> Option<String> {
    let text = std::fs::read_to_string(path);
    if text.is_err() {
        eprintln!("selftest: cannot read {path} (run from the repository root)");
    }
    text.ok()
}

/// `fig1.csv`: tool, label (may hold commas), throughput, area, fmax, Q.
fn fig1_csv(r: &Reference) -> bool {
    let mut t = Tally::default();
    for line in read("fig1.csv").unwrap_or_default().lines().skip(1) {
        let f: Vec<&str> = line.split(',').collect();
        if f.len() < 6 {
            continue;
        }
        let n = f.len();
        let key = format!(
            "{}:{}",
            tool_slug(f[0]).unwrap_or("?"),
            f[1..n - 4].join(",")
        );
        let (area, fmax, q) = (
            f[n - 3].parse::<u64>(),
            f[n - 2].parse::<f64>(),
            f[n - 1].parse::<f64>(),
        );
        match (r.design(&key), area, fmax, q) {
            (Some(d), Ok(area), Ok(fmax), Ok(q)) => {
                t.expect(d.area == area, || {
                    format!("{key}: area {} vs {area}", d.area)
                });
                t.expect(printed_as(d.fmax_mhz, fmax, 2), || {
                    format!("{key}: fmax {} vs {fmax}", d.fmax_mhz)
                });
                t.expect(printed_as(d.q, q, 1), || format!("{key}: Q {} vs {q}", d.q));
            }
            _ => t.expect(false, || format!("{key}: not frozen or unparsable")),
        }
    }
    t.report("fig1.csv")
}

/// `table2.csv`: each Table II design is the Fig. 1 point with the same
/// module (matched by structural hash).
fn table2_csv(r: &Reference) -> bool {
    let mut by_hash: HashMap<u128, String> = HashMap::new();
    for tool in hc_core::matrix::MATRIX_TOOLS {
        for d in hc_core::entries::dse_points(tool) {
            let key = format!("{}:{}", hc_core::matrix::tool_slug(tool), d.label);
            by_hash
                .entry(hc_rtl::hash::content_hash(&d.module))
                .or_insert(key);
        }
    }
    let mut t = Tally::default();
    let tools = hc_core::entries::all_tools();
    for line in read("table2.csv").unwrap_or_default().lines().skip(1) {
        let f: Vec<&str> = line.split(',').collect();
        if f.len() != 18 {
            continue;
        }
        let Some(entry) = tools
            .iter()
            .find(|e| tool_slug(f[0]) == Some(hc_core::matrix::tool_slug(e.info.id)))
        else {
            t.expect(false, || format!("{}: unknown tool", f[0]));
            continue;
        };
        let design = if f[1] == "initial" {
            &entry.initial
        } else {
            &entry.optimized
        };
        let Some(d) = by_hash
            .get(&hc_rtl::hash::content_hash(&design.module))
            .and_then(|k| r.design(k))
        else {
            t.expect(false, || {
                format!("{} {}: no Fig. 1 point shares its module", f[0], f[1])
            });
            continue;
        };
        let row = format!("{} {} ({})", f[0], f[1], d.key);
        let int = |i: usize| f[i].parse::<u64>().ok();
        let flt = |i: usize| f[i].parse::<f64>().ok();
        t.expect(flt(4).is_some_and(|v| printed_as(d.fmax_mhz, v, 2)), || {
            format!("{row}: fmax {} vs {}", d.fmax_mhz, f[4])
        });
        t.expect(int(7) == Some(d.t_l), || {
            format!("{row}: T_L {} vs {}", d.t_l, f[7])
        });
        t.expect(int(8) == Some(d.t_p), || {
            format!("{row}: T_P {} vs {}", d.t_p, f[8])
        });
        t.expect(int(13) == Some(d.area), || {
            format!("{row}: area {} vs {}", d.area, f[13])
        });
        t.expect(flt(14).is_some_and(|v| printed_as(d.q, v, 1)), || {
            format!("{row}: Q {} vs {}", d.q, f[14])
        });
    }
    t.report("table2.csv")
}

/// The `matrix` section of `BENCH_sim.json`.
fn bench_matrix(r: &Reference) -> bool {
    let mut t = Tally::default();
    let json = read("BENCH_sim.json").and_then(|s| Json::parse(&s).ok());
    let Some(Json::Obj(cells)) = json.as_ref().and_then(|j| j.get("matrix")) else {
        return Tally::default().report("BENCH_sim.json matrix");
    };
    for (label, cell) in cells {
        let Some(d) = r.design(label) else {
            t.expect(false, || format!("{label}: not frozen"));
            continue;
        };
        let get = |k: &str| cell.get(k).and_then(Json::as_f64);
        t.expect(get("latency") == Some(d.t_l as f64), || {
            format!("{label}: T_L")
        });
        t.expect(get("periodicity") == Some(d.t_p as f64), || {
            format!("{label}: T_P")
        });
        t.expect(get("q").is_some_and(|q| printed_as(d.q, q, 4)), || {
            format!("{label}: Q {} vs {:?}", d.q, get("q"))
        });
    }
    t.report("BENCH_sim.json matrix")
}

/// The `(kernel, frontend, T_L, T_P)` rows of `per_kernel_timing_is_pinned`.
fn kernel_matrix_table(r: &Reference) -> bool {
    let mut t = Tally::default();
    let src = read("tests/kernel_matrix.rs").unwrap_or_default();
    let body = src
        .split("fn per_kernel_timing_is_pinned")
        .nth(1)
        .and_then(|s| s.split("];").next())
        .unwrap_or_default();
    for line in body.lines() {
        let Some(row) = line
            .trim()
            .strip_prefix('(')
            .and_then(|l| l.strip_suffix("),"))
        else {
            continue;
        };
        let f: Vec<&str> = row.split(',').map(|s| s.trim().trim_matches('"')).collect();
        if f.len() != 4 {
            continue;
        }
        let label = format!("matrix.{}.{}", f[0], f[1]);
        match r.design(&label) {
            Some(d) => t.expect(
                f[2].parse() == Ok(d.t_l) && f[3].parse() == Ok(d.t_p),
                || format!("{label}: ({}, {}) vs ({}, {})", d.t_l, d.t_p, f[2], f[3]),
            ),
            None => t.expect(false, || format!("{label}: not frozen")),
        }
    }
    t.report("tests/kernel_matrix.rs T_L/T_P table")
}

/// The software fixed-point path still yields the frozen statistics.
fn software_ieee(r: &Reference) -> bool {
    let mut t = Tally::default();
    for s in crate::ieee::Ieee1180::freeze() {
        let ok = check_range(r.range(s.l, s.h, s.negate), &s, true).is_ok();
        t.expect(ok, || format!("{s:?}"));
    }
    t.report("IEEE 1180 software path")
}

/// Every frozen figure, perturbed, fails its check.
fn perturbation(r: &Reference) -> bool {
    let mut t = Tally::default();
    let designs: Vec<&DesignRef> = r.fig1.iter().chain(&r.matrix).collect();
    for d in designs {
        let perturbed: [DesignRef; 5] = [
            DesignRef {
                t_l: d.t_l + 1,
                ..d.clone()
            },
            DesignRef {
                t_p: d.t_p + 1,
                ..d.clone()
            },
            DesignRef {
                area: d.area + 1,
                ..d.clone()
            },
            DesignRef {
                fmax_mhz: d.fmax_mhz * (1.0 + 1e-9),
                ..d.clone()
            },
            DesignRef {
                q: d.q * (1.0 - 1e-9),
                ..d.clone()
            },
        ];
        t.expect(check_design(Some(d), d).is_ok(), || {
            format!("{}: self", d.key)
        });
        for p in &perturbed {
            t.expect(check_design(Some(d), p).is_err(), || {
                format!("{}: {p:?} passed", d.key)
            });
        }
    }
    for s in &r.ieee1180 {
        let mut p = s.clone();
        p.pmse *= 1.0 + 1e-9;
        t.expect(check_range(Some(s), &p, true).is_err(), || {
            format!("{s:?}: pmse")
        });
        t.expect(check_range(Some(s), s, false).is_err(), || {
            format!("{s:?}: verdict")
        });
    }
    t.report("perturbed reference")
}

pub fn run() -> bool {
    let r = Reference::frozen();
    let results = [
        software_ieee(&r),
        fig1_csv(&r),
        table2_csv(&r),
        bench_matrix(&r),
        kernel_matrix_table(&r),
        perturbation(&r),
    ];
    let ok = results.iter().all(|&b| b);
    eprintln!("selftest: {}", if ok { "PASS" } else { "FAIL" });
    ok
}
