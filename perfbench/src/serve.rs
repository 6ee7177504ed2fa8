//! `serve`: an in-process `hc-serve` under a closed loop of two keep-alive
//! clients (one thread each) replaying a script drawn from the seed, in a
//! new order every pass.
//!
//! The store and the front-half cache are process-global, so every pass
//! runs in a child process of its own with a fresh store directory: each
//! pass starts cold, its first touch of a design writes the store and the
//! repeats read it. The traced run cycles through three children per
//! script: an untraced HTTP child, a traced one, which arms the program's
//! tracer so the server's own `serve.request` spans time each request's
//! handling inside the server, and a "direct" child that calls
//! `hc_serve::api` on the same bodies in the same order from the same cold
//! state, which gives each request's handler and JSON time.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use hc_serve::client::Conn;
use hc_serve::{jobj, Json};

use crate::reference::{check_design, same_f64, Reference};
use crate::{peak_rss_mb, pin_config, process_cpu_s, stats, Report, Rng, WORKERS};

// The request mix follows `loadgen`'s, the repository's record of
// `hc-serve` traffic: of every eight clients, four replay hot synth, two
// cold inline-Verilog synth, one measurements and one DSE bursts. A DSE
// burst is a batch of design-point measurements, so here its share goes
// to `/v1/measure`: per phase, the 35 measured designs (each once) take a
// quarter of the valid requests, hot synth a half and cold synth a
// quarter, and invalid bodies add about 10% of the whole script.
/// Hot `/v1/synth` requests per phase.
const HOT_SYNTHS: usize = 70;
/// Cold inline-Verilog `/v1/synth` requests per phase.
const COLD_SYNTHS: usize = 35;
/// Invalid bodies per phase, two of each documented code (~10% of the
/// requests).
const INVALIDS: usize = 16;
/// Simulated blocks per `/v1/measure`, as the frozen reference.
const NBLOCKS: u64 = 2;

/// What a request's response must be.
#[derive(Clone, Debug)]
enum Expect {
    /// 200 with the frozen T_L, T_P, fmax, area and Q of this design.
    Measure(String),
    /// 200 with the frozen fmax and `maxdsp=0` area of this design.
    Synth(String),
    /// 200 for a never-seen inline Verilog module with this label.
    Cold(String),
    /// The documented error status and code.
    Error(u16, &'static str),
}

#[derive(Clone, Debug)]
struct Req {
    /// The request's place in the unshuffled script: the same work has the
    /// same id in every pass, whatever order the pass replays it in.
    id: usize,
    path: &'static str,
    body: Json,
    expect: Expect,
}

fn body(text: &str) -> Json {
    Json::parse(text).expect("static request bodies parse")
}

/// The reference keys of the 14 Table II designs (each tool's initial and
/// optimized design, as Fig. 1 points).
const TABLE2_KEYS: [&str; 14] = [
    "verilog:8row+8col",
    "verilog:1row+1col",
    "construct:8row+8col",
    "construct:1row+1col",
    "rules:seq,urgency0",
    "rules:rowcol,urgency0",
    "flow:stages=0",
    "flow:stages=8",
    "dataflow:matrix/cycle",
    "dataflow:row/cycle",
    "hls_bambu:Balanced+lss",
    "hls_bambu:PerformanceMp+sdc+lss",
    "hls_vivado:pipe=0,part=0,inline=0",
    "hls_vivado:pipe=1,part=1,inline=1",
];

/// The Table II designs as API bodies, with their frozen-reference keys.
fn table2_bodies() -> Vec<(String, String)> {
    let mut all = fig1_bodies();
    all.retain(|(_, key)| TABLE2_KEYS.contains(&key.as_str()));
    assert_eq!(
        all.len(),
        TABLE2_KEYS.len(),
        "every Table II key has a body"
    );
    all
}

/// Every Fig. 1 point as an API body, with its frozen-reference key.
fn fig1_bodies() -> Vec<(String, String)> {
    let mut v: Vec<(String, String)> = [
        ("verilog", "initial", "verilog:8row+8col"),
        ("verilog", "row8col", "verilog:1row+8col"),
        ("verilog", "rowcol", "verilog:1row+1col"),
        ("chisel", "initial", "construct:8row+8col"),
        ("chisel", "rowcol", "construct:1row+1col"),
    ]
    .iter()
    .map(|(f, d, k)| {
        (
            format!(r#"{{"frontend":"{f}","design":"{d}"}}"#),
            (*k).to_owned(),
        )
    })
    .collect();
    for var in 0..6 {
        v.push((
            format!(r#"{{"frontend":"bsv","design":"initial","variant":{var}}}"#),
            format!("rules:seq,urgency{var}"),
        ));
    }
    for var in 0..20 {
        v.push((
            format!(r#"{{"frontend":"bsv","design":"rowcol","variant":{var}}}"#),
            format!("rules:rowcol,urgency{var}"),
        ));
    }
    for s in 0..=18 {
        v.push((
            format!(r#"{{"frontend":"dslx","stages":{s}}}"#),
            format!("flow:stages={s}"),
        ));
    }
    for (k, label) in [("matrix", "matrix/cycle"), ("row", "row/cycle")] {
        v.push((
            format!(r#"{{"frontend":"maxj","kernel":"{k}"}}"#),
            format!("dataflow:{label}"),
        ));
    }
    for (preset, name) in [
        ("area", "Area"),
        ("balanced", "Balanced"),
        ("performance-mp", "PerformanceMp"),
    ] {
        for sdc in [false, true] {
            for lss in [false, true] {
                v.push((
                    format!(
                        r#"{{"frontend":"bambu","preset":"{preset}","sdc":{sdc},"lss":{lss}}}"#
                    ),
                    format!(
                        "hls_bambu:{name}{}{}",
                        if sdc { "+sdc" } else { "" },
                        if lss { "+lss" } else { "" }
                    ),
                ));
            }
        }
    }
    for pipe in [false, true] {
        for part in [false, true] {
            for inline in [false, true] {
                v.push((
                    format!(
                        r#"{{"frontend":"vivado-hls","pipeline":{pipe},"partition":{part},"inline":{inline}}}"#
                    ),
                    format!(
                        "hls_vivado:pipe={},part={},inline={}",
                        u8::from(pipe),
                        u8::from(part),
                        u8::from(inline)
                    ),
                ));
            }
        }
    }
    v
}

/// Matrix cells as API bodies. The 16×16 kernel is left out: its
/// sequential HLS cell alone would take most of a pass.
fn matrix_bodies() -> Vec<(String, String)> {
    let frontends = [
        ("verilog", "verilog"),
        ("chisel", "construct"),
        ("bsv", "rules"),
        ("dslx", "flow"),
        ("maxj", "dataflow"),
        ("bambu", "hls_bambu"),
        ("vivado-hls", "hls_vivado"),
    ];
    let mut v = Vec::new();
    for kernel in ["dct8", "idct4", "fir32"] {
        for (f, slug) in frontends {
            v.push((
                format!(r#"{{"frontend":"{f}","kernel":"{kernel}"}}"#),
                format!("matrix.{kernel}.{slug}"),
            ));
        }
    }
    v
}

/// Bodies the API must refuse, with their documented status and code.
const INVALID: [(&str, &str, u16, &str); 8] = [
    (
        "/v1/synth",
        r#"{"frontend":"nonesuch"}"#,
        400,
        "unknown_frontend",
    ),
    (
        "/v1/synth",
        r#"{"frontend":"chisel"}"#,
        400,
        "missing_field",
    ),
    (
        "/v1/synth",
        r#"{"frontend":"verilog","kernel":"dct99"}"#,
        400,
        "unknown_kernel",
    ),
    (
        "/v1/measure",
        r#"{"frontend":"verilog","design":"rowcol","nblocks":1}"#,
        400,
        "bad_field_type",
    ),
    (
        "/v1/measure",
        r#"{"frontend":"dslx","stages":25}"#,
        422,
        "stages_out_of_range",
    ),
    (
        "/v1/synth",
        r#"{"frontend":"bsv","design":"rowcol","variant":99}"#,
        422,
        "variant_out_of_range",
    ),
    (
        "/v1/synth",
        r#"{"frontend":"verilog","source":"module broken ("}"#,
        422,
        "verilog_error",
    ),
    (
        "/v1/measure",
        r#"{"frontend":"verilog","source":"module nop (input a, output y); assign y = a; endmodule"}"#,
        422,
        "measurement_failed",
    ),
];

/// The designs the hot `/v1/synth` requests cycle through (`loadgen`'s
/// hot set), with their frozen-reference keys.
const HOT: [(&str, &str); 6] = [
    (
        r#"{"frontend":"chisel","design":"initial"}"#,
        "construct:8row+8col",
    ),
    (
        r#"{"frontend":"chisel","design":"rowcol"}"#,
        "construct:1row+1col",
    ),
    (
        r#"{"frontend":"verilog","design":"rowcol"}"#,
        "verilog:1row+1col",
    ),
    (
        r#"{"frontend":"bsv","design":"rowcol","variant":0}"#,
        "rules:rowcol,urgency0",
    ),
    (r#"{"frontend":"dslx","stages":8}"#, "flow:stages=8"),
    (
        r#"{"frontend":"vivado-hls","pipeline":true,"partition":true,"inline":true}"#,
        "hls_vivado:pipe=1,part=1,inline=1",
    ),
];

/// Pass `pass`'s request script: two phases, each shuffled by the seed's
/// stream for that pass.
/// Phase one measures each of the 35 measured designs once (the 14 Table
/// II designs and 21 matrix cells): the first touch writes the store.
/// Phase two measures each again, reading it. Both phases mix in hot
/// synth, cold inline-Verilog synth (a never-seen module each) and invalid
/// bodies in fixed numbers, so every seed and pass does the same work;
/// they set the order and the cold modules' constants.
fn script(seed: u64, pass: u64) -> Vec<Req> {
    let mut rng = Rng::new(seed ^ 0x5e12_7e00 ^ pass.rotate_left(32));
    let mut candidates = table2_bodies();
    candidates.extend(matrix_bodies());
    let mut reqs = Vec::new();
    let mut cold = 0;
    for _phase in 0..2 {
        let mut phase: Vec<Req> = candidates
            .iter()
            .map(|(text, key)| {
                let mut b = body(text);
                b.set("nblocks", Json::from(NBLOCKS));
                Req {
                    id: 0,
                    path: "/v1/measure",
                    body: b,
                    expect: Expect::Measure(key.clone()),
                }
            })
            .collect();
        for i in 0..HOT_SYNTHS {
            let (text, key) = HOT[i % HOT.len()];
            phase.push(Req {
                id: 0,
                path: "/v1/synth",
                body: body(text),
                expect: Expect::Synth(key.to_owned()),
            });
        }
        for _ in 0..COLD_SYNTHS {
            let k = rng.below(4096);
            let src = format!(
                "module cold_{cold} (input [11:0] a, output [11:0] y); assign y = a + 12'd{k}; endmodule"
            );
            phase.push(Req {
                id: 0,
                path: "/v1/synth",
                body: jobj! { "frontend" => "verilog", "source" => src },
                expect: Expect::Cold(format!("verilog:cold_{cold}")),
            });
            cold += 1;
        }
        for i in 0..INVALIDS {
            let (path, text, status, code) = INVALID[i % INVALID.len()];
            phase.push(Req {
                id: 0,
                path,
                body: body(text),
                expect: Expect::Error(status, code),
            });
        }
        for (i, req) in phase.iter_mut().enumerate() {
            req.id = reqs.len() + i;
        }
        let mut slots: Vec<Option<Req>> = phase.into_iter().map(Some).collect();
        reqs.extend(
            rng.permutation(slots.len())
                .into_iter()
                .map(|i| slots[i].take().expect("a permutation")),
        );
    }
    reqs
}

fn num(j: &Json, path: &[&str]) -> Option<f64> {
    path.iter().try_fold(j, |j, k| j.get(k))?.as_f64()
}

/// Checks one response against its expectation and the frozen reference.
fn check(reference: &Reference, expect: &Expect, status: u16, resp: &Json) -> Result<(), String> {
    let fail = || Err(format!("{expect:?}: got {status} {resp}"));
    match expect {
        Expect::Measure(key) => {
            let got = (|| {
                Some(crate::reference::DesignRef {
                    key: key.clone(),
                    t_l: resp.get("latency")?.as_u64()?,
                    t_p: resp.get("periodicity")?.as_u64()?,
                    fmax_mhz: num(resp, &["fmax_mhz"])?,
                    area: resp.get("area_nodsp")?.get("normalized")?.as_u64()?,
                    q: num(resp, &["q"])?,
                })
            })();
            match got {
                Some(got) if status == 200 => check_design(reference.design(key), &got),
                _ => fail(),
            }
        }
        Expect::Synth(key) => {
            let want = reference
                .design(key)
                .ok_or_else(|| format!("{key}: no frozen reference"))?;
            let fmax = num(resp, &["synth", "fmax_mhz"]);
            let area = num(resp, &["synth_nodsp", "area", "normalized"]);
            match (status, fmax, area) {
                (200, Some(f), Some(a)) if same_f64(f, want.fmax_mhz) && a == want.area as f64 => {
                    Ok(())
                }
                _ => fail(),
            }
        }
        Expect::Cold(label) => {
            if status == 200 && resp.get("label").and_then(Json::as_str) == Some(label) {
                Ok(())
            } else {
                fail()
            }
        }
        Expect::Error(want_status, code) => {
            let got_code = resp
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str);
            if status == *want_status && got_code == Some(code) {
                Ok(())
            } else {
                fail()
            }
        }
    }
}

/// What one child pass measured, per request in script order.
#[derive(Default)]
struct ChildOut {
    /// Process CPU seconds of the set-up and of the pass; wall seconds of
    /// the pass.
    setup_s: f64,
    cpu_s: f64,
    wall_s: f64,
    rss_mb: f64,
    store_hit_ratio: f64,
    /// Total time inside the server's `serve.request` spans and their
    /// count (traced HTTP children).
    server_ms: f64,
    server_n: f64,
    ms: Vec<f64>,
    handler_ms: Vec<f64>,
    json_ms: Vec<f64>,
    errors: Vec<Option<String>>,
}

impl ChildOut {
    fn to_json(&self) -> Json {
        let nums = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::from(x)).collect());
        jobj! {
            "setup_s" => self.setup_s,
            "cpu_s" => self.cpu_s,
            "wall_s" => self.wall_s,
            "rss_mb" => self.rss_mb,
            "store_hit_ratio" => self.store_hit_ratio,
            "server_ms" => self.server_ms,
            "server_n" => self.server_n,
            "ms" => nums(&self.ms),
            "handler_ms" => nums(&self.handler_ms),
            "json_ms" => nums(&self.json_ms),
            "errors" => Json::Arr(self.errors.iter().map(|e| e.clone().map_or(Json::Null, Json::from)).collect()),
        }
    }

    fn from_json(j: &Json) -> Option<ChildOut> {
        let nums = |k: &str| -> Option<Vec<f64>> {
            j.get(k)?.as_arr()?.iter().map(Json::as_f64).collect()
        };
        Some(ChildOut {
            setup_s: j.get("setup_s")?.as_f64()?,
            cpu_s: j.get("cpu_s")?.as_f64()?,
            wall_s: j.get("wall_s")?.as_f64()?,
            rss_mb: j.get("rss_mb")?.as_f64()?,
            store_hit_ratio: j.get("store_hit_ratio")?.as_f64()?,
            server_ms: j.get("server_ms")?.as_f64()?,
            server_n: j.get("server_n")?.as_f64()?,
            ms: nums("ms")?,
            handler_ms: nums("handler_ms")?,
            json_ms: nums("json_ms")?,
            errors: j
                .get("errors")?
                .as_arr()?
                .iter()
                .map(|e| e.as_str().map(str::to_owned))
                .collect(),
        })
    }
}

/// One request's `(latency ms, handler ms, JSON ms, error)`.
type Outcome = (f64, f64, f64, Option<String>);

/// A client: replays one request and reports its outcome.
type Client<'a> = Box<dyn FnMut(&Req) -> Outcome + Send + 'a>;

/// Runs the script over the clients, one thread each: a client that is
/// done sends the script's next request (closed loop). Outcomes come back
/// indexed by request id.
fn replay(reqs: &[Req], clients: Vec<Client<'_>>) -> Vec<Outcome> {
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Outcome>> = Mutex::new(vec![(0.0, 0.0, 0.0, None); reqs.len()]);
    std::thread::scope(|s| {
        for mut run in clients {
            let (slots, next) = (&slots, &next);
            s.spawn(move || {
                while let Some(req) = reqs.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let r = run(req);
                    slots.lock().expect("no client panics holding the slots")[req.id] = r;
                }
            });
        }
    });
    slots
        .into_inner()
        .expect("no client panics holding the slots")
}

/// The child side: one set-up and one pass, results as one JSON line.
pub fn child(argv: &[String]) {
    let get = |flag: &str| -> String {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1).cloned())
            .unwrap_or_else(|| panic!("serve child needs {flag}"))
    };
    let mode = get("--serve-child");
    let seed: u64 = get("--seed").parse().expect("numeric seed");
    let pass: u64 = get("--pass").parse().expect("numeric pass");
    pin_config(Some(get("--store")));
    let reqs = script(seed, pass);
    let reference = Reference::frozen();
    let mut out = ChildOut::default();

    let cpu = process_cpu_s();
    let _ = hc_core::persist::store();
    let results = if mode.starts_with("http") {
        let opts = hc_serve::Options::from_config(&hc_obs::config());
        let server = hc_serve::start(&opts).expect("binds a loopback port");
        let addr = server.addr();
        let conns: Vec<Conn> = (0..WORKERS)
            .map(|_| {
                let mut c = Conn::open(addr).expect("connects");
                let r = c.request("GET", "/healthz", None).expect("health check");
                assert_eq!(r.status, 200, "server is healthy");
                c
            })
            .collect();
        out.setup_s = process_cpu_s() - cpu;
        let cpu = process_cpu_s();
        let start = Instant::now();
        let reference = &reference;
        let clients = conns
            .into_iter()
            .map(|mut conn| -> Client<'_> {
                Box::new(move |req: &Req| {
                    let t = Instant::now();
                    let resp = conn.request("POST", req.path, Some(&req.body));
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    let err = match resp {
                        Ok(r) => check(reference, &req.expect, r.status, &r.body).err(),
                        Err(e) => Some(format!("transport: {e}")),
                    };
                    (ms, 0.0, 0.0, err)
                })
            })
            .collect();
        // Only the script's requests fall inside the armed window.
        crate::trace::arm(mode == "http-traced");
        let results = replay(&reqs, clients);
        crate::trace::arm(false);
        out.wall_s = start.elapsed().as_secs_f64();
        out.cpu_s = process_cpu_s() - cpu;
        let served: Vec<_> = crate::trace::take()
            .into_iter()
            .filter(|r| r.name == "serve.request")
            .collect();
        out.server_ms = served.iter().map(|r| r.dur_us() as f64 / 1e3).sum();
        out.server_n = served.len() as f64;
        let mut c = Conn::open(addr).expect("connects");
        let m = c.request("GET", "/v1/metrics", None).expect("metrics");
        let gets = num(&m.body, &["store", "gets"]).unwrap_or(0.0);
        let hits = num(&m.body, &["store", "hits"]).unwrap_or(0.0);
        out.store_hit_ratio = if gets > 0.0 { hits / gets } else { 0.0 };
        drop(c);
        server.shutdown();
        results
    } else {
        out.setup_s = process_cpu_s() - cpu;
        let cpu = process_cpu_s();
        let start = Instant::now();
        let reference = &reference;
        let clients = (0..WORKERS)
            .map(|_| -> Client<'_> {
                Box::new(move |req: &Req| {
                    let text = req.body.to_string();
                    let t0 = Instant::now();
                    let parsed = Json::parse(&text).expect("the script's bodies parse");
                    let t1 = Instant::now();
                    let result = match req.path {
                        "/v1/measure" => hc_serve::api::measure(&parsed),
                        _ => hc_serve::api::synth(&parsed),
                    };
                    let t2 = Instant::now();
                    let (status, resp) = match result {
                        Ok(j) => (200, j),
                        Err(e) => (e.status, e.to_json()),
                    };
                    let wire = resp.to_string();
                    let t3 = Instant::now();
                    std::hint::black_box(wire);
                    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
                    (
                        ms(t0, t3),
                        ms(t1, t2),
                        ms(t0, t1) + ms(t2, t3),
                        check(reference, &req.expect, status, &resp).err(),
                    )
                })
            })
            .collect();
        let results = replay(&reqs, clients);
        out.wall_s = start.elapsed().as_secs_f64();
        out.cpu_s = process_cpu_s() - cpu;
        results
    };
    for (ms, handler, json, err) in results {
        out.ms.push(ms);
        out.handler_ms.push(handler);
        out.json_ms.push(json);
        out.errors.push(err);
    }
    out.rss_mb = peak_rss_mb();
    println!("{}", out.to_json());
}

/// Runs one child pass in a fresh store directory and removes it after.
/// `k` numbers the child; the pass's script is `pass`'s.
fn spawn(mode: &str, seed: u64, pass: u64, k: usize) -> Result<ChildOut, String> {
    let store = PathBuf::from(format!(".perfbench/serve-store-{}-{k}", std::process::id()));
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            "--serve-child",
            mode,
            "--seed",
            &seed.to_string(),
            "--pass",
            &pass.to_string(),
            "--store",
        ])
        .arg(&store)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string());
    let _ = std::fs::remove_dir_all(&store);
    let out = out?;
    if !out.status.success() {
        return Err(format!("serve child exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or_default();
    Json::parse(line)
        .ok()
        .as_ref()
        .and_then(ChildOut::from_json)
        .ok_or_else(|| format!("unreadable serve child output {line:?}"))
}

/// The parent side: child passes for `seconds`, each on its own script;
/// with `traced`, each script is replayed by an untraced HTTP child, a
/// traced HTTP child and a direct child, in that order.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Report {
    let mut report = Report::default();
    let start = Instant::now();
    let mut direct: Vec<ChildOut> = Vec::new();
    let modes: &[&str] = if traced {
        &["http", "http-traced", "direct"]
    } else {
        &["http"]
    };
    let mut k = 0;
    while k < modes.len() || start.elapsed().as_secs_f64() < seconds {
        let mode = modes[k % modes.len()];
        let pass = (k / modes.len()) as u64;
        k += 1;
        let out = match spawn(mode, seed, pass, k) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("perfbench: serve: {e}");
                report.attempted += 1;
                report.failed += 1;
                continue;
            }
        };
        for e in out.errors.iter().flatten() {
            eprintln!("perfbench: serve: failed op: {e}");
        }
        report.attempted += out.errors.len() as u64;
        report.failed += out.errors.iter().filter(|e| e.is_some()).count() as u64;
        match mode {
            "direct" => direct.push(out),
            "http-traced" => {
                report.traced_wall_s.push(out.wall_s);
                if out.server_n != out.ms.len() as f64 {
                    eprintln!(
                        "perfbench: serve: {} server spans for {} requests",
                        out.server_n,
                        out.ms.len()
                    );
                    report.failed += 1;
                }
                let total: f64 = out.ms.iter().sum();
                // Time outside the server's request handling: HTTP
                // framing, socket transfer and the client. No span covers
                // it, so it is the `other` remainder, unclamped.
                let other = total - out.server_ms;
                report.layer("trace.other_ms", other);
                report.layer("trace.attributed_frac", out.server_ms / total);
                report.layer("serve.overhead_ms", other / out.ms.len() as f64);
            }
            _ => {
                report.setup_s.push(out.setup_s);
                report.wall_s.push(out.wall_s);
                report.cpu_s.push(out.cpu_s);
                for (id, &ms) in out.ms.iter().enumerate() {
                    report.op_sample(id, ms);
                }
                report.rss_mb.push(out.rss_mb);
                report.layer("store.hit_ratio", out.store_hit_ratio);
            }
        }
    }
    if !direct.is_empty() {
        let handler = per_request(&direct, |c| &c.handler_ms);
        let json = per_request(&direct, |c| &c.json_ms);
        report.layer("serve.handler_ms", stats::median(&handler));
        report.layer("serve.json_ms", stats::median(&json));
    }
    report
}

/// Per request, the median over children of `field`.
fn per_request(children: &[ChildOut], field: fn(&ChildOut) -> &[f64]) -> Vec<f64> {
    let n = children.iter().map(|c| field(c).len()).min().unwrap_or(0);
    (0..n)
        .map(|i| stats::median(&children.iter().map(|c| field(c)[i]).collect::<Vec<_>>()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_keys_are_the_table2_designs() {
        // Each key names a Fig. 1 point with the Table II design's module.
        let mut hashes = Vec::new();
        let mut point_hash = std::collections::HashMap::new();
        for entry in hc_core::entries::all_tools() {
            let tool = entry.info.id;
            for design in [&entry.initial, &entry.optimized] {
                hashes.push(hc_rtl::hash::content_hash(&design.module));
            }
            for d in hc_core::entries::dse_points(tool) {
                let key = format!("{}:{}", hc_core::matrix::tool_slug(tool), d.label);
                point_hash.insert(key, hc_rtl::hash::content_hash(&d.module));
            }
        }
        for (key, hash) in TABLE2_KEYS.iter().zip(&hashes) {
            assert_eq!(point_hash.get(*key), Some(hash), "{key}");
        }
        assert_eq!(hashes.len(), TABLE2_KEYS.len());
    }

    #[test]
    fn script_mix_follows_loadgen() {
        let reqs = script(1, 0);
        let count = |f: fn(&Expect) -> bool| reqs.iter().filter(|r| f(&r.expect)).count();
        let measures = count(|e| matches!(e, Expect::Measure(_)));
        let hot = count(|e| matches!(e, Expect::Synth(_)));
        let cold = count(|e| matches!(e, Expect::Cold(_)));
        let invalid = count(|e| matches!(e, Expect::Error(..)));
        assert_eq!((measures, hot, cold, invalid), (70, 140, 70, 32));
        assert_eq!(hot, 2 * measures);
        assert_eq!(cold, measures);
        let share = invalid as f64 / reqs.len() as f64;
        assert!((0.09..0.11).contains(&share), "{share}");
    }
}
