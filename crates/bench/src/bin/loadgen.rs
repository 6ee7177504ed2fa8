//! Load generator for `hc-serve`: replays concurrent mixed clients
//! against an in-process server and records latency, throughput and
//! cache behavior into `BENCH_sim.json`.
//!
//! `--clients` threads, each its own keep-alive connection, replay a
//! fixed mix: cache-hot synth sweeps, cache-cold distinct modules,
//! measurements and DSE bursts. `429` backpressure is retried (and
//! counted); anything else non-2xx/4xx-expected is an error.
//!
//! Results merge into `BENCH_sim.json` under `--key` (default `"serve"`)
//! without clobbering `perfsnap`'s fields, so `ci.sh` can gate on several
//! runs side by side.

use std::net::SocketAddr;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use hc_bench::percentile;
use hc_serve::client::{roundtrip, Conn};
use hc_serve::server::Options;
use hc_serve::Json;

struct Args {
    clients: usize,
    requests: usize,
    nblocks: usize,
    key: String,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        clients: 64,
        requests: 6,
        nblocks: 2,
        key: "serve".to_owned(),
        out: "BENCH_sim.json".to_owned(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("loadgen: {name} needs a value");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--clients" => args.clients = value("--clients").parse().expect("--clients"),
            "--requests" => args.requests = value("--requests").parse().expect("--requests"),
            "--nblocks" => args.nblocks = value("--nblocks").parse().expect("--nblocks"),
            "--key" => args.key = value("--key"),
            "--out" => args.out = value("--out"),
            other => {
                eprintln!("loadgen: unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

/// The cache-hot synth bodies every hot client cycles through.
fn hot_bodies() -> Vec<Json> {
    [
        r#"{"frontend":"chisel","design":"initial"}"#,
        r#"{"frontend":"chisel","design":"rowcol"}"#,
        r#"{"frontend":"verilog","design":"rowcol"}"#,
        r#"{"frontend":"bsv","design":"rowcol","variant":0}"#,
        r#"{"frontend":"dslx","stages":8}"#,
        r#"{"frontend":"vivado-hls","pipeline":true,"partition":true,"inline":true}"#,
    ]
    .iter()
    .map(|t| Json::parse(t).expect("static body"))
    .collect()
}

/// A unique tiny Verilog module per (client, request): always a cache
/// miss, exercising the cold path under concurrency.
fn cold_body(client: usize, req: usize) -> Json {
    let id = client * 1000 + req;
    let k = (id * 37) % 4096;
    let src = format!(
        "module cold_{id} (input [11:0] a, output [11:0] y); assign y = a + 12'd{k}; endmodule"
    );
    let mut body = Json::Obj(Vec::new());
    body.set("frontend", Json::from("verilog"));
    body.set("source", Json::from(src));
    body
}

struct ClientStats {
    latencies_ms: Vec<f64>,
    ok: u64,
    rejected: u64,
    errors: u64,
}

#[allow(clippy::cast_precision_loss)]
fn run_client(addr: SocketAddr, idx: usize, args: &Args, hot: &[Json]) -> ClientStats {
    let mut stats = ClientStats {
        latencies_ms: Vec::new(),
        ok: 0,
        rejected: 0,
        errors: 0,
    };
    let Ok(mut conn) = Conn::open(addr) else {
        stats.errors += 1;
        return stats;
    };
    for req in 0..args.requests {
        let (path, body): (&str, Json) = match idx % 8 {
            0..=3 => ("/v1/synth", hot[(idx + req) % hot.len()].clone()),
            4 | 5 => ("/v1/synth", cold_body(idx, req)),
            6 => {
                let mut b = Json::Obj(Vec::new());
                b.set("frontend", Json::from("dslx"));
                b.set("stages", Json::from((idx * 7 + req) % 19));
                b.set("nblocks", Json::from(args.nblocks.max(2)));
                ("/v1/measure", b)
            }
            _ => {
                let tool = ["maxj", "verilog", "chisel"][(idx / 8 + req) % 3];
                let mut b = Json::Obj(Vec::new());
                b.set("tool", Json::from(tool));
                b.set("nblocks", Json::from(args.nblocks.max(2)));
                ("/v1/dse", b)
            }
        };
        let start = Instant::now();
        let mut attempts = 0;
        loop {
            match conn.request("POST", path, Some(&body)) {
                Ok(r) if r.status == 429 => {
                    stats.rejected += 1;
                    attempts += 1;
                    if attempts > 100 {
                        stats.errors += 1;
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(25));
                }
                Ok(r) if r.status == 200 => {
                    stats.ok += 1;
                    stats.latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
                    break;
                }
                Ok(r) => {
                    eprintln!("loadgen: client {idx} {path} -> {}: {}", r.status, r.body);
                    stats.errors += 1;
                    break;
                }
                Err(e) => {
                    eprintln!("loadgen: client {idx} {path} transport: {e}");
                    stats.errors += 1;
                    // The connection may be dead; reopen for the rest.
                    match Conn::open(addr) {
                        Ok(c) => conn = c,
                        Err(_) => return stats,
                    }
                    break;
                }
            }
        }
    }
    stats
}

/// `(hits, misses, store_hits)` from `/v1/metrics`, plus the persistent
/// tier's `(enabled, front_hits, measure_hits)`.
fn cache_stats(addr: SocketAddr) -> ((u64, u64, u64), (bool, u64, u64)) {
    let m = roundtrip(addr, "GET", "/v1/metrics", None)
        .expect("metrics endpoint")
        .body;
    let get = |k: &str| {
        m.get("cache")
            .and_then(|c| c.get(k))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    let counter = |k: &str| {
        m.get("counters")
            .and_then(|c| c.get(k))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    let enabled = m
        .get("store")
        .and_then(|s| s.get("enabled"))
        .and_then(Json::as_bool)
        .unwrap_or(false);
    (
        (get("hits"), get("misses"), get("store_hits")),
        (
            enabled,
            counter("store.front.hits"),
            counter("store.measure.hits"),
        ),
    )
}

#[allow(clippy::cast_precision_loss, clippy::too_many_lines)]
fn main() {
    let args = parse_args();
    let opts = Options::from_config(&hc_core::obs::config());
    let server = hc_serve::start(&opts).expect("bind an ephemeral port");
    let addr = server.addr();
    println!(
        "loadgen: server on {addr} ({} workers, queue cap {})",
        opts.workers, opts.queue_cap
    );

    // Warm the hot set so "hot" clients measure steady-state hits.
    let hot = hot_bodies();
    for b in &hot {
        let r = roundtrip(addr, "POST", "/v1/synth", Some(b)).expect("warmup");
        assert_eq!(r.status, 200, "warmup: {}", r.body);
    }

    let ((hits0, misses0, shits0), (store_on, sf0, sm0)) = cache_stats(addr);
    let gate = Arc::new(Barrier::new(args.clients));
    let totals = Arc::new(Mutex::new(Vec::<ClientStats>::new()));
    let wall = Instant::now();
    std::thread::scope(|scope| {
        for idx in 0..args.clients {
            let gate = Arc::clone(&gate);
            let totals = Arc::clone(&totals);
            let args = &args;
            let hot = &hot;
            scope.spawn(move || {
                gate.wait();
                let stats = run_client(addr, idx, args, hot);
                totals.lock().expect("stats lock").push(stats);
            });
        }
    });
    let wall = wall.elapsed().as_secs_f64();
    let ((hits1, misses1, shits1), (_, sf1, sm1)) = cache_stats(addr);

    // Exercise the drain path the way a real operator would.
    let r = roundtrip(addr, "POST", "/v1/shutdown", None).expect("shutdown endpoint");
    assert_eq!(r.status, 200);
    server.wait_for_shutdown_request();
    server.shutdown();

    let totals = totals.lock().expect("stats lock");
    let mut latencies: Vec<f64> = Vec::new();
    let (mut ok, mut rejected, mut errors) = (0u64, 0u64, 0u64);
    for s in totals.iter() {
        latencies.extend_from_slice(&s.latencies_ms);
        ok += s.ok;
        rejected += s.rejected;
        errors += s.errors;
    }
    let dh = hits1 - hits0;
    let dm = misses1 - misses0;
    let ds = shits1 - shits0;
    let hit_rate = if dh + dm + ds > 0 {
        dh as f64 / (dh + dm + ds) as f64
    } else {
        0.0
    };
    let p50 = percentile(&latencies, 50.0);
    let p99 = percentile(&latencies, 99.0);
    let rps = ok as f64 / wall;
    println!(
        "loadgen: {} clients x {} reqs -> {ok} ok, {rejected} x 429, {errors} errors in {wall:.2}s",
        args.clients, args.requests
    );
    println!(
        "loadgen: p50 {p50:.1} ms, p99 {p99:.1} ms, {rps:.1} req/s, cache hit rate {:.3} ({dh} hits / {ds} store hits / {dm} misses)",
        hit_rate
    );
    if store_on {
        println!(
            "loadgen: persistent store answered {ds} cache lookups ({} front + {} measure record hits)",
            sf1 - sf0,
            sm1 - sm0
        );
    }

    let mut record = Json::Obj(Vec::new());
    record.set("clients", Json::from(args.clients));
    record.set("requests_per_client", Json::from(args.requests));
    record.set("workers", Json::from(opts.workers));
    record.set("queue_cap", Json::from(opts.queue_cap));
    record.set("ok", Json::from(ok));
    record.set("rejected_429", Json::from(rejected));
    record.set("errors", Json::from(errors));
    record.set("p50_ms", Json::from(round3(p50)));
    record.set("p99_ms", Json::from(round3(p99)));
    record.set("throughput_rps", Json::from(round3(rps)));
    record.set("cache_hits", Json::from(dh));
    record.set("cache_misses", Json::from(dm));
    record.set("hit_rate", Json::from(round3(hit_rate)));
    record.set("store_enabled", Json::from(store_on));
    record.set("store_hits", Json::from(ds));
    record.set("store_front_hits", Json::from(sf1 - sf0));
    record.set("store_measure_hits", Json::from(sm1 - sm0));

    // Merge into BENCH_sim.json without disturbing perfsnap's fields.
    let mut doc = match std::fs::read_to_string(&args.out) {
        Ok(text) => Json::parse(&text).unwrap_or_else(|e| {
            eprintln!("loadgen: {} was not JSON ({e}); starting fresh", args.out);
            Json::Obj(Vec::new())
        }),
        Err(_) => Json::Obj(Vec::new()),
    };
    doc.set(&args.key, record);
    std::fs::write(&args.out, doc.pretty()).expect("write results");
    println!(
        "loadgen: results merged into {} under {:?}",
        args.out, args.key
    );
}

fn round3(x: f64) -> f64 {
    (x * 1e3).round() / 1e3
}
