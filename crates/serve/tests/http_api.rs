//! End-to-end API tests over real TCP connections.

use hc_serve::client::{roundtrip, Conn};
use hc_serve::server::Options;
use hc_serve::Json;

fn test_server(workers: usize, queue_cap: usize) -> hc_serve::Server {
    hc_serve::start(&Options {
        addr: "127.0.0.1:0".to_owned(),
        workers,
        queue_cap,
        rps: None,
    })
    .expect("bind an ephemeral port")
}

fn rate_limited_server(workers: usize, rps: u64) -> hc_serve::Server {
    hc_serve::start(&Options {
        addr: "127.0.0.1:0".to_owned(),
        workers,
        queue_cap: 64,
        rps: Some(rps),
    })
    .expect("bind an ephemeral port")
}

fn body(text: &str) -> Json {
    Json::parse(text).expect("test body is valid JSON")
}

#[test]
fn health_tools_and_metrics_answer_inline() {
    let server = test_server(2, 8);
    let r = roundtrip(server.addr(), "GET", "/healthz", None).unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(r.body.get("status").and_then(Json::as_str), Some("ok"));

    let r = roundtrip(server.addr(), "GET", "/v1/tools", None).unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(
        r.body
            .get("frontends")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(7)
    );

    let r = roundtrip(server.addr(), "GET", "/v1/metrics", None).unwrap();
    assert_eq!(r.status, 200);
    assert!(r.body.get("queue_depth").and_then(Json::as_u64).is_some());
    let cache = r.body.get("cache").expect("a cache section");
    for key in ["hits", "misses", "store_hits"] {
        assert!(cache.get(key).and_then(Json::as_u64).is_some(), "{key}");
    }
    server.shutdown();
}

#[test]
fn synth_measure_and_keep_alive_share_one_connection() {
    let server = test_server(2, 16);
    let mut conn = Conn::open(server.addr()).unwrap();

    let r = conn
        .request(
            "POST",
            "/v1/synth",
            Some(&body(r#"{"frontend":"chisel","design":"initial"}"#)),
        )
        .unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    let fmax = r
        .body
        .get("synth")
        .and_then(|s| s.get("fmax_mhz"))
        .and_then(Json::as_f64)
        .unwrap();
    assert!(fmax > 0.0);

    // Same connection, second request: keep-alive works, and the repeat
    // synth of the same design hits the shared front-half cache.
    let before = roundtrip(server.addr(), "GET", "/v1/metrics", None)
        .unwrap()
        .body;
    let hits_before = before
        .get("cache")
        .and_then(|c| c.get("hits"))
        .and_then(Json::as_u64)
        .unwrap();
    let r = conn
        .request(
            "POST",
            "/v1/synth",
            Some(&body(r#"{"frontend":"chisel","design":"initial"}"#)),
        )
        .unwrap();
    assert_eq!(r.status, 200);
    let after = roundtrip(server.addr(), "GET", "/v1/metrics", None)
        .unwrap()
        .body;
    let hits_after = after
        .get("cache")
        .and_then(|c| c.get("hits"))
        .and_then(Json::as_u64)
        .unwrap();
    assert!(hits_after > hits_before, "{hits_before} -> {hits_after}");

    let r = conn
        .request(
            "POST",
            "/v1/measure",
            Some(&body(r#"{"frontend":"dslx","stages":4,"nblocks":2}"#)),
        )
        .unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r
        .body
        .get("throughput_mops")
        .and_then(Json::as_f64)
        .is_some_and(|t| t > 0.0));
    server.shutdown();
}

#[test]
fn dse_returns_sweep_points_and_a_pareto_front() {
    let server = test_server(3, 16);
    let r = roundtrip(
        server.addr(),
        "POST",
        "/v1/dse",
        Some(&body(r#"{"tool":"maxj","nblocks":2}"#)),
    )
    .unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    let points = r.body.get("points").and_then(Json::as_arr).unwrap();
    assert_eq!(points.len(), 2);
    let pareto = r.body.get("pareto").and_then(Json::as_arr).unwrap();
    assert!(!pareto.is_empty());
    assert!(r.body.get("best_q").and_then(Json::as_u64).is_some());
    server.shutdown();
}

#[test]
fn streamed_dse_emits_per_point_events_then_done() {
    let server = test_server(3, 16);
    let mut conn = Conn::open(server.addr()).unwrap();
    let r = conn
        .request_stream(
            "POST",
            "/v1/dse",
            Some(&body(r#"{"tool":"maxj","nblocks":2,"stream":true}"#)),
        )
        .unwrap();
    assert_eq!(r.status, 200);
    assert!(r.complete, "stream must terminate cleanly");
    assert_eq!(r.header("transfer-encoding"), Some("chunked"));

    let meta = r.events_of("meta");
    assert_eq!(meta.len(), 1);
    assert_eq!(meta[0].get("points").and_then(Json::as_u64), Some(2));
    assert_eq!(meta[0].get("tool").and_then(Json::as_str), Some("Maxj"));

    let points = r.events_of("point");
    assert_eq!(points.len(), 2);
    let mut indices: Vec<u64> = points
        .iter()
        .map(|p| p.get("index").and_then(Json::as_u64).unwrap())
        .collect();
    indices.sort_unstable();
    assert_eq!(indices, vec![0, 1]);
    for p in &points {
        let m = p.get("measurement").expect("measured point");
        assert!(m
            .get("throughput_mops")
            .and_then(Json::as_f64)
            .is_some_and(|t| t > 0.0));
    }

    let done = r.events_of("done");
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].get("ok").and_then(Json::as_u64), Some(2));
    assert_eq!(done[0].get("failed").and_then(Json::as_u64), Some(0));
    assert!(!done[0]
        .get("pareto")
        .and_then(Json::as_arr)
        .unwrap()
        .is_empty());
    // Events arrive in order: meta first, done last.
    assert_eq!(
        r.events[0].get("event").and_then(Json::as_str),
        Some("meta")
    );
    assert_eq!(
        r.events.last().unwrap().get("event").and_then(Json::as_str),
        Some("done")
    );

    // The connection stays usable after a chunked response.
    let after = conn.request("GET", "/v1/metrics", None).unwrap();
    assert_eq!(after.status, 200);

    // Refusals are decided before the chunked head: a bad tool comes back
    // as a plain 400 JSON body, not a truncated stream.
    let r = conn
        .request_stream(
            "POST",
            "/v1/dse",
            Some(&body(r#"{"tool":"cobol","stream":true}"#)),
        )
        .unwrap();
    assert_eq!(r.status, 400);
    assert_eq!(r.events.len(), 1);
    assert_eq!(
        r.events[0]
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("unknown_tool")
    );
    server.shutdown();
}

/// Satellite: `HC_SERVE_RPS` gives every peer a token bucket; exhausting
/// it yields `429 rate_limited` with `Retry-After`, while `GET`
/// endpoints stay reachable.
#[test]
fn rate_limit_answers_429_with_retry_after() {
    let server = rate_limited_server(2, 1);
    let mut conn = Conn::open(server.addr()).unwrap();
    let mut ok = 0;
    let mut limited = 0;
    for _ in 0..4 {
        let r = conn
            .request(
                "POST",
                "/v1/synth",
                Some(&body(r#"{"frontend":"chisel","design":"initial"}"#)),
            )
            .unwrap();
        match r.status {
            200 => ok += 1,
            429 => {
                limited += 1;
                assert_eq!(
                    r.body
                        .get("error")
                        .and_then(|e| e.get("code"))
                        .and_then(Json::as_str),
                    Some("rate_limited"),
                    "{}",
                    r.body
                );
                let retry: u64 = r.header("retry-after").unwrap().parse().unwrap();
                assert!(retry >= 1);
            }
            other => panic!("unexpected status {other}: {}", r.body),
        }
    }
    assert!(ok >= 1, "the burst admits at least one request");
    assert!(limited >= 1, "the empty bucket rejects at least one");
    // Observability endpoints are never limited.
    for _ in 0..5 {
        let r = conn.request("GET", "/v1/metrics", None).unwrap();
        assert_eq!(r.status, 200);
    }
    let metrics = conn.request("GET", "/v1/metrics", None).unwrap().body;
    let counted = metrics
        .get("counters")
        .and_then(|c| c.get("serve.rate_limited"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    assert!(counted >= limited, "rate-limit rejections are counted");
    server.shutdown();
}

/// Satellite: every frontend must turn malformed design submissions into
/// structured JSON errors — never a hang or a dead connection.
#[test]
fn malformed_designs_fail_structured_in_every_frontend() {
    let server = test_server(2, 32);
    // (body, expected status, expected code)
    let cases: &[(&str, u16, &str)] = &[
        // Protocol shape.
        (r#"{"design":"initial"}"#, 400, "missing_field"),
        (r#"{"frontend":"cobol"}"#, 400, "unknown_frontend"),
        (r#"[1,2,3]"#, 400, "bad_body"),
        // Verilog: bad named design, unparsable source, elaboration error.
        (
            r#"{"frontend":"verilog","design":"quantum"}"#,
            400,
            "unknown_design",
        ),
        (
            r#"{"frontend":"verilog","source":"module broken (input a; endmodule"}"#,
            422,
            "verilog_error",
        ),
        (
            r#"{"frontend":"verilog","source":"module a (input x, output y); assign y = x; endmodule module b (input x, output y); assign y = x; endmodule"}"#,
            400,
            "missing_field",
        ),
        (
            r#"{"frontend":"verilog","source":"module t (input a, output y); assign y = a; endmodule","top":"missing"}"#,
            422,
            "verilog_error",
        ),
        // Chisel.
        (
            r#"{"frontend":"chisel","design":"turbo"}"#,
            400,
            "unknown_design",
        ),
        (r#"{"frontend":"chisel"}"#, 400, "missing_field"),
        // BSV.
        (
            r#"{"frontend":"bsv","design":"initial","variant":6}"#,
            422,
            "variant_out_of_range",
        ),
        (
            r#"{"frontend":"bsv","design":"rowcol","variant":99}"#,
            422,
            "variant_out_of_range",
        ),
        // DSLX.
        (
            r#"{"frontend":"dslx","stages":19}"#,
            422,
            "stages_out_of_range",
        ),
        (r#"{"frontend":"dslx","stages":-1}"#, 400, "bad_field_type"),
        // MaxJ.
        (
            r#"{"frontend":"maxj","kernel":"column"}"#,
            400,
            "unknown_design",
        ),
        // Bambu.
        (
            r#"{"frontend":"bambu","preset":"ludicrous"}"#,
            400,
            "unknown_design",
        ),
        (
            r#"{"frontend":"bambu","preset":"area","sdc":1}"#,
            400,
            "bad_field_type",
        ),
        // Vivado HLS.
        (
            r#"{"frontend":"vivado-hls","pipeline":"yes"}"#,
            400,
            "bad_field_type",
        ),
    ];
    let mut conn = Conn::open(server.addr()).unwrap();
    for (raw, status, code) in cases {
        for path in ["/v1/synth", "/v1/measure"] {
            let r = conn.request("POST", path, Some(&body(raw))).unwrap();
            assert_eq!(r.status, *status, "{path} {raw}: {}", r.body);
            assert_eq!(
                r.body
                    .get("error")
                    .and_then(|e| e.get("code"))
                    .and_then(Json::as_str),
                Some(*code),
                "{path} {raw}: {}",
                r.body
            );
        }
    }
    // A design that synthesizes but cannot be driven: only /v1/measure
    // rejects it, with the measurement's own failure.
    let undrivable = r#"{"frontend":"verilog","source":"module t (input [3:0] a, output [3:0] y); assign y = a + 4'd1; endmodule"}"#;
    let r = conn
        .request("POST", "/v1/synth", Some(&body(undrivable)))
        .unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    let r = conn
        .request("POST", "/v1/measure", Some(&body(undrivable)))
        .unwrap();
    assert_eq!(r.status, 422, "{}", r.body);
    let error = r.body.get("error");
    assert_eq!(
        error.and_then(|e| e.get("code")).and_then(Json::as_str),
        Some("measurement_failed")
    );
    let message = error
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str)
        .unwrap_or_default();
    assert!(message.contains("\"rst\""), "{message}");
    server.shutdown();
}

#[test]
fn http_level_garbage_gets_400_404_405() {
    let server = test_server(1, 4);
    let r = roundtrip(server.addr(), "GET", "/v1/nope", None).unwrap();
    assert_eq!(r.status, 404);
    let r = roundtrip(server.addr(), "DELETE", "/v1/synth", None).unwrap();
    assert_eq!(r.status, 405);
    let mut conn = Conn::open(server.addr()).unwrap();
    let r = conn
        .request(
            "POST",
            "/v1/synth",
            Some(&Json::Str("not an object".into())),
        )
        .unwrap();
    assert_eq!(r.status, 400);
    // Raw non-HTTP bytes: the server answers 400 and closes, no hang.
    use std::io::{Read, Write};
    let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
    raw.write_all(b"NOT HTTP AT ALL\r\n\r\n").unwrap();
    let mut buf = Vec::new();
    raw.read_to_end(&mut buf).unwrap();
    let text = String::from_utf8_lossy(&buf);
    assert!(text.starts_with("HTTP/1.1 400"), "{text}");
    server.shutdown();
}

/// A 20 KB body of `[` once overflowed the connection thread's stack and
/// took the whole process down; it must be an ordinary `400 bad_json` and
/// leave the server answering.
#[test]
fn hostile_nesting_gets_400_and_the_server_stays_up() {
    use std::io::{Read, Write};
    let server = test_server(1, 4);
    let body = "[".repeat(20_000);
    let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
    write!(
        raw,
        "POST /v1/synth HTTP/1.1\r\nhost: test\r\ncontent-type: application/json\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut buf = Vec::new();
    raw.read_to_end(&mut buf).unwrap();
    let text = String::from_utf8_lossy(&buf);
    assert!(text.starts_with("HTTP/1.1 400"), "{text}");
    let json = Json::parse(&text[text.find("\r\n\r\n").unwrap() + 4..]).unwrap();
    let error = json.get("error").expect("structured error body");
    assert_eq!(error.get("code").and_then(Json::as_str), Some("bad_json"));
    assert!(error
        .get("message")
        .and_then(Json::as_str)
        .is_some_and(|m| m.contains("nesting deeper than 128")));
    let r = roundtrip(server.addr(), "GET", "/healthz", None).unwrap();
    assert_eq!(r.status, 200);
    server.shutdown();
}

/// Inline Verilog whose widths or nesting the netlist cannot hold used to
/// panic the handler (`500 internal_error`) or overflow its stack; each is
/// an ordinary `422 verilog_error` and the server keeps answering.
#[test]
fn hostile_verilog_gets_422_and_the_server_stays_up() {
    let server = test_server(1, 4);
    let module = |ports: &str, rhs: &str| {
        format!("module t ({ports}, output [7:0] y); assign y = {rhs}; endmodule")
    };
    let sources = [
        module("input [7:0] a", "0'd1"),
        module("input [7:0] a", "5000'd1"),
        module("input [4999:0] a", "a"),
        module("input [4294967295:0] a", "a"),
        module("input [7:0] a", "a[100:93]"),
        module("input [7:0] a", "{1000000{a}}"),
        module("input [7:0] a", &"(".repeat(20_000)),
        module("input [7:0] a", &format!("a{}", "+a".repeat(20_000))),
        module("input [7:0] a", &format!("{}a", "a ? a : ".repeat(20_000))),
        "module t (input [7:0] a, output [7:0] y); t u (.a(a), .y(y)); endmodule".to_owned(),
    ];
    let mut conn = Conn::open(server.addr()).unwrap();
    for source in sources {
        let req = hc_serve::jobj! { "frontend" => "verilog", "source" => source.as_str() };
        let r = conn.request("POST", "/v1/synth", Some(&req)).unwrap();
        let shown = &source[..source.len().min(80)];
        assert_eq!(r.status, 422, "{shown}: {}", r.body);
        assert_eq!(
            r.body
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("verilog_error"),
            "{shown}: {}",
            r.body
        );
    }
    let r = roundtrip(server.addr(), "GET", "/healthz", None).unwrap();
    assert_eq!(r.status, 200);
    server.shutdown();
}

/// A constant product wider than 128 bits used to panic constant folding
/// in the front half (`500 internal_error`); it folds like any other.
#[test]
fn wide_constant_multiply_synthesizes() {
    let server = test_server(1, 4);
    let source = "module m(input [128:0] a, output [128:0] y); \
                  assign y = 129'd3 * 129'd5; endmodule";
    let req = hc_serve::jobj! { "frontend" => "verilog", "source" => source };
    let r = roundtrip(server.addr(), "POST", "/v1/synth", Some(&req)).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    server.shutdown();
}

/// Backpressure: a tiny queue behind a wedged worker must answer 429 with
/// Retry-After instead of queueing unboundedly.
///
/// The wedge is timing-based (a slow sweep occupying the only worker), so
/// the whole scenario retries if the sweep finishes before the probe gets
/// its rejection in — every wait is deadline-bounded, never an unbounded
/// spin.
#[test]
fn full_queue_answers_429_with_retry_after() {
    let server = test_server(1, 1);
    let addr = server.addr();
    let pool_state = |probe: &mut Conn| {
        let m = probe.request("GET", "/v1/metrics", None).unwrap().body;
        (
            m.get("queue_depth").and_then(Json::as_u64).unwrap(),
            m.get("running_jobs").and_then(Json::as_u64).unwrap(),
        )
    };
    let wait_for = |probe: &mut Conn, what: &str, cond: &dyn Fn(u64, u64) -> bool| {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        loop {
            let (depth, running) = pool_state(probe);
            if cond(depth, running) {
                return true;
            }
            if std::time::Instant::now() > deadline {
                eprintln!("gave up waiting for {what}");
                return false;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    };

    let mut probe = Conn::open(addr).unwrap();
    for attempt in 0..5 {
        // Wedge the single worker with a slow sweep.
        let slow = std::thread::spawn(move || {
            roundtrip(
                addr,
                "POST",
                "/v1/dse",
                Some(&body(r#"{"tool":"bsv","nblocks":2}"#)),
            )
        });
        // Wait until the worker is *executing* the sweep (not merely an
        // empty queue — that is also the state before the sweep arrives),
        // then occupy the single queue slot: with the worker wedged, the
        // slot cannot drain, so the next submission must bounce.
        assert!(
            wait_for(&mut probe, "the sweep to be claimed", &|depth, running| {
                running >= 1 && depth == 0
            }),
            "queue never drained to the wedged sweep"
        );
        let occupant = std::thread::spawn(move || {
            roundtrip(
                addr,
                "POST",
                "/v1/synth",
                Some(&body(r#"{"frontend":"chisel","design":"rowcol"}"#)),
            )
        });
        let occupied = wait_for(&mut probe, "the occupant to queue", &|depth, _| depth >= 1);
        let r = occupied.then(|| {
            probe
                .request(
                    "POST",
                    "/v1/synth",
                    Some(&body(r#"{"frontend":"chisel","design":"initial"}"#)),
                )
                .unwrap()
        });
        // Whatever happened, the wedge jobs themselves must succeed.
        let slow_result = slow.join().unwrap().unwrap();
        assert_eq!(slow_result.status, 200, "{}", slow_result.body);
        let occ = occupant.join().unwrap().unwrap();
        assert_eq!(occ.status, 200, "occupant: {}", occ.body);
        match r {
            Some(r) if r.status == 429 => {
                assert_eq!(r.header("retry-after"), Some("1"));
                assert_eq!(
                    r.body
                        .get("error")
                        .and_then(|e| e.get("code"))
                        .and_then(Json::as_str),
                    Some("queue_full")
                );
                server.shutdown();
                return;
            }
            // The sweep finished under the probe (or the occupant never
            // stayed queued long enough to observe): re-wedge and retry.
            Some(r) => {
                assert_eq!(r.status, 200, "probe neither bounced nor ran: {}", r.body);
                eprintln!("attempt {attempt}: sweep finished under the probe; retrying");
            }
            None => eprintln!("attempt {attempt}: occupant drained before observation; retrying"),
        }
    }
    panic!("could not observe a full queue in 5 attempts");
}

/// Graceful drain: /v1/shutdown lets in-flight work finish, then refuses
/// new submissions.
#[test]
fn shutdown_drains_in_flight_work() {
    let server = test_server(2, 16);
    let addr = server.addr();
    let inflight = std::thread::spawn(move || {
        roundtrip(
            addr,
            "POST",
            "/v1/measure",
            Some(&body(r#"{"frontend":"maxj","kernel":"row","nblocks":2}"#)),
        )
    });
    // Give the measure a moment to enter the queue, then request drain.
    std::thread::sleep(std::time::Duration::from_millis(30));
    let r = roundtrip(addr, "POST", "/v1/shutdown", None).unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(
        r.body.get("status").and_then(Json::as_str),
        Some("draining")
    );
    let r = inflight.join().unwrap().unwrap();
    assert!(
        r.status == 200 || r.status == 503,
        "in-flight during drain: {} {}",
        r.status,
        r.body
    );
    server.shutdown();
}
