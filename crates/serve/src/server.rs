//! The TCP front: accept loop, per-connection keep-alive I/O, routing,
//! backpressure and graceful drain.
//!
//! Connection threads never compute: POST handlers are queued on the
//! [`JobPool`] and the connection thread waits on a one-shot slot for the
//! response. When the injector is full the client gets `429` with
//! `Retry-After` immediately — the queue bound is the entire admission
//! policy. `GET` endpoints (health, metrics, tools) answer inline so the
//! service stays observable while saturated.

use std::io::{BufReader, BufWriter, Write};
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

use hc_core::measure::try_measure;
use hc_core::{dse, obs, persist};
use hc_obs::metrics::counter;

use crate::frontend::{resolve_tool, ApiError};
use crate::http::{read_request, ChunkedWriter, HttpError, Request, Response};
use crate::jobj;
use crate::json::Json;
use crate::pool::{JobPool, Priority, SubmitError, Worker};
use crate::ratelimit::RateLimiter;
use crate::{api, DEFAULT_QUEUE_CAP};

/// How long a connection thread waits for its queued job before giving
/// up with `504` (the job itself keeps running).
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(300);
/// Poll granularity for idle keep-alive reads; each timeout re-checks the
/// drain flag, so this bounds drain latency for idle connections.
const READ_POLL: Duration = Duration::from_millis(500);

/// Server configuration, resolved from `HC_SERVE_*` by
/// [`Options::from_config`].
#[derive(Clone, Debug)]
pub struct Options {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Worker-pool width.
    pub workers: usize,
    /// Injector bound (jobs beyond it are refused with `429`).
    pub queue_cap: usize,
    /// Per-peer request rate for the compute endpoints, in requests per
    /// second (`None` disables rate limiting).
    pub rps: Option<u64>,
}

impl Options {
    /// Derives options from an observability config snapshot:
    /// `HC_SERVE_THREADS` (default: the machine's parallelism, floor 2 so
    /// one sweep can't wedge the API), `HC_SERVE_QUEUE_CAP`
    /// (default 256) and `HC_SERVE_RPS` (default: unlimited).
    pub fn from_config(cfg: &obs::Config) -> Options {
        let fallback = std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get);
        Options {
            addr: "127.0.0.1:0".to_owned(),
            workers: cfg.serve_threads.unwrap_or(fallback.max(2)),
            queue_cap: cfg.serve_queue_cap.unwrap_or(DEFAULT_QUEUE_CAP),
            rps: cfg.serve_rps.map(|n| n as u64),
        }
    }
}

/// One-shot rendezvous between a connection thread and its pool job.
struct ResponseSlot {
    slot: Mutex<Option<Response>>,
    ready: Condvar,
}

impl ResponseSlot {
    fn new() -> Arc<ResponseSlot> {
        Arc::new(ResponseSlot {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    fn fulfill(&self, r: Response) {
        *self.slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(r);
        self.ready.notify_all();
    }

    fn wait(&self, timeout: Duration) -> Option<Response> {
        let deadline = std::time::Instant::now() + timeout;
        let mut guard = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(r) = guard.take() {
                return Some(r);
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return None;
            }
            let (g, _) = self
                .ready
                .wait_timeout(guard, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            guard = g;
        }
    }
}

struct Inner {
    pool: JobPool,
    draining: AtomicBool,
    drain_lock: Mutex<bool>,
    drain_cv: Condvar,
    open_conns: AtomicUsize,
    limiter: Option<RateLimiter>,
}

/// A running server; dropping it without [`Server::shutdown`] leaves the
/// accept thread running for the life of the process.
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    accept: Option<std::thread::JoinHandle<()>>,
}

/// Binds, spawns the pool and the accept thread, and returns immediately.
///
/// # Errors
///
/// Propagates bind failures.
pub fn start(opts: &Options) -> std::io::Result<Server> {
    let listener = TcpListener::bind(&opts.addr)?;
    let addr = listener.local_addr()?;
    let inner = Arc::new(Inner {
        pool: JobPool::new(opts.workers, opts.queue_cap),
        draining: AtomicBool::new(false),
        drain_lock: Mutex::new(false),
        drain_cv: Condvar::new(),
        open_conns: AtomicUsize::new(0),
        limiter: opts.rps.map(RateLimiter::new),
    });
    let accept_inner = Arc::clone(&inner);
    let accept = std::thread::Builder::new()
        .name("hc-serve-accept".to_owned())
        .spawn(move || accept_loop(&listener, &accept_inner))?;
    Ok(Server {
        inner,
        addr,
        accept: Some(accept),
    })
}

impl Server {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until a client requests `POST /v1/shutdown`.
    pub fn wait_for_shutdown_request(&self) {
        let mut requested = self
            .inner
            .drain_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while !*requested {
            requested = self
                .inner
                .drain_cv
                .wait(requested)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Graceful drain: stop accepting, let queued jobs finish, join the
    /// accept thread and the pool.
    pub fn shutdown(mut self) {
        self.inner.begin_drain();
        // Unblock the accept thread with a no-op connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.inner.pool.shutdown();
        // Connection threads exit on their own once their request
        // completes and they observe the drain flag; wait briefly so jobs
        // fulfilled during the pool drain get flushed onto the wire.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while self.inner.open_conns.load(Ordering::SeqCst) > 0
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Inner {
    fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        let mut requested = self
            .drain_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *requested = true;
        self.drain_cv.notify_all();
    }
}

fn accept_loop(listener: &TcpListener, inner: &Arc<Inner>) {
    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if inner.draining.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let conn_inner = Arc::clone(inner);
        conn_inner.open_conns.fetch_add(1, Ordering::SeqCst);
        let handle = std::thread::Builder::new()
            .name("hc-serve-conn".to_owned())
            .spawn(move || {
                // A connection thread must never take the process down.
                let _ = catch_unwind(AssertUnwindSafe(|| handle_conn(&stream, &conn_inner)));
                conn_inner.open_conns.fetch_sub(1, Ordering::SeqCst);
            });
        match handle {
            Ok(h) => {
                conns.push(h);
                conns.retain(|h| !h.is_finished());
            }
            Err(_) => {
                inner.open_conns.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
    for h in conns {
        let _ = h.join();
    }
}

fn handle_conn(stream: &TcpStream, inner: &Arc<Inner>) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_nodelay(true);
    let peer = stream.peer_addr().ok().map(|a| a.ip());
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = BufWriter::new(stream.try_clone().expect("clone stream"));
    let requests = counter("serve.requests");
    loop {
        // Peek before parsing so an idle poll tick (read timeout between
        // requests) never consumes a partial request; timeouts *inside* a
        // request drop the connection, which is the honest outcome.
        match std::io::BufRead::fill_buf(&mut reader) {
            Ok([]) => return,
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if inner.draining.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
        let req = match read_request(&mut reader) {
            Ok(Some(req)) => req,
            Ok(None) => return,
            Err(HttpError::Io(_)) => return,
            Err(HttpError::Malformed(m)) => {
                let err = ApiError::bad_request("bad_http", m);
                let _ = Response::json(err.status, &err.to_json()).write_to(&mut writer, false);
                return;
            }
            Err(HttpError::TooLarge(what)) => {
                let err = ApiError {
                    status: 413,
                    code: "too_large",
                    message: format!("{what} exceeds the size cap"),
                };
                let _ = Response::json(err.status, &err.to_json()).write_to(&mut writer, false);
                return;
            }
        };
        requests.inc();
        let mut span = obs::span("serve.request").with("path", req.path.clone());
        let keep_alive = req.keep_alive() && !inner.draining.load(Ordering::SeqCst);
        let response = if let Some(r) = rate_limited(inner, peer, &req) {
            r
        } else if let Some(body) = stream_request(&req) {
            match stream_dse(&body, inner, &mut writer, keep_alive) {
                StreamOutcome::Plain(r) => r,
                StreamOutcome::Streamed { status, io_ok } => {
                    span.attach("status", u64::from(status));
                    span.attach("streamed", true);
                    drop(span);
                    count_status(status);
                    if !io_ok || !keep_alive {
                        return;
                    }
                    continue;
                }
            }
        } else {
            route(&req, inner)
        };
        span.attach("status", u64::from(response.status));
        drop(span);
        count_status(response.status);
        if response.write_to(&mut writer, keep_alive).is_err() || !keep_alive {
            return;
        }
    }
}

/// The `429 rate_limited` response when the per-peer token bucket for a
/// compute endpoint is empty; `None` admits the request. `GET` endpoints
/// are never limited, so health and metrics stay reachable.
fn rate_limited(inner: &Inner, peer: Option<IpAddr>, req: &Request) -> Option<Response> {
    let limiter = inner.limiter.as_ref()?;
    let peer = peer?;
    if req.method != "POST" || !matches!(req.path.as_str(), "/v1/synth" | "/v1/measure" | "/v1/dse")
    {
        return None;
    }
    let retry = limiter.check(peer).err()?;
    counter("serve.rate_limited").inc();
    let err = ApiError {
        status: 429,
        code: "rate_limited",
        message: format!("per-client rate limit exceeded; retry in {retry}s"),
    };
    Some(Response::json(err.status, &err.to_json()).with_header("retry-after", &retry.to_string()))
}

/// The parsed body of a `POST /v1/dse` request that asked for a streamed
/// response (`"stream": true`); `None` routes normally (including parse
/// failures, which the normal path turns into `400 bad_json`).
fn stream_request(req: &Request) -> Option<Json> {
    if req.method != "POST" || req.path != "/v1/dse" {
        return None;
    }
    let body = Json::parse(std::str::from_utf8(&req.body).ok()?).ok()?;
    (body.get("stream").and_then(Json::as_bool) == Some(true)).then_some(body)
}

fn count_status(status: u16) {
    let bucket = match status {
        200..=299 => "serve.responses_2xx",
        400..=499 => "serve.responses_4xx",
        _ => "serve.responses_5xx",
    };
    counter(bucket).inc();
}

fn route(req: &Request, inner: &Arc<Inner>) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Response::json(200, &jobj! { "status" => "ok" }),
        ("GET", "/v1/metrics") => Response::json(200, &api::metrics(&inner.pool)),
        ("GET", "/v1/tools") => Response::json(200, &api::tools()),
        ("POST", "/v1/shutdown") => {
            inner.begin_drain();
            // The accept loop is woken by Server::shutdown's nudge (the
            // embedding binary calls it after wait_for_shutdown_request).
            Response::json(200, &jobj! { "status" => "draining" })
        }
        ("POST", "/v1/synth") => queued(req, inner, Priority::High, |body, _| api::synth(body)),
        ("POST", "/v1/measure") => {
            queued(req, inner, Priority::Normal, |body, _| api::measure(body))
        }
        ("POST", "/v1/dse") => queued(req, inner, Priority::Low, api::dse),
        (
            _,
            "/healthz" | "/v1/metrics" | "/v1/tools" | "/v1/shutdown" | "/v1/synth" | "/v1/measure"
            | "/v1/dse",
        ) => {
            let err = ApiError {
                status: 405,
                code: "method_not_allowed",
                message: format!("{} is not valid for {}", req.method, req.path),
            };
            Response::json(err.status, &err.to_json())
        }
        (_, path) => {
            let err = ApiError {
                status: 404,
                code: "not_found",
                message: format!("no route for {path}"),
            };
            Response::json(err.status, &err.to_json())
        }
    }
}

/// Parses the body, queues the handler on the pool and waits for the
/// response, translating backpressure and failure into status codes.
fn queued<F>(req: &Request, inner: &Arc<Inner>, priority: Priority, handler: F) -> Response
where
    F: Fn(&Json, &Worker) -> Result<Json, ApiError> + Send + 'static,
{
    let text = match std::str::from_utf8(&req.body) {
        Ok(t) => t,
        Err(_) => {
            let err = ApiError::bad_request("bad_json", "body is not UTF-8");
            return Response::json(err.status, &err.to_json());
        }
    };
    let body = match Json::parse(text) {
        Ok(b) => b,
        Err(e) => {
            let err = ApiError::bad_request("bad_json", format!("body is not JSON: {e}"));
            return Response::json(err.status, &err.to_json());
        }
    };
    let slot = ResponseSlot::new();
    let job_slot = Arc::clone(&slot);
    let submitted = inner.pool.submit(priority, move |worker| {
        let result = catch_unwind(AssertUnwindSafe(|| handler(&body, worker)));
        let response = match result {
            Ok(Ok(json)) => Response::json(200, &json),
            Ok(Err(err)) => Response::json(err.status, &err.to_json()),
            Err(payload) => {
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "handler panicked".to_owned());
                let err = ApiError {
                    status: 500,
                    code: "internal_error",
                    message,
                };
                Response::json(err.status, &err.to_json())
            }
        };
        job_slot.fulfill(response);
    });
    match submitted {
        Ok(()) => slot.wait(RESPONSE_TIMEOUT).unwrap_or_else(|| {
            let err = ApiError {
                status: 504,
                code: "timeout",
                message: "the job did not complete in time".to_owned(),
            };
            Response::json(err.status, &err.to_json())
        }),
        Err(SubmitError::QueueFull) => {
            counter("serve.rejected_429").inc();
            let err = ApiError {
                status: 429,
                code: "queue_full",
                message: format!(
                    "job queue is at its {} cap; retry shortly",
                    inner.pool.queue_depth()
                ),
            };
            Response::json(err.status, &err.to_json()).with_header("retry-after", "1")
        }
        Err(SubmitError::ShuttingDown) => {
            let err = ApiError {
                status: 503,
                code: "shutting_down",
                message: "the server is draining".to_owned(),
            };
            Response::json(err.status, &err.to_json())
        }
    }
}

/// How a streaming request ended.
enum StreamOutcome {
    /// Refused before any bytes hit the wire — answer as a normal
    /// response (errors, backpressure).
    Plain(Response),
    /// The chunked head was written; `io_ok` is false when the stream
    /// died mid-flight (transport error or timeout) and the connection
    /// must close.
    Streamed { status: u16, io_ok: bool },
}

/// One NDJSON event flowing from pool workers to the connection thread.
enum StreamEvent {
    Point(Json),
    Done(Json),
}

/// `POST /v1/dse` with `"stream": true`: chunked NDJSON, one event per
/// line.
///
/// * `{"event":"meta", tool, points, nblocks, cached_points}` — first.
/// * `{"event":"point", index, cached, measurement|error}` — per sweep
///   point, in *completion* order; points already in the persistent
///   store are flagged `cached` and return near-instantly.
/// * `{"event":"done", ok, failed, pareto, best_q}` — last; `pareto` and
///   `best_q` are original sweep indices.
///
/// Unlike the buffered endpoint, a failed point does not abort the sweep
/// — it becomes a `point` event with an `error` field, and `done` still
/// arrives. Refusals (bad request, queue full, draining) are decided
/// *before* the chunked head, so they come back as ordinary JSON
/// responses with real status codes.
fn stream_dse<W: Write>(
    body: &Json,
    inner: &Arc<Inner>,
    writer: &mut W,
    keep_alive: bool,
) -> StreamOutcome {
    let plain = |err: ApiError| {
        let r = Response::json(err.status, &err.to_json());
        StreamOutcome::Plain(if err.status == 429 {
            r.with_header("retry-after", "1")
        } else {
            r
        })
    };
    let tool = match resolve_tool(body) {
        Ok(t) => t,
        Err(e) => return plain(e),
    };
    let n = match api::nblocks(body) {
        Ok(n) => n,
        Err(e) => return plain(e),
    };
    let points = hc_core::entries::dse_points(tool);
    let total = points.len();
    // Which points the persistent store will answer — advisory flags for
    // the per-point events (one content hash each, no simulation).
    let cached: Arc<Vec<bool>> = Arc::new(if persist::store().is_some() {
        points
            .iter()
            .map(|d| persist::has_measurement(&persist::design_measure_key(d, n)))
            .collect()
    } else {
        vec![false; total]
    });
    let cached_points = cached.iter().filter(|c| **c).count();
    // Skip-ahead ordering: store misses go to the workers as their own
    // batch ahead of the hits, so a resumed sweep streams every fresh
    // measurement before the near-instant store answers fill in. Two
    // batches (not a sorted single batch) because the pool pops its own
    // deque LIFO but steals FIFO — no single ordering survives both.
    // Every event still carries the point's original sweep index.
    let (fresh, warm): (Vec<(usize, _)>, Vec<(usize, _)>) = points
        .into_iter()
        .enumerate()
        .partition(|&(i, _)| !cached[i]);

    let (tx, rx) = mpsc::channel::<StreamEvent>();
    let tx = Arc::new(Mutex::new(tx));
    let job_tx = Arc::clone(&tx);
    let job_cached = Arc::clone(&cached);
    let submitted = inner.pool.submit(Priority::Low, move |worker| {
        let span = obs::span("serve.dse.stream").with("tool", format!("{tool:?}"));
        let point_tx = Arc::clone(&job_tx);
        let point_cached = Arc::clone(&job_cached);
        type PointFn = dyn Fn(
                &(usize, hc_core::entries::Design),
                usize,
            ) -> (
                usize,
                Result<hc_core::measure::Measurement, hc_core::measure::MeasureError>,
            ) + Send
            + Sync;
        let measure: Arc<PointFn> = Arc::new(move |(i, d), _| {
            let i = *i;
            let result = try_measure(d, n);
            let event = match &result {
                Ok(m) => jobj! {
                    "event" => "point",
                    "index" => i,
                    "cached" => point_cached[i],
                    "measurement" => api::measurement_json(m),
                },
                Err(e) => jobj! {
                    "event" => "point",
                    "index" => i,
                    "cached" => point_cached[i],
                    "error" => e.to_string(),
                },
            };
            let _ = point_tx
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .send(StreamEvent::Point(event));
            (i, result)
        });
        let f1 = Arc::clone(&measure);
        let mut measured = worker.scatter(fresh, move |p, j| f1(p, j));
        let f2 = Arc::clone(&measure);
        measured.extend(worker.scatter(warm, move |p, j| f2(p, j)));
        drop(span);
        let mut ok = Vec::new();
        let mut orig = Vec::new();
        let mut failed = 0usize;
        for (i, r) in measured {
            match r {
                Ok(m) => {
                    ok.push(m);
                    orig.push(i);
                }
                Err(_) => failed += 1,
            }
        }
        let pareto = dse::pareto_front(&ok)
            .into_iter()
            .map(|k| Json::from(orig[k]))
            .collect::<Vec<_>>();
        let best = dse::best_quality(&ok).map(|k| orig[k]);
        let done = jobj! {
            "event" => "done",
            "ok" => ok.len(),
            "failed" => failed,
            "pareto" => pareto,
            "best_q" => best.map_or(Json::Null, Json::from),
        };
        let _ = job_tx
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .send(StreamEvent::Done(done));
    });
    match submitted {
        Ok(()) => {}
        Err(SubmitError::QueueFull) => {
            counter("serve.rejected_429").inc();
            return plain(ApiError {
                status: 429,
                code: "queue_full",
                message: format!(
                    "job queue is at its {} cap; retry shortly",
                    inner.pool.queue_depth()
                ),
            });
        }
        Err(SubmitError::ShuttingDown) => {
            return plain(ApiError {
                status: 503,
                code: "shutting_down",
                message: "the server is draining".to_owned(),
            });
        }
    }

    // The job is queued: from here the 200 and the chunked head are on
    // the wire, and any failure can only truncate the stream.
    let headers = vec![("content-type".to_owned(), "application/x-ndjson".to_owned())];
    let mut cw = match ChunkedWriter::start(writer, 200, &headers, keep_alive) {
        Ok(cw) => cw,
        Err(_) => {
            return StreamOutcome::Streamed {
                status: 200,
                io_ok: false,
            }
        }
    };
    let meta = jobj! {
        "event" => "meta",
        "tool" => format!("{tool:?}"),
        "points" => total,
        "nblocks" => n,
        "cached_points" => cached_points,
    };
    if write_event(&mut cw, &meta).is_err() {
        return StreamOutcome::Streamed {
            status: 200,
            io_ok: false,
        };
    }
    let deadline = std::time::Instant::now() + RESPONSE_TIMEOUT;
    loop {
        let now = std::time::Instant::now();
        let Some(left) = deadline
            .checked_duration_since(now)
            .filter(|d| !d.is_zero())
        else {
            counter("serve.stream_timeouts").inc();
            return StreamOutcome::Streamed {
                status: 200,
                io_ok: false,
            };
        };
        match rx.recv_timeout(left) {
            Ok(StreamEvent::Point(event)) => {
                if write_event(&mut cw, &event).is_err() {
                    return StreamOutcome::Streamed {
                        status: 200,
                        io_ok: false,
                    };
                }
            }
            Ok(StreamEvent::Done(event)) => {
                let io_ok = write_event(&mut cw, &event).is_ok() && cw.finish().is_ok();
                return StreamOutcome::Streamed { status: 200, io_ok };
            }
            Err(_) => {
                // Sender dropped without a done event (worker panic) or
                // the deadline hit inside recv.
                counter("serve.stream_timeouts").inc();
                return StreamOutcome::Streamed {
                    status: 200,
                    io_ok: false,
                };
            }
        }
    }
}

/// One event as an NDJSON line in its own chunk.
fn write_event<W: Write>(cw: &mut ChunkedWriter<'_, W>, event: &Json) -> std::io::Result<()> {
    let mut line = event.to_string().into_bytes();
    line.push(b'\n');
    cw.chunk(&line)
}
