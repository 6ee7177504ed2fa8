//! Hierarchical wall-time spans, exportable as Chrome-trace JSON.
//!
//! A [`span`] measures one pipeline stage (parse, optimize, synthesize,
//! lower, tapeopt, simulate, …) and can carry counter attachments. Spans
//! nest naturally: events record per-thread begin/duration, and the Chrome
//! trace viewer (`chrome://tracing`, Perfetto) reconstructs the hierarchy
//! from containment, one row per worker thread — so a traced sweep shows
//! the fan-out of `parallel_map` directly.
//!
//! Tracing is **off by default** and armed only when `HC_TRACE=<path>` is
//! set (or [`config::set_override`](crate::config::set_override) supplies a
//! path). Disarmed, [`span`] is a single relaxed atomic load and the guard
//! drop is a no-op — cheap enough to leave in every pipeline entry point.
//! Armed, events accumulate in memory until [`flush`] writes the JSON.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::Json;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// One attachment value; counters are the common case.
#[derive(Clone, Debug, PartialEq)]
pub enum ArgValue {
    /// Unsigned counter.
    U(u64),
    /// Signed counter.
    I(i64),
    /// Floating-point figure (seconds, ratios).
    F(f64),
    /// Free-form label.
    S(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U(v)
    }
}
impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U(v as u64)
    }
}
impl From<i64> for ArgValue {
    fn from(v: i64) -> Self {
        ArgValue::I(v)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F(v)
    }
}
impl From<bool> for ArgValue {
    fn from(v: bool) -> Self {
        ArgValue::U(u64::from(v))
    }
}
impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::S(v.to_string())
    }
}
impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::S(v)
    }
}

/// One completed span, in Chrome-trace "complete event" terms.
#[derive(Clone, Debug)]
pub struct Event {
    /// Span name (the stage).
    pub name: &'static str,
    /// Small dense id of the recording thread.
    pub tid: u32,
    /// Microseconds since the tracer epoch.
    pub ts_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Counter attachments.
    pub args: Vec<(&'static str, ArgValue)>,
}

struct Tracer {
    epoch: Instant,
    events: Vec<Event>,
}

fn tracer() -> &'static Mutex<Tracer> {
    static TRACER: OnceLock<Mutex<Tracer>> = OnceLock::new();
    TRACER.get_or_init(|| {
        Mutex::new(Tracer {
            epoch: Instant::now(),
            events: Vec::new(),
        })
    })
}

/// Output path the tracer was last armed with.
fn path_slot() -> &'static Mutex<Option<String>> {
    static PATH: OnceLock<Mutex<Option<String>>> = OnceLock::new();
    PATH.get_or_init(Mutex::default)
}

/// Small dense id for the current thread (Chrome traces want integer tids;
/// `ThreadId` is opaque).
fn tid() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static TID: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// Arms or disarms the tracer to match a configuration. Called by the
/// config layer; user code normally never needs it.
pub fn refresh(cfg: &crate::Config) {
    *path_slot().lock().expect("trace path") = cfg.trace.clone();
    ENABLED.store(cfg.trace.is_some(), Ordering::Relaxed);
}

/// Whether spans are currently being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An in-flight span; recording happens on drop. Obtain via [`span`].
#[must_use = "a span measures until it is dropped"]
#[derive(Debug)]
pub struct Span {
    start: Option<Instant>,
    name: &'static str,
    args: Vec<(&'static str, ArgValue)>,
}

/// Opens a span named `name`. With tracing disarmed this is one atomic
/// load and the returned guard does nothing.
pub fn span(name: &'static str) -> Span {
    Span {
        start: enabled().then(Instant::now),
        name,
        args: Vec::new(),
    }
}

impl Span {
    /// Attaches a counter (builder form).
    pub fn with(mut self, key: &'static str, value: impl Into<ArgValue>) -> Self {
        self.attach(key, value);
        self
    }

    /// Attaches a counter to an already-open span.
    pub fn attach(&mut self, key: &'static str, value: impl Into<ArgValue>) {
        if self.start.is_some() {
            self.args.push((key, value.into()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let mut t = tracer().lock().expect("tracer");
        let ts_us = start.duration_since(t.epoch).as_micros() as u64;
        let dur_us = start.elapsed().as_micros() as u64;
        let event = Event {
            name: self.name,
            tid: tid(),
            ts_us,
            dur_us,
            args: std::mem::take(&mut self.args),
        };
        t.events.push(event);
    }
}

/// Serializes events as Chrome-trace JSON (the `traceEvents` object form,
/// accepted by `chrome://tracing` and Perfetto).
pub fn to_chrome_json(events: &[Event]) -> String {
    let events: Vec<Json> = events
        .iter()
        .map(|e| {
            let args = e.args.iter().map(|(k, v)| {
                let v = match v {
                    ArgValue::U(n) => Json::from(*n),
                    ArgValue::I(n) => Json::Num(*n as f64),
                    ArgValue::F(x) => Json::Num(*x),
                    ArgValue::S(s) => Json::from(s.as_str()),
                };
                ((*k).to_owned(), v)
            });
            crate::jobj! {
                "name" => e.name,
                "cat" => "hc",
                "ph" => "X",
                "pid" => 1u32,
                "tid" => e.tid,
                "ts" => e.ts_us,
                "dur" => e.dur_us,
                "args" => Json::Obj(args.collect()),
            }
        })
        .collect();
    format!(
        "{}\n",
        crate::jobj! { "displayTimeUnit" => "ms", "traceEvents" => events }
    )
}

/// A copy of every event recorded so far (test/inspection hook).
pub fn events() -> Vec<Event> {
    tracer().lock().expect("tracer").events.clone()
}

/// Drops all recorded events (e.g. between benchmark phases).
pub fn clear() {
    tracer().lock().expect("tracer").events.clear();
}

/// Writes the recorded events to the armed `HC_TRACE` path, returning the
/// path written, or `None` when tracing is disarmed. Call once at tool
/// exit; events keep accumulating if the process traces further.
///
/// # Errors
///
/// Propagates I/O errors from writing the file.
pub fn flush() -> std::io::Result<Option<String>> {
    let Some(path) = path_slot().lock().expect("trace path").clone() else {
        return Ok(None);
    };
    let json = to_chrome_json(&events());
    std::fs::write(&path, json)?;
    Ok(Some(path))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_span_records_nothing() {
        // The default test environment has no HC_TRACE; config init keeps
        // the tracer disarmed unless another test armed it explicitly.
        let before = events().len();
        {
            let _s = span("disarmed_stage").with("n", 3u64);
        }
        let after = events()
            .iter()
            .filter(|e| e.name == "disarmed_stage")
            .count();
        assert_eq!(after, 0, "disarmed spans must not record ({before} pre)");
    }

    #[test]
    fn chrome_json_shape_and_escaping() {
        let events = vec![
            Event {
                name: "optimize",
                tid: 0,
                ts_us: 10,
                dur_us: 250,
                args: vec![
                    ("nodes_before", ArgValue::U(100)),
                    ("ratio", ArgValue::F(0.5)),
                ],
            },
            Event {
                name: "simulate",
                tid: 1,
                ts_us: 300,
                dur_us: 1000,
                args: vec![("label", ArgValue::S("a \"b\"\\c".into()))],
            },
        ];
        let doc = Json::parse(&to_chrome_json(&events)).expect("valid JSON");
        assert_eq!(
            doc.get("displayTimeUnit").and_then(Json::as_str),
            Some("ms")
        );
        let list = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(list.len(), 2);
        let field = |i: usize, k: &str| list[i].get(k).cloned();
        assert_eq!(field(0, "name"), Some(Json::from("optimize")));
        assert_eq!(field(0, "ph"), Some(Json::from("X")));
        assert_eq!(field(1, "tid"), Some(Json::from(1u32)));
        assert_eq!(field(1, "dur"), Some(Json::from(1000u64)));
        let args = |i: usize, k: &str| list[i].get("args").and_then(|a| a.get(k)).cloned();
        assert_eq!(args(0, "nodes_before"), Some(Json::from(100u64)));
        assert_eq!(args(0, "ratio"), Some(Json::from(0.5)));
        assert_eq!(args(1, "label"), Some(Json::from("a \"b\"\\c")));
    }

    #[test]
    fn tids_are_stable_per_thread() {
        let a = tid();
        let b = tid();
        assert_eq!(a, b);
        let other = std::thread::spawn(tid).join().unwrap();
        assert_ne!(a, other);
    }
}
