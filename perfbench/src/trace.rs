//! The traced run's spans. The benchmark opens `hc_obs` spans around its
//! calls into the program's public functions (ops, frontend
//! constructors, the IEEE 1180 harness and statistics); the program's own
//! `hc_obs` spans (`front_half`, `optimize`, `synthesize`, `lower`,
//! `tapeopt`, `native_compile`, `native_batched_compile`, `simulate`,
//! `serve.request`) nest inside them. A traced pass arms the tracer, and
//! afterwards its events become (name, start, end, parent, op id) records
//! kept in memory and written out when the benchmark ends.
//!
//! Disarmed, an `hc_obs` span is one relaxed atomic load, so untraced
//! passes run the same code at no measurable cost.

use std::collections::BTreeMap;
use std::io::Write;

use hc_obs::trace::{ArgValue, Event};

/// The name of every op's root span; its self time is the `other`
/// remainder no named layer accounts for.
pub const OP: &str = "op";

/// Arms or disarms the program's tracer. Only the tracer changes: the
/// pinned configuration stays as it is, and nothing is ever flushed.
pub fn arm(on: bool) {
    hc_obs::trace::refresh(&hc_obs::Config {
        trace: on.then(|| ".perfbench/trace/unflushed.json".to_owned()),
        ..hc_obs::Config::default()
    });
}

/// The root span of op `op` (ids start at 1). `stream` marks an op whose
/// back half drives a stream kernel directly rather than an AXI harness.
pub fn op_span(op: u64, stream: bool) -> hc_obs::Span {
    hc_obs::span(OP).with("op", op).with("stream", stream)
}

/// One recorded span.
#[derive(Clone, Debug)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_us: u64,
    pub end_us: u64,
    /// Index of the innermost span on the same thread that contains it.
    pub parent: Option<usize>,
    /// The op the span belongs to (0 = pass-level work outside any op).
    pub op: u64,
    /// Whether that op drives a stream kernel.
    pub stream: bool,
    pub thread: u32,
    pub args: Vec<(&'static str, ArgValue)>,
}

impl SpanRec {
    pub fn dur_us(&self) -> u64 {
        self.end_us - self.start_us
    }

    /// A numeric attachment, 0 when absent.
    pub fn arg(&self, key: &str) -> f64 {
        self.args
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0.0, |(_, v)| match v {
                ArgValue::U(n) => *n as f64,
                ArgValue::I(n) => *n as f64,
                ArgValue::F(x) => *x,
                ArgValue::S(_) => 0.0,
            })
    }
}

/// Drains the tracer's events into records with their parents and ops.
pub fn take() -> Vec<SpanRec> {
    let events = hc_obs::trace::events();
    hc_obs::trace::clear();
    records(&events)
}

/// Rebuilds the span tree from containment on each thread. Events are
/// recorded when a span closes, so of two spans with the same start and
/// duration the later-recorded one is the parent.
pub fn records(events: &[Event]) -> Vec<SpanRec> {
    // Start and duration are truncated to microseconds separately, so a
    // child may appear to end up to 2 µs after its parent.
    const SLACK_US: u64 = 2;
    let mut order: Vec<usize> = (0..events.len()).collect();
    order.sort_by_key(|&i| {
        let e = &events[i];
        (
            e.tid,
            e.ts_us,
            std::cmp::Reverse(e.dur_us),
            std::cmp::Reverse(i),
        )
    });
    let mut out: Vec<SpanRec> = Vec::with_capacity(events.len());
    let mut stack: Vec<usize> = Vec::new();
    for i in order {
        let e = &events[i];
        let (start, end) = (e.ts_us, e.ts_us + e.dur_us);
        while let Some(&top) = stack.last() {
            let t: &SpanRec = &out[top];
            if t.thread == e.tid && start >= t.start_us && end <= t.end_us + SLACK_US {
                break;
            }
            stack.pop();
        }
        let parent = stack.last().copied();
        let mut rec = SpanRec {
            name: e.name,
            start_us: start,
            end_us: end,
            parent,
            op: 0,
            stream: false,
            thread: e.tid,
            args: e.args.clone(),
        };
        if e.name == OP {
            rec.op = rec.arg("op") as u64;
            rec.stream = rec.arg("stream") != 0.0;
        } else if let Some(p) = parent {
            rec.op = out[p].op;
            rec.stream = out[p].stream;
        }
        stack.push(out.len());
        out.push(rec);
    }
    out
}

/// The layer a span's own time belongs to; `None` inherits its parent's.
fn layer_of(rec: &SpanRec) -> Option<&'static str> {
    Some(match rec.name {
        OP => OP,
        "front_half" => "core.cache",
        "optimize" => "rtl.optimize",
        "synthesize" => "synth.synth",
        "lower" | "tapeopt" | "native_compile" | "native_batched_compile" => "sim.compile",
        // The back half outside compile: the AXI harness run or the direct
        // stream drive, golden compare included (split off afterwards).
        "simulate" if rec.stream => "core.stream_drive",
        "simulate" => "axi.harness",
        "verilog.elab" | "construct.elab" | "rules.elab" | "flow.elab" | "dataflow.elab"
        | "hls.elab" | "axi.harness" | "idct.golden" | "kernels.golden" => rec.name,
        _ => return None,
    })
}

/// Self time per layer, in milliseconds: each span's duration minus its
/// direct children's, charged to its layer (or its nearest ancestor's).
/// Spans with no layer and no layered ancestor are left out.
pub fn layer_ms(log: &[SpanRec]) -> BTreeMap<&'static str, f64> {
    let mut child_us = vec![0u64; log.len()];
    for rec in log {
        if let Some(p) = rec.parent {
            child_us[p] += rec.dur_us();
        }
    }
    let mut layers: Vec<Option<&'static str>> = Vec::with_capacity(log.len());
    let mut out = BTreeMap::new();
    for (i, rec) in log.iter().enumerate() {
        // Parents precede their children in `log`.
        let layer = layer_of(rec).or_else(|| rec.parent.and_then(|p| layers[p]));
        layers.push(layer);
        if let Some(layer) = layer {
            *out.entry(layer).or_insert(0.0) +=
                rec.dur_us().saturating_sub(child_us[i]) as f64 / 1e3;
        }
    }
    out
}

/// Total duration of the op root spans, in milliseconds.
pub fn op_ms(log: &[SpanRec]) -> f64 {
    log.iter()
        .filter(|r| r.name == OP)
        .map(|r| r.dur_us() as f64 / 1e3)
        .sum()
}

/// The sum of a numeric attachment over the spans named `name`.
pub fn sum_arg(log: &[SpanRec], name: &str, key: &str) -> f64 {
    log.iter()
        .filter(|r| r.name == name)
        .map(|r| r.arg(key))
        .sum()
}

/// Writes `(pass, span)` records as tab-separated lines.
pub fn write(path: &std::path::Path, log: &[(usize, SpanRec)]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "pass\tname\tstart_us\tend_us\tparent\top\tthread")?;
    for (pass, r) in log {
        let parent = r.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{pass}\t{}\t{}\t{}\t{parent}\t{}\t{}",
            r.name, r.start_us, r.end_us, r.op, r.thread
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(
        name: &'static str,
        tid: u32,
        ts: u64,
        dur: u64,
        args: Vec<(&'static str, ArgValue)>,
    ) -> Event {
        Event {
            name,
            tid,
            ts_us: ts,
            dur_us: dur,
            args,
        }
    }

    #[test]
    fn containment_rebuilds_the_tree_and_self_times() {
        // Recorded in closing order: children first.
        let events = [
            ev("tapeopt", 1, 1_500, 500, vec![]),
            ev("simulate", 1, 1_000, 5_000, vec![]),
            ev("optimize", 2, 200, 300, vec![]),
            ev("parse", 1, 6_500, 1_000, vec![]),
            ev(
                OP,
                1,
                0,
                10_000,
                vec![("op", ArgValue::U(3)), ("stream", ArgValue::U(0))],
            ),
            ev("verilog.elab", 1, 20_000, 1_000, vec![]),
        ];
        let log = records(&events);
        let op = log.iter().position(|r| r.name == OP).unwrap();
        let sim = log.iter().position(|r| r.name == "simulate").unwrap();
        let tape = log.iter().position(|r| r.name == "tapeopt").unwrap();
        assert_eq!(log[sim].parent, Some(op));
        assert_eq!(log[tape].parent, Some(sim));
        assert_eq!(log[tape].op, 3);
        let other_thread = log.iter().find(|r| r.name == "optimize").unwrap();
        assert_eq!(other_thread.parent, None, "containment is per thread");
        let ms = layer_ms(&log);
        // The op's self time plus the unlayered `parse` inside it.
        assert!((ms[OP] - 5.0).abs() < 1e-9, "{ms:?}");
        assert!((ms["axi.harness"] - 4.5).abs() < 1e-9);
        assert!((ms["sim.compile"] - 0.5).abs() < 1e-9);
        assert!((ms["rtl.optimize"] - 0.3).abs() < 1e-9);
        assert!((ms["verilog.elab"] - 1.0).abs() < 1e-9);
        // An unlayered span inside an op is the op's own time.
        assert!(!ms.contains_key("parse"));
        assert!((op_ms(&log) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn equal_spans_nest_in_closing_order() {
        let events = [ev("simulate", 1, 10, 50, vec![]), ev(OP, 1, 10, 50, vec![])];
        let log = records(&events);
        assert_eq!(log[0].name, OP);
        assert_eq!(log[1].parent, Some(0));
    }
}
