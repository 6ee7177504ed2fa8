//! Validates a Chrome-trace JSON file produced via `HC_TRACE`.
//!
//! CI runs one traced `perfsnap` point and then this checker, which
//! asserts the trace (a) parses as JSON (with `hc_serve`'s parser), (b)
//! uses the Chrome "complete event" shape (`ph: "X"` with `ts`/`dur` per
//! event), and (c) covers the whole measurement pipeline: every expected
//! stage span must appear at least once.
//!
//! Usage: `tracecheck <trace.json> [required-span ...]`
//! (default required spans: parse, elaborate, optimize, synthesize,
//! lower, tapeopt, simulate, front_half).
//!
//! Exits nonzero with a diagnostic on the first violation.

use std::collections::BTreeSet;
use std::process::ExitCode;

use hc_serve::Json;

fn check(doc: &Json, required: &[String]) -> Result<(), String> {
    let events = doc
        .get("traceEvents")
        .ok_or("top-level object lacks \"traceEvents\"")?;
    let events = events.as_arr().ok_or("\"traceEvents\" is not an array")?;
    if events.is_empty() {
        return Err("trace contains no events".into());
    }
    let mut names: BTreeSet<&str> = BTreeSet::new();
    for (i, e) in events.iter().enumerate() {
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .ok_or(format!("event {i} lacks a string \"name\""))?;
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or(format!("event {i} ({name}) lacks \"ph\""))?;
        if ph != "X" {
            return Err(format!(
                "event {i} ({name}) is not a complete event: ph={ph}"
            ));
        }
        for field in ["ts", "dur", "pid", "tid"] {
            if e.get(field).and_then(Json::as_f64).is_none() {
                return Err(format!("event {i} ({name}) lacks numeric \"{field}\""));
            }
        }
        names.insert(name);
    }
    let missing: Vec<&String> = required
        .iter()
        .filter(|r| !names.contains(r.as_str()))
        .collect();
    if !missing.is_empty() {
        return Err(format!(
            "required spans missing from trace: {missing:?} (present: {names:?})"
        ));
    }
    println!(
        "trace OK: {} events, {} distinct spans, all of {required:?} present",
        events.len(),
        names.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(path) = args.next() else {
        eprintln!("usage: tracecheck <trace.json> [required-span ...]");
        return ExitCode::FAILURE;
    };
    let mut required: Vec<String> = args.collect();
    if required.is_empty() {
        required = [
            "parse",
            "elaborate",
            "optimize",
            "synthesize",
            "lower",
            "tapeopt",
            "simulate",
            "front_half",
        ]
        .map(String::from)
        .to_vec();
    }
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("tracecheck: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let doc = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("tracecheck: {path} is not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    match check(&doc, &required) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tracecheck: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_a_minimal_valid_trace() {
        let text = r#"{"displayTimeUnit": "ms", "traceEvents": [
          {"name": "optimize", "cat": "hc", "ph": "X", "pid": 1, "tid": 0, "ts": 1, "dur": 5, "args": {"nodes_before": 10}},
          {"name": "simulate", "cat": "hc", "ph": "X", "pid": 1, "tid": 0, "ts": 8, "dur": 2, "args": {}}
        ]}"#;
        let doc = Json::parse(text).unwrap();
        check(&doc, &["optimize".into(), "simulate".into()]).unwrap();
    }

    #[test]
    fn rejects_missing_spans_and_bad_shapes() {
        let doc = Json::parse(r#"{"traceEvents": [{"name": "lower", "ph": "X", "pid": 1, "tid": 0, "ts": 0, "dur": 1}]}"#).unwrap();
        assert!(check(&doc, &["simulate".into()])
            .unwrap_err()
            .contains("missing"));
        let doc = Json::parse(r#"{"traceEvents": [{"name": "lower", "ph": "B", "pid": 1, "tid": 0, "ts": 0, "dur": 1}]}"#).unwrap();
        assert!(check(&doc, &[]).unwrap_err().contains("complete event"));
        assert!(Json::parse("{\"traceEvents\": [").is_err());
        assert!(Json::parse("{} trailing").is_err());
    }
}
