//! Checks the CI performance gates against `BENCH_sim.json` files.
//!
//! Every gate is one row of the [`SETS`] table: a name, the condition
//! under which it applies, the figure it reads (one or more typed key
//! paths) and the bound that figure must meet. Key paths are segment
//! slices rather than dotted strings because keys such as
//! `matrix.dct8.verilog` and `cache.hits` contain dots. A key that is
//! missing fails its gate; a gate whose condition is false is reported as
//! skipped, never as passed.
//!
//! Usage: `benchgate <set> <file>...` where `<set>` is one of
//!
//! | set | files | gates |
//! |---|---|---|
//! | `perfsnap` | one perfsnap run | engine speedups, tape optimizer, matrix, fig1 sweep |
//! | `tracing` | untraced run, traced run | tracing overhead |
//! | `warm-start` | cold run, warm run (same `HC_STORE_DIR`) | persistent-store warm start |
//! | `serve` | a file holding `serve` and `serve_single_shard` loadgen results | hc-serve load |
//! | `serve-store` | a file holding `serve_store_cold` and `serve_store_warm` | hc-serve store A/B |
//!
//! Prints one PASS/SKIP/FAIL line per gate and exits nonzero if any gate
//! fails.

use std::fmt;
use std::process::ExitCode;

use hc_obs::Json;
use Figure::{Each, Len, Minus, Plus, Ratio, Value};
use Need::{Above, AtLeast, AtMost, Exactly, True};
use When::{Always, Avx2, Cpus, FigureAtLeast, X86_64};

/// One figure's location: which of the set's files, and the key path in it.
#[derive(Clone, Copy, Debug)]
struct Key {
    file: usize,
    path: &'static [&'static str],
}

/// A key in the first (or only) file of a set.
const fn at(path: &'static [&'static str]) -> Key {
    Key { file: 0, path }
}

/// A key in the second file of a two-file set.
const fn second(path: &'static [&'static str]) -> Key {
    Key { file: 1, path }
}

/// What a gate reads.
#[derive(Clone, Copy, Debug)]
enum Figure {
    /// The number or boolean at one key.
    Value(Key),
    /// `a / b`, both positive.
    Ratio(Key, Key),
    /// `a - b`.
    Minus(Key, Key),
    /// `a + b`.
    Plus(Key, Key),
    /// How many entries the object at the key holds.
    Len(Key),
    /// `field` of every entry of the object at the key; each must meet
    /// the bound.
    Each(Key, &'static str),
}

/// The bound a figure must meet.
#[derive(Clone, Copy, Debug)]
enum Need {
    AtLeast(f64),
    AtMost(f64),
    Above(f64),
    Exactly(f64),
    True,
}

/// When a gate applies.
#[derive(Clone, Copy, Debug)]
enum When {
    Always,
    /// The host is x86-64.
    X86_64,
    /// The host is x86-64 with AVX2.
    Avx2,
    /// The host has at least this many CPUs.
    Cpus(usize),
    /// The number at the key is at least this (a missing key fails).
    FigureAtLeast(Key, f64),
}

/// One row of the gate table.
#[derive(Debug)]
struct Gate {
    name: &'static str,
    when: When,
    figure: Figure,
    need: Need,
}

/// Gates checked together against the same files.
struct GateSet {
    name: &'static str,
    /// The role of each file, in command-line order.
    files: &'static [&'static str],
    gates: &'static [Gate],
}

/// Every CI performance gate.
#[rustfmt::skip]
const SETS: &[GateSet] = &[
    GateSet { name: "perfsnap", files: &["perfsnap"], gates: &[
        Gate { name: "batched engine beats scalar compiled", when: Always,
               figure: Value(at(&["batched_speedup_vs_compiled"])), need: AtLeast(1.0) },
        Gate { name: "per-cone JIT beats the tape interpreter", when: X86_64,
               figure: Value(at(&["native_speedup_vs_compiled"])), need: AtLeast(3.0) },
        Gate { name: "vector JIT is active", when: Avx2,
               figure: Value(at(&["native_batched_active"])), need: True },
        // The engine-only ratio, not the harness one: AXI protocol
        // simulation is paid identically by both batched engines.
        Gate { name: "vector JIT beats the interpreted batched engine (engine-only)", when: Avx2,
               figure: Value(at(&["native_batched_speedup_vs_batched"])), need: AtLeast(2.0) },
        Gate { name: "AXI harness delivers a real share of the vector JIT's rate", when: Avx2,
               figure: Value(at(&["native_batched_harness_engine_ratio"])), need: AtLeast(0.3) },
        Gate { name: "tape optimizer pays for itself", when: Always,
               figure: Value(at(&["tapeopt_speedup"])), need: AtLeast(1.2) },
        Gate { name: "superinstructions fused on the IDCT design", when: Always,
               figure: Value(at(&["tapeopt", "fused"])), need: Above(0.0) },
        // 4 registry kernels x 7 frontends; perfsnap records a cell only
        // after it measured bit-exact against the kernel's golden model.
        Gate { name: "every kernel x frontend cell is present", when: Always,
               figure: Len(at(&["matrix"])), need: Exactly(28.0) },
        Gate { name: "every matrix cell agrees with its golden model", when: Always,
               figure: Each(at(&["matrix"]), "agreement"), need: True },
        Gate { name: "every matrix cell has a simulated throughput", when: Always,
               figure: Each(at(&["matrix"]), "throughput_mops"), need: Above(0.0) },
        Gate { name: "memoized fig1 sweep beats the cold pipeline",
               when: FigureAtLeast(at(&["threads"]), 2.0),
               figure: Value(at(&["fig1_speedup"])), need: AtLeast(1.2) },
    ] },
    GateSet { name: "tracing", files: &["untraced", "traced"], gates: &[
        Gate { name: "tracing costs at most 5% of compiled throughput", when: Always,
               figure: Ratio(second(&["compiled_cycles_per_sec"]), at(&["compiled_cycles_per_sec"])),
               need: AtLeast(0.95) },
    ] },
    GateSet { name: "warm-start", files: &["cold", "warm"], gates: &[
        Gate { name: "warm run answers the fig1 front halves from the store", when: Always,
               figure: Value(second(&["store_front_hit_rate"])), need: AtLeast(0.95) },
        Gate { name: "warm first sweep takes at most half the cold one", when: Always,
               figure: Ratio(second(&["fig1_first_sweep_seconds"]), at(&["fig1_first_sweep_seconds"])),
               need: AtMost(0.5) },
    ] },
    GateSet { name: "serve", files: &["loadgen"], gates: &[
        Gate { name: "single-mutex clients saw no errors", when: Always,
               figure: Value(at(&["serve_single_shard", "errors"])), need: Exactly(0.0) },
        Gate { name: "sharded clients saw no errors", when: Always,
               figure: Value(at(&["serve", "errors"])), need: Exactly(0.0) },
        Gate { name: "single-mutex run answered every request", when: Always,
               figure: Value(at(&["serve_single_shard", "ok"])), need: Exactly(256.0) },
        Gate { name: "sharded run answered every request", when: Always,
               figure: Value(at(&["serve", "ok"])), need: Exactly(256.0) },
        Gate { name: "sharded p99 latency", when: Always,
               figure: Value(at(&["serve", "p99_ms"])), need: AtMost(8000.0) },
        Gate { name: "sharded hit rate within 0.05 of the single mutex", when: Always,
               figure: Minus(at(&["serve", "hit_rate"]), at(&["serve_single_shard", "hit_rate"])),
               need: AtLeast(-0.05) },
        Gate { name: "sharded cache keeps 85% of single-mutex throughput", when: Always,
               figure: Ratio(at(&["serve", "throughput_rps"]),
                             at(&["serve_single_shard", "throughput_rps"])),
               need: AtLeast(0.85) },
        Gate { name: "sharded stress A/B does not lose to the single mutex", when: Cpus(2),
               figure: Value(at(&["serve", "stress", "speedup"])), need: AtLeast(0.95) },
    ] },
    GateSet { name: "serve-store", files: &["loadgen"], gates: &[
        Gate { name: "cold-store clients saw no errors", when: Always,
               figure: Value(at(&["serve_store_cold", "errors"])), need: Exactly(0.0) },
        Gate { name: "warm-store clients saw no errors", when: Always,
               figure: Value(at(&["serve_store_warm", "errors"])), need: Exactly(0.0) },
        Gate { name: "warm server ran with the store enabled", when: Always,
               figure: Value(at(&["serve_store_warm", "store_enabled"])), need: True },
        Gate { name: "warm server answered lookups from the store", when: Always,
               figure: Plus(at(&["serve_store_warm", "store_hits"]),
                            at(&["serve_store_warm", "store_front_hits"])),
               need: AtLeast(1.0) },
    ] },
];

/// The host facts the gate conditions test.
#[derive(Clone, Copy, Debug)]
struct Host {
    x86_64: bool,
    avx2: bool,
    cpus: usize,
}

impl Host {
    fn detect() -> Host {
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        Host {
            x86_64: cfg!(target_arch = "x86_64"),
            avx2,
            cpus: std::thread::available_parallelism().map_or(1, usize::from),
        }
    }
}

/// A gate's outcome, with the line that reports it.
#[derive(Debug, PartialEq)]
enum Verdict {
    Pass(String),
    Skip(String),
    Fail(String),
}

/// A set's files, for reading keys and naming them in messages.
struct Files<'a> {
    docs: &'a [Json],
    roles: &'a [&'a str],
}

impl Files<'_> {
    fn name(&self, key: Key) -> String {
        let path = key.path.join("/");
        if self.docs.len() > 1 {
            format!("{}:{path}", self.roles[key.file])
        } else {
            path
        }
    }

    fn get(&self, key: Key) -> Result<&Json, String> {
        key.path
            .iter()
            .try_fold(&self.docs[key.file], |v, k| v.get(k))
            .ok_or_else(|| format!("{} is missing", self.name(key)))
    }

    fn num(&self, key: Key) -> Result<f64, String> {
        self.get(key)?
            .as_f64()
            .ok_or_else(|| format!("{} is not a number", self.name(key)))
    }

    /// The values a figure puts to its bound (one, or one per entry for
    /// [`Figure::Each`]), each a number or a boolean, with its name.
    fn eval(&self, figure: Figure) -> Result<Vec<(Json, String)>, String> {
        let pair = |a: Key, b: Key, op: &str| format!("{} {op} {}", self.name(a), self.name(b));
        let one = |v: f64, what: String| Ok(vec![(Json::Num(v), what)]);
        let entries = |k: Key| match self.get(k)? {
            Json::Obj(fields) => Ok(fields),
            _ => Err(format!("{} is not an object", self.name(k))),
        };
        match figure {
            Value(k) => match self.get(k)? {
                v @ (Json::Num(_) | Json::Bool(_)) => Ok(vec![(v.clone(), self.name(k))]),
                _ => Err(format!("{} is not a number or boolean", self.name(k))),
            },
            Ratio(a, b) => match (self.num(a)?, self.num(b)?) {
                (x, y) if x > 0.0 && y > 0.0 => one(x / y, pair(a, b, "/")),
                (x, y) => Err(format!(
                    "{} has a non-positive side ({x} / {y})",
                    pair(a, b, "/")
                )),
            },
            Minus(a, b) => one(self.num(a)? - self.num(b)?, pair(a, b, "-")),
            Plus(a, b) => one(self.num(a)? + self.num(b)?, pair(a, b, "+")),
            Len(k) => one(
                entries(k)?.len() as f64,
                format!("entries of {}", self.name(k)),
            ),
            Each(k, field) => entries(k)?
                .iter()
                .map(|(entry, v)| {
                    let what = format!("{}/{entry}/{field}", self.name(k));
                    v.get(field)
                        .map(|v| (v.clone(), what.clone()))
                        .ok_or(format!("{what} is missing"))
                })
                .collect(),
        }
    }
}

impl fmt::Display for Need {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AtLeast(t) => write!(f, ">= {t}"),
            AtMost(t) => write!(f, "<= {t}"),
            Above(t) => write!(f, "> {t}"),
            Exactly(t) => write!(f, "== {t}"),
            True => f.write_str("true"),
        }
    }
}

impl Need {
    fn met_by(self, v: &Json) -> bool {
        match (self, v) {
            (True, Json::Bool(b)) => *b,
            (AtLeast(t), Json::Num(x)) => *x >= t,
            (AtMost(t), Json::Num(x)) => *x <= t,
            (Above(t), Json::Num(x)) => *x > t,
            (Exactly(t), Json::Num(x)) => *x == t,
            _ => false,
        }
    }
}

/// Checks one gate against a set's files on `host`.
fn check(gate: &Gate, files: &Files, host: Host) -> Verdict {
    let (name, need) = (gate.name, gate.need);
    let skip = |why: String| Verdict::Skip(format!("{name}: skipped ({why})"));
    match gate.when {
        Always => {}
        X86_64 if !host.x86_64 => return skip("host is not x86-64".into()),
        Avx2 if !(host.x86_64 && host.avx2) => return skip("host has no AVX2".into()),
        Cpus(n) if host.cpus < n => return skip(format!("host has {} CPU(s)", host.cpus)),
        FigureAtLeast(k, t) => match files.num(k) {
            Err(e) => return Verdict::Fail(format!("{name}: {e}")),
            Ok(x) if x < t => return skip(format!("{} = {x} is below {t}", files.name(k))),
            Ok(_) => {}
        },
        X86_64 | Avx2 | Cpus(_) => {}
    }
    let values = match files.eval(gate.figure) {
        Ok(values) => values,
        Err(e) => return Verdict::Fail(format!("{name}: {e}")),
    };
    match (values.iter().find(|(v, _)| !need.met_by(v)), &values[..]) {
        (Some((v, what)), _) => Verdict::Fail(format!("{name}: {what} = {v}, need {need}")),
        (None, [(v, what)]) => Verdict::Pass(format!("{name}: {what} = {v} ({need})")),
        (None, _) => Verdict::Pass(format!("{name}: all {} values ({need})", values.len())),
    }
}

/// Reads `paths` and checks every gate of `set` against them.
fn run_set(set: &str, paths: &[String], host: Host) -> Result<Vec<Verdict>, String> {
    let set = SETS
        .iter()
        .find(|s| s.name == set)
        .ok_or_else(|| format!("unknown gate set {set:?}"))?;
    if paths.len() != set.files.len() {
        let roles = set.files.join(", ");
        return Err(format!(
            "set {} reads {} file(s): {roles}",
            set.name,
            set.files.len()
        ));
    }
    let docs = paths
        .iter()
        .map(|path| {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            Json::parse(&text).map_err(|e| format!("{path} is not JSON: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let files = Files {
        docs: &docs,
        roles: set.files,
    };
    Ok(set.gates.iter().map(|g| check(g, &files, host)).collect())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((set, paths)) = args.split_first() else {
        let sets: Vec<&str> = SETS.iter().map(|s| s.name).collect();
        eprintln!("usage: benchgate <{}> <file>...", sets.join("|"));
        return ExitCode::from(2);
    };
    let verdicts = match run_set(set, paths, Host::detect()) {
        Ok(verdicts) => verdicts,
        Err(e) => {
            eprintln!("benchgate: {e}");
            return ExitCode::from(2);
        }
    };
    let mut failed = 0;
    for v in &verdicts {
        match v {
            Verdict::Pass(line) => println!("PASS {line}"),
            Verdict::Skip(line) => println!("SKIP {line}"),
            Verdict::Fail(line) => {
                failed += 1;
                println!("FAIL {line}");
            }
        }
    }
    if failed > 0 {
        eprintln!(
            "benchgate: {failed} of {} {set} gate(s) failed",
            verdicts.len()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_obs::jobj;

    const FULL_HOST: Host = Host {
        x86_64: true,
        avx2: true,
        cpus: 2,
    };

    /// A run that passes every gate: perfsnap's figures and all four
    /// loadgen sections in one document.
    fn healthy_doc() -> Json {
        let mut doc = Json::parse(
            r#"{
              "batched_speedup_vs_compiled": 4.33,
              "native_speedup_vs_compiled": 4.61,
              "native_batched_active": true,
              "native_batched_speedup_vs_batched": 3.91,
              "native_batched_harness_engine_ratio": 0.47,
              "tapeopt_speedup": 1.3,
              "tapeopt": {"instrs_pre": 2669, "fused": 216},
              "compiled_cycles_per_sec": 36764,
              "fig1_first_sweep_seconds": 0.1,
              "store_front_hit_rate": 1,
              "fig1_speedup": 4.2,
              "matrix": {},
              "threads": 2,
              "serve_single_shard": {"errors": 0, "ok": 256, "hit_rate": 0.9, "throughput_rps": 100},
              "serve": {"errors": 0, "ok": 256, "p99_ms": 900, "hit_rate": 0.92,
                        "throughput_rps": 110, "stress": {"speedup": 1.4}},
              "serve_store_cold": {"errors": 0, "store_enabled": true},
              "serve_store_warm": {"errors": 0, "store_enabled": true,
                                   "store_hits": 12, "store_front_hits": 3}
            }"#,
        )
        .unwrap();
        let matrix = slot(&mut doc, &["matrix"]);
        for kernel in ["dct8", "idct4", "idct16", "fir32"] {
            for tool in ["verilog", "construct", "rules", "flow"]
                .into_iter()
                .chain(["dataflow", "hls_bambu", "hls_vivado"])
            {
                let cell = jobj! { "throughput_mops" => 8.07, "q" => 81.0458, "agreement" => true };
                matrix.set(&format!("matrix.{kernel}.{tool}"), cell);
            }
        }
        doc
    }

    /// The healthy files of a set: two-file sets read a cold (untraced)
    /// run first and a warm (traced) one second.
    fn healthy(set: &GateSet) -> Vec<Json> {
        let mut first = healthy_doc();
        first.set("fig1_first_sweep_seconds", Json::from(1.0));
        first.set("store_front_hit_rate", Json::from(0.0));
        match set.files.len() {
            1 => vec![healthy_doc()],
            _ => vec![first, healthy_doc()],
        }
    }

    /// Every gate with its set.
    fn gates() -> impl Iterator<Item = (&'static GateSet, &'static Gate)> {
        SETS.iter()
            .flat_map(|s| s.gates.iter().map(move |g| (s, g)))
    }

    fn verdict(set: &GateSet, gate: &Gate, docs: &[Json], host: Host) -> Verdict {
        let roles = set.files;
        check(gate, &Files { docs, roles }, host)
    }

    fn slot<'a>(doc: &'a mut Json, path: &[&str]) -> &'a mut Json {
        path.iter().fold(doc, |v, k| match v {
            Json::Obj(fields) => &mut fields.iter_mut().find(|(f, _)| f == k).unwrap().1,
            _ => panic!("{k} is under a non-object"),
        })
    }

    fn entries<'a>(doc: &'a mut Json, path: &[&str]) -> &'a mut Vec<(String, Json)> {
        match slot(doc, path) {
            Json::Obj(fields) => fields,
            _ => panic!("not an object"),
        }
    }

    fn remove(doc: &mut Json, path: &[&str]) {
        let (last, parent) = path.split_last().unwrap();
        entries(doc, parent).retain(|(k, _)| k != last);
    }

    /// Every key a gate reads, its condition's included.
    fn keys(gate: &Gate) -> Vec<Key> {
        let mut keys = match gate.figure {
            Value(k) | Len(k) | Each(k, _) => vec![k],
            Ratio(a, b) | Minus(a, b) | Plus(a, b) => vec![a, b],
        };
        if let FigureAtLeast(k, _) = gate.when {
            keys.push(k);
        }
        keys
    }

    /// The figure value just past a bound.
    fn past(need: Need) -> Json {
        match need {
            AtLeast(t) => Json::Num(t - 1e-6),
            AtMost(t) => Json::Num(t + 1e-6),
            Above(t) => Json::Num(t),
            Exactly(t) => Json::Num(t + 1.0),
            True => Json::Bool(false),
        }
    }

    /// Rewrites `docs` so the gate's figure reads exactly `past(need)`
    /// (for [`Figure::Each`], in one entry), returning that value.
    fn breach(gate: &Gate, docs: &mut [Json]) -> Json {
        let target = past(gate.need);
        let mut put = |k: Key, v: Json| *slot(&mut docs[k.file], k.path) = v;
        match gate.figure {
            Value(k) => put(k, target.clone()),
            Ratio(a, b) => {
                put(b, Json::Num(1.0));
                put(a, target.clone());
            }
            Minus(a, b) | Plus(a, b) => {
                put(b, Json::Num(0.0));
                put(a, target.clone());
            }
            Len(k) => {
                let cells = entries(&mut docs[k.file], k.path);
                while (cells.len() as f64) < target.as_f64().unwrap() {
                    cells.push((format!("extra{}", cells.len()), cells[0].1.clone()));
                }
            }
            Each(k, field) => entries(&mut docs[k.file], k.path)[5]
                .1
                .set(field, target.clone()),
        }
        target
    }

    #[test]
    fn healthy_fixture_passes_every_gate() {
        for set in SETS {
            assert!(!set.gates.is_empty(), "set {} has no gates", set.name);
            let files = Files {
                docs: &healthy(set),
                roles: set.files,
            };
            for gate in set.gates {
                let v = check(gate, &files, FULL_HOST);
                assert!(matches!(v, Verdict::Pass(_)), "{v:?}");
            }
        }
    }

    #[test]
    fn every_gate_fails_just_past_its_bound() {
        for (set, gate) in gates() {
            let mut docs = healthy(set);
            let value = breach(gate, &mut docs);
            let Verdict::Fail(msg) = verdict(set, gate, &docs, FULL_HOST) else {
                panic!("{}: passed at {value}", gate.name);
            };
            assert!(msg.starts_with(gate.name), "{msg}");
            assert!(msg.contains(&format!("= {value},")), "{msg}");
            assert!(msg.ends_with(&format!("need {}", gate.need)), "{msg}");
        }
    }

    #[test]
    fn every_gate_fails_when_a_key_it_reads_is_missing() {
        for (set, gate) in gates() {
            for key in keys(gate) {
                let mut docs = healthy(set);
                remove(&mut docs[key.file], key.path);
                let Verdict::Fail(msg) = verdict(set, gate, &docs, FULL_HOST) else {
                    panic!("{}: passed without {:?}", gate.name, key.path);
                };
                assert!(msg.starts_with(gate.name), "{msg}");
                let missing = format!("{} is missing", key.path.join("/"));
                assert!(msg.ends_with(&missing), "{msg}");
            }
            if let Each(k, field) = gate.figure {
                let mut docs = healthy(set);
                entries(&mut docs[k.file], k.path)[7].1 = jobj! {};
                let Verdict::Fail(msg) = verdict(set, gate, &docs, FULL_HOST) else {
                    panic!("{}: passed with a cell lacking {field}", gate.name);
                };
                assert!(msg.ends_with(&format!("{field} is missing")), "{msg}");
            }
        }
    }

    #[test]
    fn false_conditions_skip_rather_than_pass() {
        let bare = Host {
            x86_64: false,
            avx2: false,
            cpus: 1,
        };
        let mut skipped = 0;
        for (set, gate) in gates() {
            let mut docs = healthy(set);
            docs[0].set("threads", Json::from(1u32));
            let v = verdict(set, gate, &docs, bare);
            if let Always = gate.when {
                assert!(matches!(v, Verdict::Pass(_)), "{v:?}");
                continue;
            }
            skipped += 1;
            let Verdict::Skip(msg) = v else {
                panic!("{}: {v:?} where it does not apply", gate.name);
            };
            assert!(
                msg.starts_with(gate.name) && msg.contains("skipped"),
                "{msg}"
            );
        }
        // x86-64, three AVX2 gates, the CPU-count gate and the threads gate.
        assert_eq!(skipped, 6);
        // An AVX2 gate is skipped on x86-64 without AVX2 too.
        let (set, gate) = gates()
            .find(|(_, g)| g.name == "vector JIT is active")
            .unwrap();
        let no_avx2 = Host {
            avx2: false,
            ..FULL_HOST
        };
        let v = verdict(set, gate, &healthy(set), no_avx2);
        assert!(matches!(v, Verdict::Skip(_)), "{v:?}");
    }

    #[test]
    fn keys_stay_within_their_sets_files() {
        for (set, gate) in gates() {
            for key in keys(gate) {
                assert!(
                    key.file < set.files.len(),
                    "{}: file {}",
                    gate.name,
                    key.file
                );
            }
        }
        assert!(run_set("perfsnap", &[], FULL_HOST).is_err());
        assert!(run_set("no-such-set", &["x".into()], FULL_HOST).is_err());
    }
}
