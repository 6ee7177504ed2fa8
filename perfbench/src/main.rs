//! End-to-end and per-layer benchmark of the hls-vs-hc workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ieee1180_rtl|fig1_cold|matrix|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run sets the workload up several times (`setup_s` is the median),
//! then repeats passes over the workload's fixed work for `--seconds`.
//! Set-ups and in-process ops are timed in CPU time, which a shared
//! host's time-slicing and hypervisor steal do not inflate, and each op
//! counts with its best time over the run's passes; wall and whole-pass
//! times go to the spread line.
//! Every op's result is checked against the frozen reference in
//! `reference.json`; a wrong result or an unexpected panic fails the op.
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. The line before it carries every
//! metric's median, quartiles and sample count.
//!
//! `--trace 1` alternates untraced and traced passes. Both run the same
//! code: the program's public functions inside the benchmark's `hc_obs`
//! spans. A traced pass arms the program's tracer, so its own spans
//! (optimize, synthesize, compile, simulate, ...) nest inside the
//! benchmark's; it must reproduce the untraced passes' per-op results
//! exactly and yields each layer's self time (see `trace.rs`, and
//! `layers.rs` for the golden and engine-only replays). The spans are
//! written to `.perfbench/trace/` at exit.
//!
//! Other modes: `--freeze` rewrites `reference.json` from the program's
//! own measurement paths; `--selftest` cross-checks the frozen reference
//! against the repository's published figures and proves a perturbed
//! reference is caught. See `NOTES.md` for the workloads' rationale.

mod ieee;
mod layers;
mod reference;
mod selftest;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::time::Instant;

use hc_serve::{jobj, Json};

/// Worker threads (sweeps), server pool width and client count (serve).
pub const WORKERS: usize = 2;

/// Set-ups per run, at least; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// After each pass, set-ups run until they have taken this share of the
/// run so far: a set-up of a few milliseconds gets hundreds of samples,
/// spread over the whole run like the passes' own.
const SETUP_SHARE: f64 = 0.1;

/// Ops an op percentile needs beyond it.
const TAIL_SAMPLES: f64 = 10.0;

const WORKLOADS: [&str; 4] = ["ieee1180_rtl", "fig1_cold", "matrix", "serve"];

/// The per-layer metrics every `--trace 1` run reports, with units.
/// Layers a workload does not exercise read 0.
const LAYER_METRICS: [(&str, &str); 29] = [
    ("verilog.elab_ms", "ms"),
    ("construct.elab_ms", "ms"),
    ("rules.elab_ms", "ms"),
    ("flow.elab_ms", "ms"),
    ("dataflow.elab_ms", "ms"),
    ("hls.elab_ms", "ms"),
    ("core.cache_ms", "ms"),
    ("rtl.optimize_ms", "ms"),
    ("rtl.nodes_removed", "count"),
    ("synth.synth_ms", "ms"),
    ("core.cache.front_hit_ratio", "ratio"),
    ("sim.compile_ms", "ms"),
    ("sim.code_bytes", "bytes"),
    ("sim.cones_fallback", "count"),
    ("sim.engine_ms", "ms"),
    ("sim.lane_cycles", "count"),
    ("axi.harness_ms", "ms"),
    ("axi.harness_share", "ratio"),
    ("core.stream_drive_ms", "ms"),
    ("idct.golden_ms", "ms"),
    ("kernels.golden_ms", "ms"),
    ("core.par.busy_frac", "frac"),
    ("store.hit_ratio", "ratio"),
    ("serve.handler_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.json_ms", "ms"),
    ("trace.other_ms", "ms"),
    ("trace.attributed_frac", "frac"),
    ("trace.overhead_ratio", "ratio"),
];

/// One op: its host time, and why it failed, if it did.
pub struct Op {
    /// The op's place in the workload's fixed work list (stable across
    /// passes, whatever order a pass runs it in).
    pub id: usize,
    /// Wall time.
    pub ms: f64,
    /// CPU time of the thread that ran the op.
    pub cpu_ms: f64,
    pub error: Option<String>,
    /// The op's result, for comparing traced with untraced passes.
    pub result: String,
}

impl Op {
    /// An op that took `time` (wall and thread CPU ms, from
    /// [`Timer::ms`]) and whose outcome `got` (a panic or a value) is
    /// checked by `check`.
    pub fn checked<T: Debug>(
        id: usize,
        (ms, cpu_ms): (f64, f64),
        got: std::thread::Result<T>,
        check: impl FnOnce(&T) -> Result<(), String>,
    ) -> Op {
        match got {
            Ok(v) => Op {
                id,
                ms,
                cpu_ms,
                error: check(&v).err(),
                result: format!("{v:?}"),
            },
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic".to_owned());
                Op {
                    id,
                    ms,
                    cpu_ms,
                    error: Some(format!("panic: {msg}")),
                    result: "panic".to_owned(),
                }
            }
        }
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_s(clock: i32) -> f64 {
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable timespec; both clock ids exist on
    // every Linux kernel this runs on.
    let rc = unsafe { clock_gettime(clock, &mut t) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    t.tv_sec as f64 + t.tv_nsec as f64 * 1e-9
}

/// CPU seconds this process has run, summed over its threads. The kernel
/// leaves out time the hypervisor gave the virtual CPU to someone else
/// (steal), and time the thread waited for a core.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds the calling thread has run.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// A start on the wall clock and the calling thread's CPU clock.
pub struct Timer {
    wall: Instant,
    cpu_s: f64,
}

impl Timer {
    pub fn start() -> Timer {
        Timer {
            wall: Instant::now(),
            cpu_s: thread_cpu_s(),
        }
    }

    /// Wall and thread-CPU milliseconds since the start (call it on the
    /// thread that started it).
    pub fn ms(&self) -> (f64, f64) {
        (
            self.wall.elapsed().as_secs_f64() * 1e3,
            (thread_cpu_s() - self.cpu_s) * 1e3,
        )
    }
}

/// One pass over a workload's fixed work.
pub struct Pass {
    pub wall_s: f64,
    pub ops: Vec<Op>,
    /// Per-layer figures the pass measured directly (untraced passes).
    pub extras: Vec<(&'static str, f64)>,
    /// What the ops simulated (traced passes), for the replays.
    pub replays: Vec<layers::Replay>,
}

pub trait Workload {
    /// Builds what the first op needs.
    fn setup(&mut self);
    /// Runs the work once; traced when the program's tracer is armed.
    fn pass(&mut self) -> Pass;
}

/// Everything one run measured.
#[derive(Default)]
pub struct Report {
    /// Process CPU seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Wall and process CPU seconds of each untraced pass.
    pub wall_s: Vec<f64>,
    pub cpu_s: Vec<f64>,
    pub traced_wall_s: Vec<f64>,
    /// The thread CPU time of every op of every untraced pass (`serve`:
    /// every request's latency).
    pub op_ms: Vec<f64>,
    /// Per op of the work list, its best (smallest) sample: what the op
    /// percentiles are taken over.
    pub op_best_ms: BTreeMap<usize, f64>,
    /// Wall times of the same ops (in-process workloads).
    pub op_wall_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub rss_mb: Vec<f64>,
    pub layers: BTreeMap<&'static str, Vec<f64>>,
}

impl Report {
    /// The op percentile reported as `op_p90_ms`: the 90th where at least
    /// [`TAIL_SAMPLES`] ops lie beyond it, else the highest that has that
    /// many beyond it (the median where even that is out of reach).
    pub fn tail_percentile(&self) -> f64 {
        let n = self.op_best_ms.len() as f64;
        (100.0 * (1.0 - TAIL_SAMPLES / n)).clamp(50.0, 90.0)
    }

    /// Records one untraced sample of op `id`.
    pub fn op_sample(&mut self, id: usize, ms: f64) {
        self.op_ms.push(ms);
        let best = self.op_best_ms.entry(id).or_insert(ms);
        *best = best.min(ms);
    }

    pub fn layer(&mut self, name: &'static str, v: f64) {
        self.layers.entry(name).or_default().push(v);
    }

    fn count_ops(&mut self, ops: &[Op], workload: &str) {
        for op in ops {
            self.attempted += 1;
            if let Some(e) = &op.error {
                self.failed += 1;
                eprintln!("perfbench: {workload}: failed op: {e}");
            }
        }
    }
}

/// SplitMix64: the seed's stream of work orders and scripts.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_5eed_5eed_5eed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i + 1));
        }
        v
    }
}

extern "C" {
    /// glibc: returns the heap's free memory to the system.
    fn malloc_trim(pad: usize) -> std::os::raw::c_int;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> std::os::raw::c_int;
}

/// Hands freed heap memory back to the system and resets this process's
/// peak resident set to its current one, so the next [`peak_rss_mb`]
/// reads the peak since this call, from a heap that does not depend on
/// what earlier passes left fragmented.
pub fn reset_peak_rss() {
    // SAFETY: malloc_trim only releases free pages of the allocator's own
    // arenas; it is safe to call at any time from any thread.
    unsafe {
        malloc_trim(0);
    }
    // Best effort: without it, the peak is the process's.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Runs passes for `seconds`, with the set-ups spread between them: one
/// before the first pass, then after each pass one until there are
/// [`SETUP_REPS`], and as many as keep set-ups at [`SETUP_SHARE`] of the
/// run; any still missing run at the end. With `traced`, every second
/// pass is traced and must reproduce the untraced results op for op.
fn run_local(w: &mut dyn Workload, name: &str, seconds: f64, traced: bool) -> Report {
    let mut report = Report::default();
    let setup = |report: &mut Report, w: &mut dyn Workload| {
        let cpu = process_cpu_s();
        w.setup();
        report.setup_s.push(process_cpu_s() - cpu);
    };
    setup(&mut report, w);
    let start = Instant::now();
    let mut spans: Vec<(usize, trace::SpanRec)> = Vec::new();
    let mut untraced_results: BTreeMap<usize, String> = BTreeMap::new();
    let min_passes = if traced { 2 } else { 1 };
    let mut i = 0;
    while i < min_passes || start.elapsed().as_secs_f64() < seconds {
        let this_traced = traced && i % 2 == 1;
        reset_peak_rss();
        trace::arm(this_traced);
        let cpu = process_cpu_s();
        let mut pass = w.pass();
        let cpu_s = process_cpu_s() - cpu;
        trace::arm(false);
        if this_traced {
            for op in &mut pass.ops {
                let want = untraced_results.get(&op.id).map_or("", String::as_str);
                if op.error.is_none() && op.result != want {
                    op.error = Some(format!(
                        "traced result {} differs from untraced {want}",
                        op.result
                    ));
                }
            }
            let log = trace::take();
            let replayed = layers::replay(std::mem::take(&mut pass.replays));
            layer_figures(&mut report, &log, &replayed);
            spans.extend(log.into_iter().map(|r| (i, r)));
            report.traced_wall_s.push(pass.wall_s);
        } else {
            for op in &pass.ops {
                untraced_results.insert(op.id, op.result.clone());
                report.op_sample(op.id, op.cpu_ms);
                report.op_wall_ms.push(op.ms);
            }
            report.wall_s.push(pass.wall_s);
            report.cpu_s.push(cpu_s);
            report.rss_mb.push(peak_rss_mb());
            for (k, v) in &pass.extras {
                report.layer(k, *v);
            }
        }
        report.count_ops(&pass.ops, name);
        if report.setup_s.len() < SETUP_REPS {
            setup(&mut report, w);
        }
        while report.setup_s.iter().sum::<f64>() < SETUP_SHARE * start.elapsed().as_secs_f64() {
            setup(&mut report, w);
        }
        i += 1;
    }
    while report.setup_s.len() < SETUP_REPS {
        setup(&mut report, w);
    }
    if traced {
        let path = std::path::PathBuf::from(format!(".perfbench/trace/{name}.tsv"));
        if let Err(e) = trace::write(&path, &spans) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    report
}

/// The layers whose self time is reported as `<layer>_ms`.
const TIMED_LAYERS: [&str; 14] = [
    "verilog.elab",
    "construct.elab",
    "rules.elab",
    "flow.elab",
    "dataflow.elab",
    "hls.elab",
    "core.cache",
    "rtl.optimize",
    "synth.synth",
    "sim.compile",
    "axi.harness",
    "core.stream_drive",
    "idct.golden",
    "kernels.golden",
];

/// The per-layer figures of one traced pass.
fn layer_figures(report: &mut Report, log: &[trace::SpanRec], replayed: &layers::Replayed) {
    let mut self_ms = trace::layer_ms(log);
    for &(from, to, ms) in &replayed.moves {
        *self_ms.entry(from).or_insert(0.0) -= ms;
        *self_ms.entry(to).or_insert(0.0) += ms;
    }
    let ms = |k: &str| self_ms.get(k).copied().unwrap_or(0.0);
    for layer in TIMED_LAYERS {
        let metric = LAYER_METRICS
            .iter()
            .find(|(m, _)| m.strip_suffix("_ms") == Some(layer))
            .expect("every timed layer is a metric")
            .0;
        report.layer(metric, ms(layer));
    }
    let compiles = ["native_compile", "native_batched_compile"];
    let nodes_removed = trace::sum_arg(log, "optimize", "nodes_before")
        - trace::sum_arg(log, "optimize", "nodes_after");
    report.layer("rtl.nodes_removed", nodes_removed);
    report.layer(
        "sim.code_bytes",
        compiles
            .iter()
            .map(|c| trace::sum_arg(log, c, "bytes_emitted"))
            .sum(),
    );
    report.layer(
        "sim.cones_fallback",
        compiles
            .iter()
            .map(|c| trace::sum_arg(log, c, "fallback_cones"))
            .sum(),
    );
    report.layer("sim.lane_cycles", replayed.lane_cycles);
    report.layer("sim.engine_ms", replayed.batched_ms + replayed.scalar_ms);
    let harness_ms = ms("axi.harness");
    if harness_ms > 0.0 {
        report.layer("axi.harness_share", 1.0 - replayed.batched_ms / harness_ms);
    }
    let op_ms = trace::op_ms(log);
    report.layer("trace.other_ms", ms(trace::OP));
    if op_ms > 0.0 {
        report.layer("trace.attributed_frac", 1.0 - ms(trace::OP) / op_ms);
    }
}

fn metric(value: f64, unit: &str) -> Json {
    jobj! { "value" => value, "unit" => unit }
}

/// Prints the spread line and the result line.
fn emit(report: &Report, traced: bool) {
    let best: Vec<f64> = report.op_best_ms.values().copied().collect();
    let pct = |q: f64| hc_bench::percentile(&best, q);
    let tail = report.tail_percentile();
    let mut samples: Vec<(&str, &str, Vec<f64>)> = vec![
        ("setup_s", "s", report.setup_s.clone()),
        ("pass_cpu_s", "s", report.cpu_s.clone()),
        ("wall_s", "s", report.wall_s.clone()),
        ("op_ms", "ms", report.op_ms.clone()),
        ("op_best_ms", "ms", best.clone()),
        ("peak_rss_mb", "MB", report.rss_mb.clone()),
    ];
    if !report.op_wall_ms.is_empty() {
        samples.push(("op_wall_ms", "ms", report.op_wall_ms.clone()));
    }
    for (name, unit) in LAYER_METRICS {
        if let Some(v) = report.layers.get(name) {
            samples.push((name, unit, v.clone()));
        }
    }
    if !report.traced_wall_s.is_empty() {
        samples.push(("traced_wall_s", "s", report.traced_wall_s.clone()));
    }
    let detail: Vec<(String, Json)> = samples
        .iter()
        .map(|(name, unit, v)| {
            let s = stats::summarize(v);
            eprintln!(
                "  {name:<28} median {:>12.4} {unit:<6} q1 {:>12.4} q3 {:>12.4} n {}",
                s.median, s.q1, s.q3, s.n
            );
            (
                (*name).to_owned(),
                jobj! { "median" => s.median, "q1" => s.q1, "q3" => s.q3, "n" => s.n, "unit" => *unit },
            )
        })
        .collect();
    println!(
        "{}",
        jobj! { "spread" => Json::Obj(detail), "op_p90_percentile" => tail }
    );

    let metrics: Vec<(String, Json)> = if traced {
        LAYER_METRICS
            .iter()
            .map(|&(name, unit)| {
                let v = match name {
                    "trace.overhead_ratio" => {
                        stats::min(&report.traced_wall_s) / stats::min(&report.wall_s)
                    }
                    _ => report.layers.get(name).map_or(0.0, |v| stats::median(v)),
                };
                (
                    name.to_owned(),
                    metric(if v.is_finite() { v } else { 0.0 }, unit),
                )
            })
            .collect()
    } else {
        let ok = (report.attempted - report.failed) as f64 / report.attempted.max(1) as f64;
        vec![
            (
                "setup_s".to_owned(),
                metric(stats::median(&report.setup_s), "s"),
            ),
            (
                "pass_s".to_owned(),
                metric(best.iter().sum::<f64>() / 1e3, "s"),
            ),
            ("op_p50_ms".to_owned(), metric(pct(50.0), "ms")),
            ("op_p90_ms".to_owned(), metric(pct(tail), "ms")),
            ("ok_frac".to_owned(), metric(ok, "frac")),
            (
                "peak_rss_mb".to_owned(),
                metric(stats::median(&report.rss_mb), "MB"),
            ),
        ]
    };
    println!(
        "{}",
        jobj! {
            "correct" => report.failed == 0 && report.attempted > 0,
            "attempted" => report.attempted,
            "failed" => report.failed,
            "metrics" => Json::Obj(metrics),
        }
    );
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         perfbench --freeze | --selftest",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args(argv: &[String]) -> Args {
    let get = |flag: &str| -> String {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1).cloned())
            .unwrap_or_else(|| usage(&format!("missing {flag}")))
    };
    let workload = get("--workload");
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload:?}"));
    }
    let seed = get("--seed")
        .parse()
        .unwrap_or_else(|_| usage("bad --seed"));
    let seconds: f64 = get("--seconds")
        .parse()
        .unwrap_or_else(|_| usage("bad --seconds"));
    let traced = match get("--trace").as_str() {
        "0" => false,
        "1" => true,
        _ => usage("--trace takes 0 or 1"),
    };
    Args {
        workload,
        seed,
        seconds,
        traced,
    }
}

/// Pins the program's configuration: environment knobs (`HC_*`) do not
/// leak into a run.
pub fn pin_config(store_dir: Option<String>) {
    hc_obs::config::set_override(hc_obs::Config {
        threads: Some(WORKERS),
        serve_threads: Some(WORKERS),
        store_dir,
        ..hc_obs::Config::default()
    });
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--serve-child") {
        serve::child(&argv);
        return;
    }
    pin_config(None);
    if argv.iter().any(|a| a == "--freeze") {
        selftest::freeze();
        return;
    }
    if argv.iter().any(|a| a == "--selftest") {
        std::process::exit(i32::from(!selftest::run()));
    }
    let args = parse_args(&argv);
    if reference::Reference::frozen().fig1.is_empty() {
        usage("reference.json is empty; run --freeze first");
    }
    let report = match args.workload.as_str() {
        "ieee1180_rtl" => run_local(
            &mut ieee::Ieee1180::new(args.seed),
            &args.workload,
            args.seconds,
            args.traced,
        ),
        "fig1_cold" => run_local(
            &mut sweep::Sweep::new(sweep::Kind::Fig1, args.seed),
            &args.workload,
            args.seconds,
            args.traced,
        ),
        "matrix" => run_local(
            &mut sweep::Sweep::new(sweep::Kind::Matrix, args.seed),
            &args.workload,
            args.seconds,
            args.traced,
        ),
        _ => serve::run(args.seed, args.seconds, args.traced),
    };
    emit(&report, args.traced);
}
