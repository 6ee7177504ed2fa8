//! Performance snapshot: writes `BENCH_sim.json` so the simulation and
//! sweep performance trajectory is tracked across PRs.
//!
//! Measures five things:
//!
//! 1. **Simulation throughput** (cycles/sec) of the interpreted and the
//!    compiled backend pushing the same 64 blocks through the Verilog
//!    initial design's AXI-Stream interface. Each figure is the best of
//!    3 timed repetitions (min wall-clock per cycle), so scheduler noise
//!    biases the record high-watermark rather than smearing it.
//! 2. **Tape backend optimizer effect**: the same compiled run built with
//!    [`EngineOptions::no_tape_opt`], the resulting `tapeopt_speedup`,
//!    and the optimizer's [`TapeOptReport`](hc_sim::TapeOptReport)
//!    (fused/forwarded/removed instruction counts, slot compaction, cone
//!    count and the cones actually skipped during the measured run).
//! 3. **Batched throughput** of the lane-batched engine on the same 64
//!    blocks, counted in *lane-cycles* per second (each lane's cycle is a
//!    full simulated cycle of an independent stimulus stream, so
//!    lane-cycles/sec is directly comparable to the scalar figures).
//!    Measured twice: the vector-JIT tier as built by default
//!    (per-cone AVX2 codegen over the lane store) and an interpreted
//!    A/B twin built under an `HC_NO_NATIVE` override. Both
//!    engines are additionally timed *engine-level* (direct per-lane
//!    stimulus + step, no AXI protocol), which isolates the component
//!    the JIT replaces; that ratio is
//!    `native_batched_speedup_vs_batched` (the figure ci.sh gates),
//!    while the harness-level ratio lands in
//!    `native_batched_harness_speedup`, and the vector-JIT tier's
//!    harness-level over engine-level rate in
//!    `native_batched_harness_engine_ratio` (also gated). Per-design
//!    vector-cone/fallback counts are recorded alongside.
//! 4. **Native (per-cone JIT) throughput** on the same stream, with a
//!    native-off A/B twin (the identical engine built under an
//!    `HC_NO_NATIVE` override, i.e. the tape interpreter inside the same
//!    wrapper) and the resulting `native_speedup_vs_compiled`.
//! 5. **Tape shrink** per Table II design: the IR pass pipeline's
//!    instruction counts (pre/post `hc_rtl::passes::optimize`), the tape
//!    optimizer's report on the raw module, and the instruction and part
//!    counts of the optimized module's tape (the one measurements replay).
//! 6. **Fig. 1 sweep wall-clock**: the legacy cold per-point pipeline run
//!    serially vs the memoized + chunked parallel driver, with per-point
//!    p50/p90 seconds (the raw 70-element array was pure noise in diffs),
//!    the chunk size the scheduler picked, the front-half cache hit/miss
//!    counts of the timed run, and the worker count the pool actually used
//!    (`HC_THREADS` honored).
//! 7. **Warm start**: the wall-clock of the *first* sweep of the process
//!    (`fig1_first_sweep_seconds`) plus the persistent store tier's
//!    hit/miss deltas across it (`store_front_hit_rate`, `store`). With
//!    `HC_STORE_DIR` pointing at a populated store this is the cost a
//!    second process actually pays; run perfsnap twice against the same
//!    directory to A/B cold vs warm (ci.sh gates on it).
//!
//! Usage: `cargo run -p hc-bench --release --bin perfsnap [nblocks]`
//! (`nblocks` sizes the sweep simulation effort; default 2).
//!
//! The file is one [`Json`] document written with [`Json::pretty`];
//! `benchgate` reads it back for the CI gates.

use std::time::{Duration, Instant};

use hc_axi::{BatchedStreamHarness, StreamHarness};
use hc_idct::generator::BlockGen;
use hc_obs::{jobj, Json};
use hc_sim::{
    EngineOptions, NativeBatchedReport, NativeBatchedSimulator, SimBackend, TapeOptReport,
};

/// One 8x8 input block.
type Block = [[i32; 8]; 8];

/// A Table II design's `tape` row.
struct TapeRow {
    label: String,
    /// Lowered tape length of the raw module.
    pre: usize,
    /// Lowered tape length of the optimized module.
    post: usize,
    /// The tape optimizer's report on the raw module.
    raw: TapeOptReport,
    /// Its report on the optimized module: the tape measurements replay.
    opt: TapeOptReport,
    /// The raw module's vector-JIT coverage.
    vjit: NativeBatchedReport,
}

/// Best cycles/sec over 3 timed repetitions (after one warmup rep). The
/// closure streams one batch through an already-built engine and returns the
/// cycles it simulated — construction is excluded, so the figure is pure
/// steady-state throughput. Each repetition accumulates runs until ~0.3 s;
/// taking the best rep (minimum elapsed-per-cycle) discards interference
/// from the rest of the machine instead of averaging it in.
fn rate<F: FnMut() -> u64>(mut run_batch: F) -> f64 {
    run_batch();
    let mut best = 0.0f64;
    for _ in 0..3 {
        let mut cycles = 0u64;
        let mut elapsed = Duration::ZERO;
        while elapsed < Duration::from_millis(300) {
            let start = Instant::now();
            cycles += run_batch();
            elapsed += start.elapsed();
        }
        best = best.max(cycles as f64 / elapsed.as_secs_f64());
    }
    best
}

/// [`rate`] of a scalar harness streaming `inputs`, in simulated cycles.
fn stream_rate<B: SimBackend>(h: &mut StreamHarness<B>, inputs: &[Block], budget: u64) -> f64 {
    rate(|| {
        let before = h.simulator_mut().cycle();
        assert_eq!(h.run(inputs, budget).0.len(), inputs.len());
        h.simulator_mut().cycle() - before
    })
}

/// [`rate`] of a batched harness streaming `inputs`, in lane-cycles.
fn batched_rate(h: &mut BatchedStreamHarness, inputs: &[Block], budget: u64) -> f64 {
    let lane_cycles = |h: &mut BatchedStreamHarness| {
        let sim = h.simulator_mut();
        (0..sim.lanes()).map(|lane| sim.cycle(lane)).sum::<u64>()
    };
    rate(|| {
        let before = lane_cycles(h);
        assert_eq!(h.run_blocks(inputs, budget).0.len(), inputs.len());
        lane_cycles(h) - before
    })
}

/// Builds an engine with both JIT tiers off (a temporary `HC_NO_NATIVE`
/// override): the interpreted A/B twin of whatever `build` constructs.
/// The decision is taken at engine construction, so restoring the config
/// right after the build keeps the override window minimal.
fn without_jit<T>(build: impl FnOnce() -> T) -> T {
    let baseline = (*hc_obs::config()).clone();
    hc_obs::config::set_override(hc_obs::Config {
        no_native: true,
        ..baseline.clone()
    });
    let built = build();
    hc_obs::config::set_override(baseline);
    built
}

/// `x` rounded to `decimals` places: rates per second to integers, ratios
/// to 2 places, seconds to 3, Q and hit rates to 4.
fn round(x: f64, decimals: i32) -> Json {
    let scale = 10f64.powi(decimals);
    Json::Num((x * scale).round() / scale)
}

/// The *static* half of a [`TapeOptReport`] — everything the optimizer
/// decided at construction. The runtime counters (`parts_skipped`,
/// `regs_committed`, `cones_skipped`) are deliberately excluded: they
/// measure what activity gating elided *during whatever run the engine
/// happened to do*, so folding them in made the top-level report
/// (observed over the timed streaming run) disagree with the per-design
/// `tape[]` entries (engines that never stepped, always 0). The main
/// run's figures are recorded separately as `parts_skipped_runtime` and
/// `regs_committed_runtime`.
fn tapeopt_json(r: &TapeOptReport) -> Json {
    jobj! {
        "instrs_pre" => r.instrs_pre,
        "instrs_post" => r.instrs_post,
        "fused" => r.fused,
        "forwarded" => r.forwarded,
        "strength_reduced" => r.strength_reduced,
        "dead_removed" => r.dead_removed,
        "narrow_slots_pre" => r.narrow_slots_pre,
        "narrow_slots_post" => r.narrow_slots_post,
        "wide_slots_pre" => r.wide_slots_pre,
        "wide_slots_post" => r.wide_slots_post,
        "cones" => r.cones,
        "parts" => r.parts,
    }
}

fn main() {
    let nblocks: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);

    let module = hc_verilog::designs::initial_design().expect("parses");
    let blocks = BlockGen::new(3, -2048, 2047).take_blocks(64);
    let inputs: Vec<Block> = blocks.iter().map(|b| b.0).collect();
    let budget = 2000 * (inputs.len() as u64 + 4);
    let lanes = hc_axi::lanes_for_blocks(inputs.len());

    println!("simulating 64 blocks on the Verilog initial design...");
    let mut ih = StreamHarness::new(module.clone()).expect("validates");
    let ihz = stream_rate(&mut ih, &inputs, budget);
    let mut ch = StreamHarness::compiled(module.clone()).expect("validates");
    let chz = stream_rate(&mut ch, &inputs, budget);
    let mut rh = StreamHarness::compiled_with_options(module.clone(), EngineOptions::no_tape_opt())
        .expect("validates");
    let chz_raw = stream_rate(&mut rh, &inputs, budget);
    // Native (per-cone JIT) A/B: the same harness type twice, once as
    // built by default (JIT where the target supports it) and once without
    // the JIT. Off x86-64 both figures are the interpreted tape and the
    // speedup reads ~1.0 (benchgate skips the gate there).
    let mut nh = StreamHarness::native(module.clone()).expect("validates");
    let nhz = stream_rate(&mut nh, &inputs, budget);
    let native_report = nh.simulator_mut().native_report();
    let mut oh = without_jit(|| StreamHarness::native(module.clone()).expect("validates"));
    let nhz_off = stream_rate(&mut oh, &inputs, budget);
    let mut bh = BatchedStreamHarness::new(module.clone(), lanes).expect("validates");
    let bhz = batched_rate(&mut bh, &inputs, budget);
    let nb_report = bh.simulator_mut().native_batched_report();
    let nb_active = bh.simulator_mut().vector_active();
    // Vector-JIT A/B: the identical batched harness built without the JIT,
    // i.e. the interpreted batched engine inside the same wrapper. Off
    // AVX2 hosts both figures are interpreted and the speedup reads ~1.0
    // (benchgate skips the gate there).
    let mut obh =
        without_jit(|| BatchedStreamHarness::new(module.clone(), lanes).expect("validates"));
    let bhz_off = batched_rate(&mut obh, &inputs, budget);
    // Engine-level lane throughput: the same two engines driven directly
    // (fresh stimulus on every lane, eval + step, no AXI protocol or
    // harness bookkeeping), isolating the component the vector JIT
    // replaces. This ratio is the CI gate: the harness-level figures
    // above fold in protocol simulation that both engines pay equally,
    // which dilutes the ratio and makes it noisy around a threshold.
    let mut evjit = NativeBatchedSimulator::new(module.clone(), lanes).expect("validates");
    let mut einterp =
        without_jit(|| NativeBatchedSimulator::new(module.clone(), lanes).expect("validates"));
    // The stimulus port is resolved once, as the harness resolves its
    // ports, so a by-name lookup per lane per cycle does not understate
    // the engine rate the harness is compared against.
    let engine_rate = |sim: &mut NativeBatchedSimulator, salt: u64| {
        let port = sim.in_port("s_axis_tdata");
        let mut stim = salt;
        rate(|| {
            for _ in 0..256 {
                stim = stim.wrapping_add(0x9e3779b97f4a7c15);
                for lane in 0..lanes {
                    sim.set_port_u64(lane, port, stim ^ lane as u64);
                }
                sim.step();
            }
            256 * lanes as u64
        })
    };
    let ebhz = engine_rate(&mut evjit, 1);
    let ebhz_off = engine_rate(&mut einterp, 2);
    // Harness-level over engine-level throughput of the vector-JIT tier:
    // the share of the engine's rate the AXI harness delivers (benchgate
    // gates it on AVX2 hosts).
    let harness_engine_ratio = bhz / ebhz;
    // The measured design's optimizer report, with the parts-skipped and
    // registers-committed counters observed over the whole timed
    // streaming run above.
    let main_report = ch
        .simulator_mut()
        .tape_opt_report()
        .expect("tape optimizer is on by default");
    let tapeopt_speedup = chz / chz_raw;
    println!("  interpreted:        {ihz:12.0} cycles/sec");
    println!(
        "  compiled (raw tape): {chz_raw:11.0} cycles/sec  ({:.1}x)",
        chz_raw / ihz
    );
    println!(
        "  compiled (tape opt): {chz:11.0} cycles/sec  ({:.1}x, {tapeopt_speedup:.2}x vs raw)",
        chz / ihz
    );
    let native_speedup = nhz / chz;
    println!(
        "  native (cone JIT):  {nhz:12.0} cycles/sec  ({native_speedup:.2}x vs compiled; \
         {} cones compiled, {} fallback, {} code bytes)",
        native_report.cones_compiled, native_report.cones_fallback, native_report.code_bytes
    );
    println!("  native off (A/B):   {nhz_off:12.0} cycles/sec");
    let nb_harness_speedup = bhz / bhz_off;
    let native_batched_speedup = ebhz / ebhz_off;
    println!(
        "  batched ({lanes:2} lanes): {bhz_off:12.0} lane-cycles/sec  ({:.1}x vs compiled)",
        bhz_off / chz
    );
    println!(
        "  vector JIT batched: {bhz:12.0} lane-cycles/sec  ({nb_harness_speedup:.2}x vs \
         batched; {} cones compiled, {} fallback, {} code bytes)",
        nb_report.cones_compiled, nb_report.cones_fallback, nb_report.code_bytes
    );
    println!(
        "  engine-level:       {ebhz:12.0} lane-cycles/sec vs {ebhz_off:.0} interpreted \
         ({native_batched_speedup:.2}x, the gated figure; harness delivers \
         {harness_engine_ratio:.2}x of the engine)"
    );
    println!(
        "  tape opt: {} -> {} instrs, {} fused, {} slots -> {}, {} cones ({} skipped)",
        main_report.instrs_pre,
        main_report.instrs_post,
        main_report.fused,
        main_report.narrow_slots_pre,
        main_report.narrow_slots_post,
        main_report.cones,
        main_report.cones_skipped
    );

    println!("optimization pass pipeline (compiled tape, pre/post)...");
    let mut tape_rows: Vec<TapeRow> = Vec::new();
    for tool in hc_core::entries::all_tools() {
        for design in [&tool.initial, &tool.optimized] {
            let sim = hc_sim::CompiledSimulator::new(design.module.clone())
                .expect("Table II designs validate");
            let pre = sim.tape_stats().0;
            let report = sim
                .tape_opt_report()
                .expect("tape optimizer is on by default");
            let mut optimized = design.module.clone();
            hc_rtl::passes::optimize(&mut optimized);
            let opt_sim =
                hc_sim::CompiledSimulator::new(optimized).expect("Table II designs validate");
            let post = opt_sim.tape_stats().0;
            let opt_report = opt_sim
                .tape_opt_report()
                .expect("tape optimizer is on by default");
            // The vector-cone split is a compile-time decision, so a
            // minimal 4-lane build is enough to record it per design.
            let vjit = hc_sim::NativeBatchedSimulator::new(design.module.clone(), 4)
                .expect("Table II designs validate")
                .native_batched_report();
            println!(
                "  {:24} {pre:5} -> {post:5} instrs (IR, -{:.0}%), tape opt {} -> {} ({} fused), \
                 vjit {}/{} cones",
                design.label,
                100.0 * (pre.saturating_sub(post)) as f64 / pre.max(1) as f64,
                report.instrs_pre,
                report.instrs_post,
                report.fused,
                vjit.cones_compiled,
                vjit.cones_compiled + vjit.cones_fallback,
            );
            tape_rows.push(TapeRow {
                label: design.label.clone(),
                pre,
                post,
                raw: report,
                opt: opt_report,
                vjit,
            });
        }
    }
    let tapeopt_fused_min = tape_rows.iter().map(|r| r.raw.fused).min().unwrap_or(0);
    let tape_json: Vec<Json> = tape_rows
        .iter()
        .map(|r| {
            jobj! {
                "design" => r.label.as_str(),
                "tape_pre" => r.pre,
                "tape_post" => r.post,
                "tapeopt" => tapeopt_json(&r.raw),
                "opt_instrs_post" => r.opt.instrs_post,
                "opt_parts" => r.opt.parts,
                "vjit_cones_compiled" => r.vjit.cones_compiled,
                "vjit_cones_fallback" => r.vjit.cones_fallback,
            }
        })
        .collect();

    println!("kernel x frontend matrix (nblocks = {nblocks})...");
    // Every registry kernel across all seven frontends: measure_cell
    // asserts golden agreement, so a cell only lands here (with
    // "agreement": true) if it was bit-exact; ci.sh gates on all
    // kernels x frontends being present and agreeing.
    let mut matrix_json: Vec<(String, Json)> = Vec::new();
    for spec in hc_bench::kernels::kernels() {
        let rows = hc_core::matrix::measure_kernel_matrix(&spec, nblocks.max(2));
        for row in &rows {
            let m = &row.measurement;
            println!(
                "  {:26} {:9.1} MOPS  Q {:10.3}  T_P {:4}  alpha {:6.1}%  C_Q {:6.1}%",
                m.label, m.throughput_mops, m.q, m.periodicity, row.automation, row.controllability
            );
            let cell = jobj! {
                "throughput_mops" => round(m.throughput_mops, 2),
                "q" => round(m.q, 4),
                "periodicity" => m.periodicity,
                "latency" => m.latency,
                "loc" => m.loc,
                "automation" => round(row.automation, 1),
                "controllability" => round(row.controllability, 1),
                "agreement" => true,
            };
            matrix_json.push((m.label.clone(), cell));
        }
    }

    println!("fig. 1 sweep (nblocks = {nblocks})...");
    // The first sweep of the process is the warm-start probe: with
    // HC_STORE_DIR set and a populated store, every front half and
    // measurement comes off disk, so this wall-clock (and the store-tier
    // hit rate across it) is what a "second process" actually pays. It
    // doubles as the warmup for the steady-state comparison below: the
    // timed parallel run measures the in-memory driver, the serial
    // baseline deliberately runs the legacy cold pipeline per point.
    let tier = hc_core::persist::tier_counters();
    let (front_hits_0, front_misses_0) = (tier.front_hits.get(), tier.front_misses.get());
    let (meas_hits_0, meas_misses_0) = (tier.measure_hits.get(), tier.measure_misses.get());
    let start = Instant::now();
    let _ = hc_bench::fig1_points(nblocks);
    let first_sweep_time = start.elapsed();
    let front_hits = tier.front_hits.get() - front_hits_0;
    let front_misses = tier.front_misses.get() - front_misses_0;
    let meas_hits = tier.measure_hits.get() - meas_hits_0;
    let meas_misses = tier.measure_misses.get() - meas_misses_0;
    let store_front_hit_rate = front_hits as f64 / (front_hits + front_misses).max(1) as f64;
    let store_on = hc_core::persist::store().is_some();
    println!(
        "  first sweep:            {:8.2} s  (store {}, front {front_hits} hit / \
         {front_misses} miss, measure {meas_hits} hit / {meas_misses} miss)",
        first_sweep_time.as_secs_f64(),
        if store_on { "on" } else { "off" },
    );
    let start = Instant::now();
    let serial = hc_bench::fig1_points_serial(nblocks);
    let serial_time = start.elapsed();
    hc_core::cache::reset_stats();
    let start = Instant::now();
    let (parallel, chunk) = hc_bench::fig1_points_timed(nblocks);
    let parallel_time = start.elapsed();
    let (cache_hits, cache_misses) = hc_core::cache::stats();
    assert_eq!(serial.len(), parallel.len());
    // Both drivers must emit the sweep in the same stable order, or the
    // per-point trajectories stop being comparable across runs.
    for ((_, s), (_, p, _)) in serial.iter().zip(&parallel) {
        assert_eq!(s.label, p.label, "sweep order diverged");
    }
    let sweep_speedup = serial_time.as_secs_f64() / parallel_time.as_secs_f64();
    let threads = hc_core::par::worker_count(parallel.len());
    println!(
        "  serial (cold pipeline): {:8.2} s",
        serial_time.as_secs_f64()
    );
    println!(
        "  parallel (memoized):    {:8.2} s  ({sweep_speedup:.2}x on {threads} workers, \
         chunk {chunk}, {cache_hits} cache hits / {cache_misses} misses)",
        parallel_time.as_secs_f64()
    );

    let point_secs: Vec<f64> = parallel.iter().map(|(_, _, s)| *s).collect();
    let point_mean = point_secs.iter().sum::<f64>() / point_secs.len().max(1) as f64;
    let point_max = point_secs.iter().copied().fold(0.0f64, f64::max);
    let point_p50 = hc_bench::percentile(&point_secs, 50.0);
    let point_p90 = hc_bench::percentile(&point_secs, 90.0);

    // The `"store"` section: the persistent tier's hit/miss deltas over
    // the first sweep plus the on-disk log's own stats.
    let store_json = match hc_core::persist::store() {
        None => jobj! { "enabled" => false },
        Some(store) => {
            let st = store.stats();
            jobj! {
                "enabled" => store_on,
                "front_hits" => front_hits,
                "front_misses" => front_misses,
                "measure_hits" => meas_hits,
                "measure_misses" => meas_misses,
                "segments" => st.segments,
                "records" => st.records,
                "live_bytes" => st.live_bytes,
                "dead_bytes" => st.dead_bytes,
                "compactions" => st.compactions,
            }
        }
    };
    let json = jobj! {
        "design" => "verilog_initial",
        "blocks" => 64u32,
        "interpreted_cycles_per_sec" => round(ihz, 0),
        "compiled_cycles_per_sec" => round(chz, 0),
        "compiled_raw_tape_cycles_per_sec" => round(chz_raw, 0),
        "tapeopt_speedup" => round(tapeopt_speedup, 2),
        "tapeopt_fused_min" => tapeopt_fused_min,
        "tapeopt" => tapeopt_json(&main_report),
        "parts_skipped_runtime" => main_report.parts_skipped,
        "regs_committed_runtime" => main_report.regs_committed,
        "sim_speedup" => round(chz / ihz, 2),
        "native_cycles_per_sec" => round(nhz, 0),
        "native_off_cycles_per_sec" => round(nhz_off, 0),
        "native_speedup_vs_compiled" => round(native_speedup, 2),
        "native_cones_compiled" => native_report.cones_compiled,
        "native_cones_fallback" => native_report.cones_fallback,
        "native_code_bytes" => native_report.code_bytes,
        "batched_lanes" => lanes,
        "batched_lane_cycles_per_sec" => round(bhz_off, 0),
        "batched_speedup_vs_compiled" => round(bhz_off / chz, 2),
        "native_batched_lane_cycles_per_sec" => round(bhz, 0),
        "native_batched_harness_speedup" => round(nb_harness_speedup, 2),
        "batched_engine_lane_cycles_per_sec" => round(ebhz_off, 0),
        "native_batched_engine_lane_cycles_per_sec" => round(ebhz, 0),
        "native_batched_speedup_vs_batched" => round(native_batched_speedup, 2),
        "native_batched_harness_engine_ratio" => round(harness_engine_ratio, 2),
        "native_batched_active" => nb_active,
        "native_batched_cones_compiled" => nb_report.cones_compiled,
        "native_batched_cones_fallback" => nb_report.cones_fallback,
        "native_batched_code_bytes" => nb_report.code_bytes,
        "fig1_nblocks" => nblocks,
        "fig1_points" => serial.len(),
        "fig1_serial_seconds" => round(serial_time.as_secs_f64(), 3),
        "fig1_parallel_seconds" => round(parallel_time.as_secs_f64(), 3),
        "fig1_first_sweep_seconds" => round(first_sweep_time.as_secs_f64(), 3),
        "store_front_hit_rate" => round(store_front_hit_rate, 4),
        "store" => store_json,
        "fig1_speedup" => round(sweep_speedup, 2),
        "fig1_chunk_size" => chunk,
        "cache_hits" => cache_hits,
        "cache_misses" => cache_misses,
        "fig1_point_seconds_mean" => round(point_mean, 4),
        "fig1_point_seconds_p50" => round(point_p50, 4),
        "fig1_point_seconds_p90" => round(point_p90, 4),
        "fig1_point_seconds_max" => round(point_max, 4),
        "tape" => tape_json,
        "matrix" => Json::Obj(matrix_json),
        "metrics" => hc_obs::metrics::snapshot_json(),
        "threads" => threads,
    };
    std::fs::write("BENCH_sim.json", json.pretty()).expect("write BENCH_sim.json");
    println!("(written to BENCH_sim.json)");

    // With HC_TRACE=<path> set, every span recorded above lands in one
    // Chrome-trace file (open via chrome://tracing or Perfetto).
    match hc_obs::trace::flush() {
        Ok(Some(path)) => println!("(trace written to {path})"),
        Ok(None) => {}
        Err(e) => eprintln!("warning: failed to write HC_TRACE file: {e}"),
    }
}
