#!/usr/bin/env bash
# Full CI gate: formatting, lints, release build, the complete test suite
# and a criterion smoke pass (every benchmark body runs once).
#
# Usage: scripts/ci.sh   (from anywhere; cd's to the repo root)

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release (every workspace binary, storecheck included)"
cargo build --release --workspace

echo "== cargo test"
cargo test --workspace -q

echo "== pass pipeline byte-identity at depth (in-place passes vs the pre-rewrite oracle)"
# The workspace run above samples the default 256 random modules; this
# pass checks 4096 that the optimizer emits exactly the oracle's netlists.
PROPTEST_CASES=4096 cargo test -q --release -p hc-rtl --lib \
  passes::oracle::tests::in_place_pipeline_matches_the_oracle

echo "== differential suites at depth (tape engine on fresh stimulus; tape engine and scalar JIT on held inputs)"
# Inputs held for 1-64 cycles leave most parts clean and most registers
# uncommitted; 4096 random modules per suite against the interpreter.
PROPTEST_CASES=4096 cargo test -q --release -p hc-sim --test differential -- \
  compiled_backend_matches_interpreter held_inputs

echo "== kernel x frontend matrix agreement suite (five backends, full registry)"
# Release mode: the debug workspace run above covers dct8/idct4/fir32 but
# skips the 16x16 IDCT (tens of minutes under the un-optimized
# interpreter); this pass sweeps the complete registry. The batched
# interpreter tier is its own binary: it builds under an HC_NO_NATIVE
# override that must not reach the JIT tiers' engines.
cargo test -q --release --test kernel_matrix --test kernel_matrix_interpreted

echo "== criterion smoke (each bench body once)"
cargo bench -p hc-bench -- --test

echo "== perfsnap gates (engine speedups, tape optimizer, kernel x frontend matrix, fig1 sweep)"
# benchgate's table holds every threshold and host condition (x86-64,
# AVX2, CPU count); a gate that does not apply on this host prints SKIP.
# perfsnap's run already contains the A/B twins: the interpreted figures
# come from engines built under an HC_NO_NATIVE override.
HC_THREADS=2 ./target/release/perfsnap >/dev/null
./target/release/benchgate perfsnap BENCH_sim.json

if [ "$(uname -m)" = "x86_64" ]; then
  echo "== forced-fallback twin of the measurement route (scalar JIT's tape fallback vs the batched interpreter)"
  # Every measurement runs on the scalar JIT; under HC_NO_NATIVE=1 its
  # tape fallback must give every Fig. 1 AXIS point the batched
  # interpreter's outputs and T_L/T_P.
  HC_NO_NATIVE=1 cargo test -q -p hc-core --lib \
    measure::tests::scalar_route_matches_the_batched_harness_on_every_fig1_point
  echo "== forced-fallback twin of the held-input suites (scalar JIT's tape fallback)"
  HC_NO_NATIVE=1 cargo test -q -p hc-sim --test differential -- held_inputs
fi

if [ "$(uname -m)" = "x86_64" ] && grep -q avx2 /proc/cpuinfo; then
  echo "== forced-fallback A/B twin (vector JIT differential suite under HC_NO_NATIVE=1)"
  HC_NO_NATIVE=1 cargo test -q -p hc-sim --test native_batched_differential
else
  echo "skipping forced-fallback twin: host has no AVX2 (engine already runs interpreted)"
fi

echo "== traced perfsnap (HC_TRACE must emit a valid, complete Chrome trace)"
# Keep the untraced run as the recorded benchmark artifact; the traced
# rerun exists only to validate the trace and bound the tracing cost.
cp BENCH_sim.json BENCH_sim_untraced.json
HC_TRACE=trace.json HC_THREADS=2 ./target/release/perfsnap >/dev/null
./target/release/tracecheck trace.json
mv BENCH_sim.json BENCH_sim_traced.json
mv BENCH_sim_untraced.json BENCH_sim.json
rm -f trace.json
./target/release/benchgate tracing BENCH_sim.json BENCH_sim_traced.json
rm -f BENCH_sim_traced.json

echo "== hc-serve load test"
# 64 concurrent mixed clients (cache-hot sweeps, cache-cold modules, DSE
# bursts) must finish error-free.
HC_SERVE_THREADS=4 ./target/release/loadgen \
  --clients 64 --requests 4 --key serve
./target/release/benchgate serve BENCH_sim.json

echo "== persistent store warm start (perfsnap A/B against a shared HC_STORE_DIR)"
# Two processes sharing one store directory: the cold run fills it, the
# warm run must answer nearly the whole fig. 1 front-half sweep from disk.
# The canonical BENCH_sim.json stays the store-less run recorded above.
store_dir="$(mktemp -d)"
cp BENCH_sim.json BENCH_sim_prestore.json
HC_STORE_DIR="$store_dir" HC_THREADS=2 ./target/release/perfsnap >/dev/null
mv BENCH_sim.json BENCH_sim_cold.json
HC_STORE_DIR="$store_dir" HC_THREADS=2 ./target/release/perfsnap >/dev/null
mv BENCH_sim.json BENCH_sim_warm.json
mv BENCH_sim_prestore.json BENCH_sim.json
./target/release/storecheck "$store_dir"
./target/release/benchgate warm-start BENCH_sim_cold.json BENCH_sim_warm.json
rm -rf "$store_dir" BENCH_sim_cold.json BENCH_sim_warm.json

echo "== hc-serve persistent store A/B (cold vs warm across two processes)"
# Same shape as the warm-start gate, through the HTTP service: the warm
# server process must answer the cold process's deterministic cold-module
# synths and sweep measurements from the shared store, and the store must
# still pass a CRC sweep after concurrent writes.
serve_store="$(mktemp -d)"
HC_SERVE_THREADS=4 HC_STORE_DIR="$serve_store" ./target/release/loadgen \
  --clients 16 --requests 4 --key serve_store_cold
HC_SERVE_THREADS=4 HC_STORE_DIR="$serve_store" ./target/release/loadgen \
  --clients 16 --requests 4 --key serve_store_warm
./target/release/storecheck "$serve_store"
rm -rf "$serve_store"
./target/release/benchgate serve-store BENCH_sim.json

echo "== perfbench smoke (builds offline against the crates; every workload correct)"
# The end-to-end benchmark is a package of its own: this catches a change
# that removes an API it calls, or that moves any frozen T_L/T_P/fmax/
# area/Q or IEEE 1180 figure (the result line's "correct" turns false).
bench=(cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml --)
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml
"${bench[@]}" --selftest
for workload in ieee1180_rtl fig1_cold matrix serve; do
  result=$("${bench[@]}" --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1)
  echo "$workload: $result"
  case "$result" in
    *'"correct":true'*) ;;
    *) echo "perfbench $workload: result is not correct"; exit 1 ;;
  esac
done

echo "CI OK"
