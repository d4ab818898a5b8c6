#!/usr/bin/env bash
# Every CI check, in order; the GitHub workflow runs this script as its one
# check step, so a local run is the same job.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc -D warnings =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test =="
# Includes the docs-link check and the closed-form experiments:
# bench/tests/binaries.rs runs `doclinks` from the repository root, and
# `fig2`, `breakeven`, `table7` and `fig14` end to end, parsing each
# --json report.
cargo test -q --workspace

echo "== examples =="
# Each example asserts its own result: quickstart checks every algorithm
# against the direct convolution. `cargo test` compiles examples/ and runs
# assembler_demo, yield_tuning and resnet_sweep (tests/assembler_pipeline.rs
# and tests/end_to_end.rs call their `main`; resnet_sweep, the slowest,
# takes a few seconds in the dev profile). quickstart takes about two
# minutes in the dev profile, so it alone runs here, in release.
for example in quickstart; do
  cargo run --release --quiet --example "$example" > /dev/null
done

echo "== metricsdiff against committed baselines =="
# Perf-regression gate: regenerate the three baseline experiments with
# hardware counters on (one counted simulation per point; the metrics are
# recomputed from the counters on every run, never cached) and compare
# metric-for-metric against baselines/.
# Tolerances: 2% relative by default; 5% on the classifier-pressure
# metrics (headroom_pct, *_pressure, eligible_warps_avg) — see
# crates/bench/src/metricsdiff.rs. The simulator is deterministic, so a
# clean tree reproduces the baselines exactly; any drift is a real
# behaviour change and must come with regenerated baselines (see
# EXPERIMENTS.md, "Metrics baselines").
fresh="$(mktemp -d)"
trap 'rm -rf "$fresh"' EXIT
./target/release/table2 --metrics --json "$fresh/table2.json" > /dev/null
./target/release/fig7 --metrics --json "$fresh/fig7.json" > /dev/null
./target/release/ablation --metrics --json "$fresh/ablation.json" > /dev/null
./target/release/metricsdiff --baseline baselines \
  "$fresh/table2.json" "$fresh/fig7.json" "$fresh/ablation.json"

echo "== simspeed smoke =="
# Host-throughput sanity check of the timing hot loop and of functional
# execution: runs the tracked simspeed matrix once (timing points plus two
# launch_parallel points per device, the OURS and the cuDNN-like WINOGRAD
# fused kernels) and verifies every point produces sane cycle, issue and
# block counts. It is also an exactness gate on the hot loop: simspeed
# exits 1 when a point's wave_cycles, issued, busy_sms or blocks differs
# from the committed BENCH_simspeed.json. The geomean speedups against that
# file, over all points and over the launch_parallel points, are printed
# for information only. No wall-clock gate —
# CI machines are too noisy for that; the tracked numbers live in
# BENCH_simspeed.json (see EXPERIMENTS.md, "Simulator speed").
./target/release/simspeed --smoke --baseline BENCH_simspeed.json --json "$fresh/simspeed.json" \
  | grep "speedup vs baseline"

echo "== multiwave smoke =="
# Multi-wave timing cross-check: times one Table 2 point per device under
# both the one-wave extrapolation and the full-device simulation, asserting
# both produce positive, mutually sane times. (Bit-for-bit agreement on
# exact-multiple grids is pinned by gpusim/tests/device_sim.rs.) The full
# tracked run lives in BENCH_multiwave.json (see EXPERIMENTS.md,
# "Multi-wave timing model").
./target/release/multiwave --smoke --json "$fresh/multiwave.json" > /dev/null

echo "== convbench profile + trace =="
# The observed measurement paths: `--profile` attaches the stall profile to
# the fused kernel of the FX -> fused pipeline (device model), `--trace`
# records the device-exact per-SM wave timeline of the fused kernel alone.
# Observation changes no number (crates/core/tests/measure_observation.rs);
# this stage checks both paths run end to end and the trace file parses.
./target/release/convbench --layer Conv5 --n 32 --profile --trace "$fresh/trace.json" > /dev/null
python3 -m json.tool "$fresh/trace.json" > /dev/null

echo "== tune smoke =="
# Autotuner smoke: tiny fixed-seed 2-island search on V100, run twice
# (--jobs 1 and --jobs 2) inside the binary, asserting equal outcomes
# across the two (the whole IslandOutcome), a monotone best-so-far trace,
# and at least one accepted improving move (every visited candidate passes
# sass::lint by construction). Deterministic (fixed seed, --no-cache) — the full tracked
# run lives in BENCH_tune.json (see EXPERIMENTS.md, "Autotuner v2").
./target/release/tune --smoke --no-cache --json "$fresh/tune.json" > /dev/null

echo "== tune verify =="
# Drift gate for the autotuner: re-run the full two-tier search (full
# recovery gate ≥97% + Conv2-beats-hand gate live) against a copy of the
# committed BENCH_tune.json and assert the re-run reproduces it byte for
# byte. Warm simcache makes this cheap; the search is byte-deterministic
# for the fixed default seed, so a mismatch means the committed file is
# stale — regenerate it (EXPERIMENTS.md, "Autotuner v2").
cp BENCH_tune.json "$fresh/tune_full.json"
./target/release/tune --verify --json "$fresh/tune_full.json" > /dev/null

echo "== resnet smoke =="
# Whole-network runtime smoke: plans the 4-node smoke graph on both devices
# under all three policies, asserting the planner invariants in-process —
# per-layer sum-consistency with the end-to-end report, every workspace
# arena validates (no live-range overlap, peak bounds), linear-scan reuse
# never loses to bump allocation, and hoisting the filter transforms
# strictly reduces network time. Byte-determinism across --jobs and
# simcache state is pinned by bench/tests/resnet_determinism.rs; the full
# tracked run lives in BENCH_resnet.json (see EXPERIMENTS.md,
# "Whole-network ResNet").
./target/release/resnet --smoke --json "$fresh/resnet.json" > /dev/null

echo "== repository benchmark smoke =="
# The repository benchmark (benchmark/, declared by BENCHMARK.json) is its
# own cargo workspace, so `cargo test --workspace` does not reach it. Its
# tests run every workload at smoke size, traced and plain, and check that
# each reports exactly the metric names and units BENCHMARK.json declares.
cargo test --offline --manifest-path benchmark/Cargo.toml

echo "== serve smoke =="
# Serving-engine smoke: tiny shapes, short bursty stream, both devices;
# asserts both phases drain, a warm plan costs less than every cold build,
# warm time-to-first-dispatch is never later than cold and strictly sooner
# for every class whose cold build outlasts it, and every plan round-trips
# its warm-start verification. Byte-determinism across --jobs and cache state
# is pinned by bench/tests/serve_determinism.rs; the full tracked run
# lives in BENCH_serve.json (see EXPERIMENTS.md, "Serving engine").
./target/release/serve --smoke --plan-dir "$fresh/plans" --json "$fresh/serve.json" > /dev/null

echo "== servemon smoke =="
# Telemetry round-trip: re-run the serve smoke with the flight recorder on
# (reusing the plan directory the previous stage populated), which also
# asserts the recorded stream reconciles with the engine stats, then replay
# the events log through servemon's consistency checks. The report JSON is
# byte-identical with telemetry on or off (pinned by
# bench/tests/serve_telemetry.rs), so this stage can never change results.
# Every plan of this warm run must load from the plan directory (0 misses
# on both devices): the outputs are the same whether a load hits or
# misses, so only the hit counts show a store that stopped reading back.
./target/release/serve --smoke --plan-dir "$fresh/plans" --json "$fresh/serve_tel.json" \
  --events "$fresh/serve_events.jsonl" --pool-trace "$fresh/serve_pool.json" \
  > /dev/null 2> "$fresh/serve_tel.log"
cmp "$fresh/serve.json" "$fresh/serve_tel.json"
if [ "$(grep -c ' / 0 misses / ' "$fresh/serve_tel.log")" != 2 ]; then
  cat "$fresh/serve_tel.log" >&2
  exit 1
fi
./target/release/servemon --log "$fresh/serve_events.jsonl" --smoke > /dev/null

echo "CI green."
