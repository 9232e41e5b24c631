#!/usr/bin/env bash
# Regenerate every table and figure of the paper's evaluation
# (DESIGN.md experiments E1-E8). Outputs land in results/.
#
# Every bench binary appends a mf-bench/history/v1 record to
# results/history/bench_history.jsonl (MF_HISTORY=off to disable); the
# script ends with the trend gate comparing this run against the
# committed baseline. With MF_TRACE_DIR set (or TELEMETRY=1 builds via
# FEATURES below), per-run Perfetto traces land next to the tables.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p results results/history

# Set FEATURES="--features telemetry" for instrumented runs with span
# traces; default keeps the benchmarked kernels probe-free.
FEATURES="${FEATURES:-}"
TRACE_ARGS=()
trace_for() {
  TRACE_ARGS=()
  if [ -n "$FEATURES" ]; then
    TRACE_ARGS=(--trace "results/trace_$1.json")
  fi
}

echo "=== E5/E6: network verification (Figures 2-7 captions) ==="
trace_for verify_networks
cargo run --release -p mf-bench $FEATURES --bin verify_networks -- \
  "${TRACE_ARGS[@]}" | tee results/verify_networks.txt

echo
echo "=== E1: CPU tables, native SIMD (Figure 9) ==="
trace_for tables_wide
MF_PLATFORM_LABEL="x86-64 native SIMD (Zen5-substitute)" \
  cargo run --release -p mf-bench $FEATURES --bin tables -- --config wide \
  --out results/tables_wide.json --manifest results/manifest_tables_wide.json \
  "${TRACE_ARGS[@]}" | tee results/tables_wide.txt

echo
echo "=== E2: CPU tables, narrow SIMD (Figure 10 substitution, DESIGN.md T2) ==="
# AVX1+FMA without AVX2/AVX-512: hardware FMA stays (the M3 has FMA units)
# while the vector width drops from 512 to 256 bits — the narrow-SIMD
# variable the paper isolates with its M3 runs.
trace_for tables_narrow
RUSTFLAGS="-C target-cpu=x86-64 -C target-feature=+avx,+fma" MF_PLATFORM_LABEL="x86-64 narrow SIMD (M3-substitute)" \
  cargo run --release -p mf-bench $FEATURES --bin tables -- --config narrow \
  --out results/tables_narrow.json --manifest results/manifest_tables_narrow.json \
  "${TRACE_ARGS[@]}" | tee results/tables_narrow.txt

echo
echo "=== E3: peak-performance ratios (Figure 8) ==="
cargo run --release -p mf-bench $FEATURES --bin summary -- \
  results/tables_wide.json results/tables_narrow.json | tee results/summary.txt

echo
echo "=== E4: T = float data-parallel run (Figure 11 substitution, T3) ==="
trace_for gpu_sim
cargo run --release -p mf-bench $FEATURES --bin gpu_sim -- --out results/gpu_sim.json \
  "${TRACE_ARGS[@]}" | tee results/gpu_sim.txt

echo
echo "=== E8: simulated-annealing FPAN search (paper 4.1) ==="
cargo run --release $FEATURES --example fpan_search | tee results/fpan_search.txt

echo
echo "=== Run digest: merge telemetry manifests ==="
cargo run --release -p mf-bench $FEATURES --bin report -- --dir results \
  --out results/report.json | tee results/report.txt

echo
echo "=== Trend gate: this run vs committed baseline ==="
# Informational here (|| true): machines differ from the baseline
# container, so only CI fails hard on this gate.
cargo run --release -p mf-bench $FEATURES --bin trend -- \
  --history results/history/bench_history.jsonl \
  --baseline results/history/baseline.jsonl \
  --threshold 0.30 | tee results/trend.txt || true

echo
echo "All experiment outputs are in results/."
