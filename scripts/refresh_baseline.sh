#!/usr/bin/env bash
# Refresh the committed benchmark-trend baseline.
#
# Usage: scripts/refresh_baseline.sh [baseline.jsonl]
#   (default: results/history/baseline.jsonl)
#
# Reruns the history-producing bench binaries (tables + solve + adaptive +
# simd) twice in quick mode in the telemetry build, and
# `tables --config wide` twice in the default build, against the given
# baseline file, replacing its contents. The trend gate identifies kernels
# by name and build, so each build is gated against its own baseline
# records, and `trend --parity` pairs the two builds' MultiFloat tables
# kernels.
# Two same-revision passes are what gives the trend gate its noise floor;
# all records carry git_rev "baseline" so fresh CI runs never pool with
# them. Run this (and commit the result) whenever a bench binary grows new
# per-variant kernel names — the trend gate exits 2 and prints this
# command when the baseline is missing kernels the current run measured.
#
# Knobs (all optional): MF_BLAS_THREADS (pinned to 1 by default so the
# kernel set matches the single-threaded CI gate), MF_PLATFORM_LABEL,
# MF_SIMD (pinned to auto so the ambient-dispatch kernels in tables /
# adaptive are measured on the same realization the CI trend job uses;
# the simd bin's per-ISA kernels force each realization regardless).
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE="${1:-results/history/baseline.jsonl}"
mkdir -p "$(dirname "$BASELINE")"

export MF_BENCH_QUICK=1
export MF_GIT_REV=baseline
export MF_HISTORY="$BASELINE"
export MF_BLAS_THREADS="${MF_BLAS_THREADS:-1}"
export MF_PLATFORM_LABEL="${MF_PLATFORM_LABEL:-baseline-container}"
export MF_SIMD="${MF_SIMD:-auto}"

# Telemetry build: baseline records should carry the same feature set the
# CI trend job measures with. The default build goes to its own target
# dir so both `tables` binaries exist at once and their runs interleave,
# as in the CI trend job.
cargo build --release -p mf-bench --features telemetry
CARGO_TARGET_DIR=target/default cargo build --release -p mf-bench --bin tables

: > "$BASELINE"
for pass in 1 2; do
  echo "=== baseline pass $pass/2: tables ===" >&2
  ./target/release/tables --config wide --manifest results/manifest_baseline_tables.json >/dev/null
  echo "=== baseline pass $pass/2: tables (default build) ===" >&2
  ./target/default/release/tables --config wide --manifest results/manifest_baseline_tables.json >/dev/null
  echo "=== baseline pass $pass/2: solve ===" >&2
  ./target/release/solve --manifest results/manifest_baseline_solve.json >/dev/null
  echo "=== baseline pass $pass/2: adaptive ===" >&2
  ./target/release/adaptive --manifest results/manifest_baseline_adaptive.json >/dev/null
  echo "=== baseline pass $pass/2: simd ===" >&2
  ./target/release/simd --manifest results/manifest_baseline_simd.json >/dev/null
done

echo "wrote $(wc -l < "$BASELINE") record(s) to $BASELINE" >&2
echo "now commit it: git add $BASELINE" >&2
