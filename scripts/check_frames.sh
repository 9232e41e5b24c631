#!/usr/bin/env bash
# Frame guard: every closure handed to an mf-blas realization frame must be
# inlined into that frame.
#
# mf-blas has one `#[target_feature]` frame per realization (simd.rs),
# entered through `simd::fma_frame` and `simd::on_isa`. Each call site
# passes its body as `#[inline(always)] || body(..)`. Without the
# attribute LLVM may emit the closure as a standalone function compiled
# *outside* the frame: the bits are unchanged, so no bit dump or test can
# see it, but the hot loop loses the frame's codegen (vfmadd, registers).
#
# This script builds two release bins and checks each crate's frame call
# sites in the bin that links them:
#
#   mf_blas::{kernels,soa,tile,adaptive,simd}  in the `simd` bin
#   mf_solve::lu (the blocked f64 LU)            in the `solve` bin
#
# For every call site it finds the function enclosing it and fails if
# `nm -C` lists a closure symbol of that function. It also fails if a crate
# other than mf-blas declares a `#[target_feature]` frame of its own:
# downstream crates enter mf-blas's frames instead.
#
# Usage: scripts/check_frames.sh        (x86-64; exit 0 = clean, 1 = escape)
set -euo pipefail
cd "$(dirname "$0")/.."

own=$(grep -ln 'target_feature(enable' crates/*/src/*.rs crates/*/src/**/*.rs 2>/dev/null \
    | grep -v '^crates/blas/src/simd.rs$' | sort -u || true)
if [ -n "$own" ]; then
    echo "check_frames: #[target_feature] frame outside mf_blas::simd in:" >&2
    echo "$own" >&2
    exit 1
fi

cargo build --release -q -p mf-bench --bin simd --bin solve

# "module::function" for each frame call site in crates/<crate>/src/<module>.rs:
# the last `fn` seen above a line calling a frame entry, comments skipped.
sites() {
    local crate=$1
    shift
    for m in "$@"; do
        awk -v mod="$m" '
            /^[[:space:]]*\/\// { next }
            match($0, /fn [A-Za-z_][A-Za-z0-9_]*/) { fn_name = substr($0, RSTART + 3, RLENGTH - 3) }
            /(fma_frame|on_isa|avx2_frame|avx512_frame)\(/ && !/fn (fma_frame|on_isa|avx2_frame|avx512_frame)/ {
                print mod "::" fn_name
            }' "crates/$crate/src/$m.rs"
    done | sort -u
}

# check <bin> <symbol prefix> <sites...>: exit 1 on an escaped closure.
total=0
check() {
    local bin="${CARGO_TARGET_DIR:-target}/release/$1" prefix=$2
    shift 2
    local syms
    syms=$(nm -C "$bin")
    grep -q 'mf_blas::simd::avx2_frame' <<<"$syms" || {
        echo "check_frames: no mf_blas::simd::avx2_frame symbol in $bin (stripped or not x86-64?)" >&2
        exit 1
    }
    [ "$#" -gt 0 ] || { echo "check_frames: found no $prefix frame call sites" >&2; exit 1; }
    local bad=0 site esc
    for site in "$@"; do
        # Legacy demangling prints `path::{{closure}}`, v0 `path::<..>::{closure#0}`.
        esc=$(grep -E "${prefix}::${site}(::<.*>)?::(\{\{closure\}\}|\{closure#[0-9]+\})" <<<"$syms" || true)
        if [ -n "$esc" ]; then
            echo "check_frames: closure escaped its frame at ${prefix}::$site in $bin:" >&2
            echo "$esc" >&2
            bad=1
        fi
    done
    if [ "$bad" -ne 0 ]; then
        echo "check_frames: write the frame argument as '#[inline(always)] || body(..)'" >&2
        exit 1
    fi
    total=$((total + $#))
}

# shellcheck disable=SC2046 # word splitting of the site list is intended
check simd mf_blas $(sites blas kernels soa tile adaptive simd)
# shellcheck disable=SC2046
check solve mf_solve $(sites solve lu)
echo "check_frames: $total frame call sites, no escaped closures"
