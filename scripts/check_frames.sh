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
# This script builds the release `simd` bin, finds every frame call site in
# mf_blas::{kernels,soa,tile,adaptive,simd} with the function enclosing it,
# and fails if `nm -C` lists a closure symbol of any of those functions.
#
# Usage: scripts/check_frames.sh        (x86-64; exit 0 = clean, 1 = escape)
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -q -p mf-bench --bin simd
BIN="${CARGO_TARGET_DIR:-target}/release/simd"
SYMS=$(nm -C "$BIN")

grep -q 'mf_blas::simd::avx2_frame' <<<"$SYMS" || {
    echo "check_frames: no mf_blas::simd::avx2_frame symbol in $BIN (stripped or not x86-64?)" >&2
    exit 1
}

# "module::function" for each frame call site: the last `fn` seen above a
# line calling a frame entry, comments skipped.
SITES=$(for m in kernels soa tile adaptive simd; do
    awk -v mod="$m" '
        /^[[:space:]]*\/\// { next }
        match($0, /fn [A-Za-z_][A-Za-z0-9_]*/) { fn_name = substr($0, RSTART + 3, RLENGTH - 3) }
        /(fma_frame|on_isa|avx2_frame|avx512_frame)\(/ && !/fn (fma_frame|on_isa|avx2_frame|avx512_frame)/ {
            print mod "::" fn_name
        }' "crates/blas/src/$m.rs"
done | sort -u)

[ -n "$SITES" ] || { echo "check_frames: found no frame call sites" >&2; exit 1; }

bad=0
for site in $SITES; do
    # Legacy demangling prints `path::{{closure}}`, v0 `path::<..>::{closure#0}`.
    esc=$(grep -E "mf_blas::${site}(::<.*>)?::(\{\{closure\}\}|\{closure#[0-9]+\})" <<<"$SYMS" || true)
    if [ -n "$esc" ]; then
        echo "check_frames: closure escaped its frame at mf_blas::$site:" >&2
        echo "$esc" >&2
        bad=1
    fi
done
n=$(wc -w <<<"$SITES")
if [ "$bad" -ne 0 ]; then
    echo "check_frames: write the frame argument as '#[inline(always)] || body(..)'" >&2
    exit 1
fi
echo "check_frames: $n frame call sites, no escaped closures"
