//! Benchmark regression gate: compares fresh history records against a
//! committed baseline and exits nonzero on a confident regression.
//!
//! Usage:
//!   cargo run --release -p mf-bench --bin trend -- \
//!       [--history <jsonl>] [--baseline <jsonl>] [--parity] \
//!       [--threshold <frac>] [--min-samples <n>]
//!
//! Kernels are identified by name and build (feature set); default and
//! telemetry records never pool. `--parity` ignores the baseline and
//! judges the history's telemetry-build MultiFloat kernels against the
//! same kernels from its default build, within the newest revision.
//!
//! Exit codes: 0 = no regression, 1 = regression beyond threshold (with
//! `--parity`: telemetry build confidently slower), 2 = usage or data
//! error (missing/empty history or baseline, nothing to pair).
//!
//! The whole behavior lives in `mf_bench::trend::run` so the exit-code
//! contract is covered by unit tests.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(mf_bench::trend::run(&args));
}
