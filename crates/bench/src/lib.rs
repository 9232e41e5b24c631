//! `mf-bench`: the harness that regenerates every table and figure in the
//! paper's evaluation (DESIGN.md §2, experiments E1–E10).
//!
//! Binaries:
//!
//! * `tables` — Figures 9/10: the CPU performance tables (Gop/s per
//!   kernel × precision × library). Run with `--config wide` (native SIMD,
//!   E1) or `--config narrow` under a narrowed `RUSTFLAGS` build for the M3
//!   substitution (E2, see `scripts/run_experiments.sh`). Emits both
//!   human-readable tables and JSON for the `summary` binary.
//! * `summary` — Figure 8: ratio of MultiFloats' peak over the next-best
//!   library, computed from `tables` JSON output.
//! * `gpu_sim` — Figure 11: the `T = float` configuration (f32-base
//!   expansions, SoA lanes) standing in for the RDNA3 GPU (T3).
//! * `verify_networks` — Figures 2–7 captions: empirical error bounds and
//!   nonoverlap verification for the shipped networks (E5/E6).
//! * `simd` — per-ISA DOT throughput of the SoA lock-step kernels, and
//!   (`--dump`) the forced-ISA bit dump CI compares across `MF_SIMD`.
//! * `solve` — flat vs tiled GEMM and mixed-precision iterative refinement.
//! * `adaptive` — clean-input overhead and escalation cost of the adaptive
//!   ladder.
//! * `conformance` — the differential conformance sweep against the
//!   `MpFloat` oracle and the baselines.
//! * `faultsim` — fault injection into the FPAN executors and the guard
//!   overhead ablation (`--adaptive`: the detect-escalate-recover loop).
//! * `soak` — numerical-health soak under shadow audit and alert rules.
//! * `report` — merge the telemetry run manifests under `results/` into a
//!   single digest (see `mf_telemetry::manifest`).
//! * `trend` — the regression and telemetry-parity gate over the bench
//!   history ([`trend`]).
//! * `mfstat` — a `top`-style live view of a process's metrics endpoint.
//!
//! The first eleven share one run harness ([`cli::Run`]): one flag parser
//! with `--trace <json>` and `--profile <folded>` (and `MF_TRACE` /
//! `MF_PROFILE`) everywhere, and one finish. Those that write a
//! `mf-telemetry` run manifest (all but `summary` and `report`) write it
//! to `results/manifest_<tool>.json` by default, `--manifest <path>` to
//! override: platform and RUSTFLAGS, wall time, per-section timings, and —
//! when built with `--features telemetry` — the full counter/histogram
//! snapshot from the instrumented crates.
//!
//! Criterion benches (`cargo bench -p mf-bench`): per-operation latency
//! (`ops`), kernel throughput (`blas`), the design-choice ablations and the
//! telemetry-overhead ablation (`ablation`).

use mf_telemetry::json::Json;
use std::hint::black_box;
use std::time::Instant;

pub mod cli;
pub mod digest;
pub mod history;
pub mod promtext;
pub mod sweep;
pub mod trend;
pub mod workloads;

pub use mf_telemetry::manifest::RunManifest;

/// One measured cell of a performance table.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    pub kernel: String,
    pub bits: u32,
    pub library: String,
    /// Billions of extended-precision operations per second
    /// (1 op = 1 mul + 1 add, the paper's convention).
    pub gops: f64,
}

/// A full run of the `tables` binary.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRun {
    /// Free-form platform label (e.g. "x86-64 native SIMD (Zen5 substitute)").
    pub platform: String,
    pub cells: Vec<Cell>,
}

impl TableRun {
    pub fn lookup(&self, kernel: &str, bits: u32, library: &str) -> Option<f64> {
        self.cells
            .iter()
            .find(|c| c.kernel == kernel && c.bits == bits && c.library == library)
            .map(|c| c.gops)
    }

    pub fn libraries(&self) -> Vec<String> {
        let mut libs: Vec<String> = Vec::new();
        for c in &self.cells {
            if !libs.contains(&c.library) {
                libs.push(c.library.clone());
            }
        }
        libs
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("platform".into(), Json::str(&self.platform)),
            (
                "cells".into(),
                Json::Arr(
                    self.cells
                        .iter()
                        .map(|c| {
                            Json::Obj(vec![
                                ("kernel".into(), Json::str(&c.kernel)),
                                ("bits".into(), Json::u64(c.bits as u64)),
                                ("library".into(), Json::str(&c.library)),
                                ("gops".into(), Json::Num(c.gops)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(j: &Json) -> Option<Self> {
        Some(TableRun {
            platform: j.get("platform")?.as_str()?.to_string(),
            cells: j
                .get("cells")?
                .as_arr()?
                .iter()
                .filter_map(|c| {
                    Some(Cell {
                        kernel: c.get("kernel")?.as_str()?.to_string(),
                        bits: c.get("bits")?.as_u64()? as u32,
                        library: c.get("library")?.as_str()?.to_string(),
                        gops: c.get("gops")?.as_f64()?,
                    })
                })
                .collect(),
        })
    }
}

/// Full statistics from one throughput measurement (see
/// [`measure_kernel`]).
#[derive(Debug, Clone, PartialEq)]
pub struct GopsMeasurement {
    /// Billions of extended operations per second.
    pub gops: f64,
    /// Timed iterations (after the warmup call).
    pub iters: u64,
    /// Total measured wall time in seconds.
    pub secs: f64,
    /// Mean per-iteration time in nanoseconds.
    pub mean_iter_ns: f64,
    /// Per-iteration standard deviation in nanoseconds.
    pub stddev_iter_ns: f64,
    /// `stddev / mean` — the run-to-run noise figure the manifest records.
    pub rel_stddev: f64,
    /// Extended operations per call of the measured closure.
    pub ops_per_iter: f64,
    /// Per-iteration wall times in ns, downsampled to at most
    /// [`MAX_ITER_SAMPLES`] evenly strided samples. The trend pipeline
    /// bootstraps confidence intervals from these (one Gop/s sample per
    /// iteration is `ops_per_iter / iter_ns`).
    pub iter_ns: Vec<f64>,
}

/// Cap on per-iteration samples retained in a [`GopsMeasurement`] (a
/// nanosecond-scale closure measured for 0.2 s would otherwise retain
/// millions).
pub const MAX_ITER_SAMPLES: usize = 512;

/// Evenly strided downsample to at most `cap` entries.
pub(crate) fn downsample(samples: &[f64], cap: usize) -> Vec<f64> {
    if samples.len() <= cap {
        return samples.to_vec();
    }
    let stride = samples.len().div_ceil(cap);
    samples.iter().step_by(stride).copied().collect()
}

/// Measure the throughput of `f`, which performs `ops_per_iter` extended
/// operations per call, capturing per-iteration variance. Runs at least
/// `min_secs` and at least 3 iterations after one warmup call. Emits a
/// `bench.measure` telemetry event with the iteration count and noise
/// figure (no-op unless the `telemetry` feature is on).
fn measure_gops_detailed<F: FnMut()>(
    ops_per_iter: f64,
    min_secs: f64,
    mut f: F,
) -> GopsMeasurement {
    // One span per measurement loop: on the trace timeline the benchmark
    // shows as back-to-back `bench.measure` blocks with the instrumented
    // kernels' spans nested inside.
    let _sp = mf_telemetry::trace::span("bench.measure", ops_per_iter as u64);
    f(); // warmup
    let mut iter_ns: Vec<f64> = Vec::with_capacity(64);
    let start = Instant::now();
    loop {
        let t0 = Instant::now();
        f();
        iter_ns.push(t0.elapsed().as_nanos() as f64);
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= min_secs && iter_ns.len() >= 3 {
            let iters = iter_ns.len() as u64;
            let mean = iter_ns.iter().sum::<f64>() / iters as f64;
            let var = iter_ns
                .iter()
                .map(|&t| (t - mean) * (t - mean))
                .sum::<f64>()
                / iters as f64;
            let stddev = var.sqrt();
            let m = GopsMeasurement {
                gops: ops_per_iter * iters as f64 / elapsed / 1e9,
                iters,
                secs: elapsed,
                mean_iter_ns: mean,
                stddev_iter_ns: stddev,
                rel_stddev: if mean > 0.0 { stddev / mean } else { 0.0 },
                ops_per_iter,
                iter_ns: downsample(&iter_ns, MAX_ITER_SAMPLES),
            };
            mf_telemetry::event(
                "bench.measure",
                &[
                    ("gops", m.gops),
                    ("iters", m.iters as f64),
                    ("rel_stddev", m.rel_stddev),
                ],
            );
            return m;
        }
    }
}

/// Measure *and record*: the throughput of `f` (see
/// `measure_gops_detailed`), plus a per-kernel entry named `name` in the
/// in-process history collector that
/// [`history::append_run`] flushes to `results/history/bench_history.jsonl`
/// at the end of the run.
pub fn measure_kernel<F: FnMut()>(
    name: &str,
    ops_per_iter: f64,
    min_secs: f64,
    f: F,
) -> GopsMeasurement {
    let m = measure_gops_detailed(ops_per_iter, min_secs, f);
    history::record_measurement(name, &m);
    m
}

/// Minimum measuring time per kernel for the binaries that do not size
/// their workloads by [`workloads::Sizes`] (`adaptive`, `simd`, `solve`).
pub fn min_secs() -> f64 {
    if quick_mode() {
        0.02
    } else {
        0.2
    }
}

/// Prevent the optimizer from discarding a computed value.
#[inline(always)]
pub fn sink<T>(v: T) -> T {
    black_box(v)
}

/// Render a paper-style table: rows = libraries, columns = precisions.
pub fn render_table(run: &TableRun, kernel: &str, bits: &[u32]) -> String {
    let mut out = String::new();
    let libs = run.libraries();
    out.push_str(&format!("{:<24}", "Library"));
    for &b in bits {
        out.push_str(&format!("{:>10}", format!("{b}-bit")));
    }
    out.push('\n');
    out.push_str(&"-".repeat(24 + 10 * bits.len()));
    out.push('\n');
    for lib in &libs {
        out.push_str(&format!("{lib:<24}"));
        for &b in bits {
            match run.lookup(kernel, b, lib) {
                Some(g) => out.push_str(&format!("{g:>10.3}")),
                None => out.push_str(&format!("{:>10}", "N/A")),
            }
        }
        out.push('\n');
    }
    out
}

/// Quick-mode scaling for CI/tests: shrink sizes and times via
/// `MF_BENCH_QUICK=1`.
pub fn quick_mode() -> bool {
    std::env::var("MF_BENCH_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_sane_rates() {
        // A no-op closure claiming 1000 ops per call: the rate must be
        // positive and finite, and the statistics self-consistent.
        let mut x = 0u64;
        let m = measure_gops_detailed(1000.0, 0.01, || {
            x = sink(x.wrapping_add(1));
        });
        assert!(m.gops.is_finite() && m.gops > 0.0);
        assert!(m.iters >= 3);
        assert!(m.secs >= 0.01);
        assert!(m.mean_iter_ns >= 0.0 && m.stddev_iter_ns >= 0.0);
        assert!(m.rel_stddev >= 0.0);
    }

    #[test]
    fn table_lookup_and_render() {
        let run = TableRun {
            platform: "test".into(),
            cells: vec![
                Cell {
                    kernel: "AXPY".into(),
                    bits: 103,
                    library: "MultiFloats".into(),
                    gops: 1.5,
                },
                Cell {
                    kernel: "AXPY".into(),
                    bits: 208,
                    library: "MultiFloats".into(),
                    gops: 0.5,
                },
                Cell {
                    kernel: "AXPY".into(),
                    bits: 103,
                    library: "QD".into(),
                    gops: 1.0,
                },
            ],
        };
        assert_eq!(run.lookup("AXPY", 103, "QD"), Some(1.0));
        assert_eq!(run.lookup("AXPY", 208, "QD"), None);
        let s = render_table(&run, "AXPY", &[103, 208]);
        assert!(s.contains("MultiFloats"));
        assert!(s.contains("N/A"));
        // Round-trips through JSON (both renderings).
        for text in [run.to_json().render(), run.to_json().render_pretty()] {
            let back = TableRun::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, run);
        }
    }
}
