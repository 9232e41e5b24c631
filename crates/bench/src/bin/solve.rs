//! Tiled-vs-flat GEMM ablation, `f64` LU and mixed-precision
//! iterative-refinement benchmarks (DESIGN.md §10).
//!
//! Three workloads:
//!
//! 1. `MultiFloat<f64, 2>` GEMM at n ∈ {64, 256}: the flat row-parallel
//!    AoS path (`parallel::gemm`) against the pooled SoA row-block path
//!    (`tile::gemm_tiled`). History kernels `GEMM/<n>/mf/flat` and
//!    `GEMM/<n>/mf/tile` feed the trend gate; the two variants are also
//!    compared *in-process* with the bootstrap machinery (flat as
//!    baseline, tile as current — an `improvement` verdict means the SoA
//!    path is confidently faster at that size).
//! 2. The blocked `f64` LU (`mf_solve::lu_factor`) at n ∈ {192, 256}, the
//!    refinement benchmark's size range (`LU/<n>/f64`): the O(n³) layer
//!    under every refinement solve.
//! 3. Mixed-precision iterative refinement on the n = 64 Hilbert system:
//!    fixed-step `mf_solve::refine_with_factors` with residuals pinned to
//!    the `X2` and `X4` rungs (`IR/hilbert64/x2`, `IR/hilbert64/x4`) — the O(n²)
//!    extended-precision residual sweep is the part the paper's kernels
//!    accelerate, so its cost per step is what the history tracks.
//!
//! Usage:
//! ```text
//!   cargo run --release -p mf-bench --bin solve -- \
//!       [--threads <n>] [--manifest <json>] [--trace <json>] [--profile <folded>]
//! ```

use mf_bench::cli::{self, Flag};
use mf_bench::workloads::rand_f64s;
use mf_bench::{history, measure_kernel, sink, trend};
use mf_blas::soa::SoaMatrix;
use mf_blas::{parallel, tile, Matrix};
use mf_core::F64x2;
use mf_solve::{hilbert, lu_factor, refine_with_factors, MatrixF64, RefineOptions, ResidualRung};

const TOOL: cli::Tool = cli::Tool {
    name: "solve",
    flags: &[Flag::value("--threads", "<n>")],
    positional: None,
    manifest: Some("results/manifest_solve.json"),
    history: true,
};
const GEMM_SIZES: [usize; 2] = [64, 256];
const LU_SIZES: [usize; 2] = [192, 256];
const IR_N: usize = 64;
/// Fixed refinement steps per timed call (tol 0 disables the convergence
/// early-out so every iteration does identical work).
const IR_STEPS: usize = 2;

fn main() {
    let (run, args) = cli::Run::start(&TOOL);
    let mut threads = parallel::default_threads().max(2);
    for a in args {
        match a.flag {
            "--threads" => threads = run.count(&a),
            _ => unreachable!("flag not declared in TOOL"),
        }
    }

    if std::env::var("MF_BLAS_THREADS").is_err() {
        std::env::set_var("MF_BLAS_THREADS", threads.to_string());
    }
    let min_secs = mf_bench::min_secs();

    let mut flat = Vec::new();
    let mut tiled = Vec::new();

    for &n in &GEMM_SIZES {
        let ops = (n * n * n) as f64; // paper convention: one mf-op per MAC
        let alpha = F64x2::from(1.000000321);
        let beta = F64x2::from(0.999999712);
        let va = rand_f64s(11, n * n);
        let vb = rand_f64s(12, n * n);

        // Flat: row-parallel AoS GEMM.
        let a = Matrix {
            rows: n,
            cols: n,
            data: va.iter().map(|&v| F64x2::from(v)).collect(),
        };
        let b = Matrix {
            rows: n,
            cols: n,
            data: vb.iter().map(|&v| F64x2::from(v)).collect(),
        };
        let mut c = Matrix {
            rows: n,
            cols: n,
            data: vec![F64x2::ZERO; n * n],
        };
        let m = measure_kernel(&format!("GEMM/{n}/mf/flat"), ops, min_secs, || {
            parallel::gemm(alpha, &a, &b, beta, &mut c, threads);
            sink(c.data[0]);
        });
        eprintln!("GEMM n={n:>4} flat {:>9.4} Gop/s", m.gops);
        flat.push((format!("GEMM/{n}"), m));

        // Tiled: pooled SoA row-block GEMM.
        let sa = SoaMatrix::<f64, 2>::from_fn(n, n, |i, j| F64x2::from(va[i * n + j]));
        let sb = SoaMatrix::<f64, 2>::from_fn(n, n, |i, j| F64x2::from(vb[i * n + j]));
        let mut sc = SoaMatrix::<f64, 2>::zeros(n, n);
        let m = measure_kernel(&format!("GEMM/{n}/mf/tile"), ops, min_secs, || {
            tile::gemm_tiled(alpha, &sa, &sb, beta, &mut sc, threads);
            sink(sc.comps[0][0]);
        });
        eprintln!("GEMM n={n:>4} tile {:>9.4} Gop/s", m.gops);
        tiled.push((format!("GEMM/{n}"), m));
    }

    // The f64 LU that every refinement solve starts with, at the
    // refinement benchmark's smallest and largest sizes (seeded random
    // systems). One op is one multiply-subtract: n³/3 per factorization.
    for n in LU_SIZES {
        let a = MatrixF64 {
            rows: n,
            cols: n,
            data: rand_f64s(17 + n as u64, n * n),
        };
        let ops = (n * n * n) as f64 / 3.0;
        let m = measure_kernel(&format!("LU/{n}/f64"), ops, min_secs, || {
            sink(lu_factor(&a).expect("seeded random matrix is nonsingular"));
        });
        eprintln!("LU   n={n:>4} f64  {:>9.4} Gop/s", m.gops);
    }

    // Mixed-precision refinement: factor once, time the fixed-step
    // refinement loop (IR_STEPS corrections + the final residual, each an
    // O(n²) extended-precision sweep).
    let h = hilbert(IR_N);
    let factors = lu_factor(&h).expect("Hilbert matrix is nonsingular in f64");
    let bvec = rand_f64s(13, IR_N);
    let opts = RefineOptions {
        max_iters: IR_STEPS,
        tol_factor: 0.0,
    };
    let ir_ops = ((IR_STEPS + 1) * IR_N * IR_N) as f64;
    for (label, rung) in [("x2", ResidualRung::X2), ("x4", ResidualRung::X4)] {
        let name = format!("IR/hilbert{IR_N}/{label}");
        let m = measure_kernel(&name, ir_ops, min_secs, || {
            sink(
                refine_with_factors(&h, &factors, &bvec, opts, rung)
                    .unwrap()
                    .x[0],
            );
        });
        eprintln!("IR   n={IR_N:>4} {label:<4} {:>9.4} Gop/s", m.gops);
    }

    // In-process ablation verdicts: flat is the baseline, tile the current
    // side, so `improvement` == tiling confidently faster.
    let trends = trend::compare(("flat", &flat), ("tile", &tiled));
    println!("\nTiled vs flat GEMM ({threads} threads; positive change = tiled faster)");
    print!("{}", trend::render_table(&trends));

    let platform = {
        let label = history::platform_label();
        if label.is_empty() {
            format!("solve ({threads} threads)")
        } else {
            format!("{label} ({threads} threads)")
        }
    };
    let manifest = run.manifest("default", threads);
    run.finish(Some(manifest), &platform);
}
