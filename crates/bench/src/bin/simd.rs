//! Explicit-SIMD ISA ablation (ISSUE 10; DESIGN.md "Explicit SIMD").
//!
//! Measures DOT over `MultiFloat<f64, 2>` through the SoA lock-step
//! dispatch at every ISA realization this host can run
//! (`mf_blas::simd::force`), and records per-ISA history kernels
//! (`DOT/16384/mf/simd-avx2`, `DOT/1024/mf/simd-scalar`, ...) for the
//! trend pipeline. `simd-scalar` disables the AVX2+FMA frames entirely
//! (soft-float `mul_add`), so the scalar rows double as the
//! no-explicit-SIMD baseline of the EXPERIMENTS ablation. AXPY runs one
//! element loop whatever the realization, so it has no per-ISA rows.
//!
//! After measuring, scalar (baseline) and avx2 (current) are compared
//! *in-process* with the same bootstrap machinery the `trend` gate uses:
//! an `improvement` verdict means the explicit AVX2 backend is confidently
//! faster at that size.
//!
//! `--dump <path>` skips measurement: it runs a fixed seeded workload
//! through the *env-selected* realization (`MF_SIMD`) across every
//! dispatched kernel shape (SoA dot/axpy/gemv/gemm/gemm-tiled, N ∈ {2,3,4},
//! odd tails included; the row engine through AoS `kernels::gemv` and
//! `mf_solve`'s extended residual; AoS `kernels::dot`/`axpy`/`gemm`;
//! `f32` SoA dot/axpy; adaptive dot/axpy over one clean and one escalating
//! chunk; `mf_solve`'s blocked `f64` LU at n = 97 and 256, one digest per
//! packed row plus the permutation; the pooled `parallel` kernels at 2 and
//! 3 threads, two-chunk `gemm_tiled` and adaptive dot/axpy/gemv at 2
//! threads) and writes the result bits as hex lines. Each adaptive call
//! also writes its full `AdaptiveReport` (chunks, escalated, n3, n4,
//! oracle, degraded), so the dump pins the rung every hostile chunk
//! settled on. The forced-ISA CI
//! matrix `cmp`s dumps across `MF_SIMD` values: any realization-dependent
//! bit is a hard diff, with the file as artifact.
//!
//! Usage:
//! ```text
//!   cargo run --release -p mf-bench --bin simd -- \
//!       [--dump <path>] [--manifest <json>] [--trace <json>] [--profile <folded>]
//! ```

use mf_bench::cli::{self, Flag};
use mf_bench::workloads::rand_f64s;
use mf_bench::{history, measure_kernel, sink, trend};
use mf_blas::adaptive::{
    axpy_adaptive, dot_adaptive, gemv_adaptive, AdaptiveReport, ADAPTIVE_CHUNK,
};
use mf_blas::simd::{self, Isa};
use mf_blas::soa::{self, SoaMatrix, SoaVec};
use mf_blas::{kernels, parallel, tile, Matrix};
use mf_core::adaptive::EscalationPolicy;
use mf_core::{F64x2, MultiFloat};
use mf_solve::refine::residual_extended;
use mf_solve::{lu_factor, MatrixF64};
use std::fmt::Write as _;

const TOOL: cli::Tool = cli::Tool {
    name: "simd",
    flags: &[Flag::value("--dump", "<path>")],
    positional: None,
    manifest: Some("results/manifest_simd.json"),
    history: true,
};
const SIZES: [usize; 2] = [1024, 16384];

fn soa_from_seed<const N: usize>(seed: u64, n: usize) -> SoaVec<f64, N> {
    let vals: Vec<MultiFloat<f64, N>> = rand_f64s(seed, n)
        .into_iter()
        .map(MultiFloat::from)
        .collect();
    SoaVec::from_slice(&vals)
}

/// Append one result expansion as a `name = hex...` line.
fn dump_mf<const N: usize>(out: &mut String, name: &str, v: MultiFloat<f64, N>) {
    write!(out, "{name} =").unwrap();
    for c in v.components() {
        write!(out, " {:016x}", c.to_bits()).unwrap();
    }
    out.push('\n');
}

/// Append one `f32` result expansion as a `name = hex...` line.
fn dump_mf32<const N: usize>(out: &mut String, name: &str, v: MultiFloat<f32, N>) {
    write!(out, "{name} =").unwrap();
    for c in v.components() {
        write!(out, " {:08x}", c.to_bits()).unwrap();
    }
    out.push('\n');
}

/// Append an adaptive call's full escalation tally as a `name = ...` line,
/// so the dump pins which rung every chunk settled on, not only the bits.
fn dump_report(out: &mut String, name: &str, r: &AdaptiveReport) {
    writeln!(
        out,
        "{name} = chunks {} escalated {} n3 {} n4 {} oracle {} degraded {}",
        r.chunks, r.escalated, r.n3, r.n4, r.oracle, r.degraded
    )
    .unwrap();
}

/// Deterministic bit-dump of every dispatched kernel shape under the
/// realization `MF_SIMD` selected for this process.
fn dump_bits(path: &str) {
    let mut out = String::new();
    writeln!(
        out,
        "# simd kernel bit dump (lane-structure fixed; ISA-independent by contract)"
    )
    .unwrap();

    fn dump_n<const N: usize>(out: &mut String) {
        // Odd length: full lane blocks plus a tail shorter than the width.
        let n = 4 * simd::LANES + 3;
        let x = soa_from_seed::<N>(11 + N as u64, n);
        let mut y = soa_from_seed::<N>(23 + N as u64, n);
        let alpha = MultiFloat::<f64, N>::from(1.0000004271);
        dump_mf(out, &format!("dot/n{N}"), soa::dot(&x, &y));
        soa::axpy(alpha, &x, &mut y);
        for i in [0usize, 1, n / 2, n - 2, n - 1] {
            dump_mf(out, &format!("axpy/n{N}/{i}"), y.get(i));
        }
    }
    dump_n::<2>(&mut out);
    dump_n::<3>(&mut out);
    dump_n::<4>(&mut out);

    /// AoS GEMV and the extended residual: both run on the row engine
    /// (one full group of eight rows plus a tail at 13 rows).
    fn dump_rows<const N: usize>(out: &mut String) {
        let (m, k) = (13usize, 9);
        let a = Matrix::from_fn(m, k, |i, j| {
            MultiFloat::<f64, N>::from(((i * k + j) as f64 + 0.25).sin())
                .mul(MultiFloat::from(1.0 + ((i + j) as f64).cos() * 1e-13))
        });
        let x: Vec<MultiFloat<f64, N>> =
            rand_f64s(41, k).into_iter().map(MultiFloat::from).collect();
        let y0: Vec<MultiFloat<f64, N>> =
            rand_f64s(43, m).into_iter().map(MultiFloat::from).collect();
        let alpha = MultiFloat::<f64, N>::from(0.75);
        for (tag, beta) in [
            ("beta0", MultiFloat::ZERO),
            ("beta", MultiFloat::from(-1.25)),
        ] {
            let mut y = y0.clone();
            kernels::gemv(alpha, &a, &x, beta, &mut y);
            for (i, &v) in y.iter().enumerate() {
                dump_mf(out, &format!("gemv-aos/n{N}/{tag}/{i}"), v);
            }
        }
        let af = MatrixF64::from_fn(m, k, |i, j| 1.0 / ((i + j + 1) as f64));
        let b = rand_f64s(47, m);
        let xf = rand_f64s(53, k);
        for (i, r) in residual_extended::<N>(&af, &b, &xf).into_iter().enumerate() {
            writeln!(out, "residual/n{N}/{i} = {:016x}", r.to_bits()).unwrap();
        }
    }
    dump_rows::<2>(&mut out);
    dump_rows::<3>(&mut out);
    dump_rows::<4>(&mut out);

    // Matrix shapes with non-multiple-of-lane dims.
    let (m, k, p) = (9usize, 13, 7);
    let a = SoaMatrix::<f64, 2>::from_fn(m, k, |i, j| F64x2::from(((i * k + j) as f64).sin()));
    let b =
        SoaMatrix::<f64, 2>::from_fn(k, p, |i, j| F64x2::from(((i * p + j) as f64 + 0.5).cos()));
    let alpha = F64x2::from(0.75);
    let beta = F64x2::from(-1.25);
    let xv = soa_from_seed::<2>(31, k);
    let mut yv = soa_from_seed::<2>(37, m);
    soa::gemv(alpha, &a, &xv, beta, &mut yv);
    for i in 0..m {
        dump_mf(&mut out, &format!("gemv/{i}"), yv.get(i));
    }
    let c0 = SoaMatrix::<f64, 2>::from_fn(m, p, |i, j| F64x2::from((i + 2 * j) as f64 * 0.125));
    let mut c = c0.clone();
    soa::gemm(alpha, &a, &b, beta, &mut c);
    let mut ct = c0.clone();
    tile::gemm_tiled(alpha, &a, &b, beta, &mut ct, 1);
    for i in 0..m {
        for j in 0..p {
            dump_mf(&mut out, &format!("gemm/{i}/{j}"), c.get(i, j));
            dump_mf(&mut out, &format!("gemm-tiled/{i}/{j}"), ct.get(i, j));
        }
    }

    // AoS flat kernels at N = 2..4 (odd lengths, GEMM with beta != 0).
    fn dump_aos<const N: usize>(out: &mut String) {
        let n = 4 * simd::LANES + 3;
        let mf = |seed: u64, n: usize| -> Vec<MultiFloat<f64, N>> {
            rand_f64s(seed, n)
                .into_iter()
                .map(|v| MultiFloat::from(v).mul(MultiFloat::from(1.0 + v * 1e-12)))
                .collect()
        };
        let (x, mut y) = (mf(61 + N as u64, n), mf(67 + N as u64, n));
        dump_mf(out, &format!("dot-aos/n{N}"), kernels::dot(&x, &y));
        kernels::axpy(MultiFloat::from(-0.6180339887), &x, &mut y);
        for i in [0usize, 1, n / 2, n - 2, n - 1] {
            dump_mf(out, &format!("axpy-aos/n{N}/{i}"), y[i]);
        }
        let (m, k, p) = (5usize, 7, 6);
        let a = Matrix::from_fn(m, k, |i, j| mf(71 + (i * k + j) as u64, 1)[0]);
        let b = Matrix::from_fn(k, p, |i, j| mf(73 + (i * p + j) as u64, 1)[0]);
        let mut c = Matrix::from_fn(m, p, |i, j| MultiFloat::from((i + 3 * j) as f64 * 0.375));
        kernels::gemm(
            MultiFloat::from(1.25),
            &a,
            &b,
            MultiFloat::from(-0.5),
            &mut c,
        );
        for (e, &v) in c.data.iter().enumerate() {
            dump_mf(out, &format!("gemm-aos/n{N}/{e}"), v);
        }
    }
    dump_aos::<2>(&mut out);
    dump_aos::<3>(&mut out);
    dump_aos::<4>(&mut out);

    // Pooled AoS kernels at 2 and 3 threads: chunked DOT/AXPY/GEMV/GEMM
    // through the pool executor (row/element chunks of unequal length).
    fn dump_par<const N: usize>(out: &mut String) {
        let n = 4 * simd::LANES + 3;
        let mf = |seed: u64, n: usize| -> Vec<MultiFloat<f64, N>> {
            rand_f64s(seed, n)
                .into_iter()
                .map(|v| MultiFloat::from(v).mul(MultiFloat::from(1.0 - v * 1e-12)))
                .collect()
        };
        let (x, y0) = (mf(101 + N as u64, n), mf(103 + N as u64, n));
        let (m, k, p) = (7usize, 9, 5);
        let a = Matrix::from_fn(m, k, |i, j| mf(107 + (i * k + j) as u64, 1)[0]);
        let b = Matrix::from_fn(k, p, |i, j| mf(109 + (i * p + j) as u64, 1)[0]);
        let xv = mf(113, k);
        let yv0 = mf(127, m);
        let c0 = Matrix::from_fn(m, p, |i, j| MultiFloat::from((2 * i + j) as f64 * 0.625));
        let (alpha, beta) = (MultiFloat::from(-1.375), MultiFloat::from(0.5));
        for t in [2usize, 3] {
            dump_mf(out, &format!("dot-par{t}/n{N}"), parallel::dot(&x, &y0, t));
            let mut y = y0.clone();
            parallel::axpy(alpha, &x, &mut y, t);
            for i in [0usize, 1, n / 2, n - 2, n - 1] {
                dump_mf(out, &format!("axpy-par{t}/n{N}/{i}"), y[i]);
            }
            let mut yv = yv0.clone();
            parallel::gemv(alpha, &a, &xv, beta, &mut yv, t);
            for (i, &v) in yv.iter().enumerate() {
                dump_mf(out, &format!("gemv-par{t}/n{N}/{i}"), v);
            }
            let mut c = c0.clone();
            parallel::gemm(alpha, &a, &b, beta, &mut c, t);
            for (e, &v) in c.data.iter().enumerate() {
                dump_mf(out, &format!("gemm-par{t}/n{N}/{e}"), v);
            }
        }
    }
    dump_par::<2>(&mut out);
    dump_par::<3>(&mut out);
    dump_par::<4>(&mut out);

    // Pooled tiled GEMM: two row chunks on two threads.
    let (m, k, p) = (37usize, 11usize, 6usize);
    let a = SoaMatrix::<f64, 2>::from_fn(m, k, |i, j| F64x2::from(((i * k + j) as f64).cos()));
    let b = SoaMatrix::<f64, 2>::from_fn(k, p, |i, j| F64x2::from(((i * p + j) as f64).sin()));
    let mut ct = SoaMatrix::<f64, 2>::from_fn(m, p, |i, j| F64x2::from((i + j) as f64 * 0.25));
    tile::gemm_tiled(alpha, &a, &b, beta, &mut ct, 2);
    for i in 0..m {
        for j in 0..p {
            dump_mf(&mut out, &format!("gemm-tiled-par2/{i}/{j}"), ct.get(i, j));
        }
    }

    // Adaptive DOT/AXPY over two chunks: the first clean (base pass only),
    // the second with a transient overflow that escalates up the ladder.
    let n = 2 * ADAPTIVE_CHUNK;
    let policy = EscalationPolicy::default();
    let ax: Vec<F64x2> = rand_f64s(79, n).into_iter().map(F64x2::from).collect();
    let ay: Vec<F64x2> = rand_f64s(83, n).into_iter().map(F64x2::from).collect();
    let big = 2.0f64.powi(512);
    let (mut hx, mut hy) = (ax.clone(), ay.clone());
    let h = ADAPTIVE_CHUNK + 5;
    for (d, xv) in [big, big, -1.5 * big].into_iter().enumerate() {
        hx[h + d] = F64x2::from(xv);
        hy[h + d] = F64x2::from(big / 2.0);
    }
    let (d, rep) = dot_adaptive(&hx, &hy, &policy, 1);
    dump_mf(&mut out, "dot-adaptive", d);
    dump_report(&mut out, "dot-adaptive/report", &rep);
    let mut hy = ay.clone();
    hy[h] = F64x2::from(-(2.0f64.powi(1023)));
    let mut hx = ax.clone();
    hx[h] = F64x2::from(big);
    let rep = axpy_adaptive(F64x2::from(big), &hx, &mut hy, &policy, 1);
    dump_report(&mut out, "axpy-adaptive/report", &rep);
    for i in [0usize, 1, h - 1, h, h + 1, n - 1] {
        dump_mf(&mut out, &format!("axpy-adaptive/{i}"), hy[i]);
    }

    // The same adaptive calls pooled on two threads, plus a GEMV whose
    // second row carries the escalating pattern.
    let (mut hx, mut hy) = (ax.clone(), ay.clone());
    for (d, xv) in [big, big, -1.5 * big].into_iter().enumerate() {
        hx[h + d] = F64x2::from(xv);
        hy[h + d] = F64x2::from(big / 2.0);
    }
    let (d, rep) = dot_adaptive(&hx, &hy, &policy, 2);
    dump_mf(&mut out, "dot-adaptive-par2", d);
    dump_report(&mut out, "dot-adaptive-par2/report", &rep);
    let ga = Matrix::from_fn(5, n, |i, j| if i == 1 { hx[j] } else { ax[j] });
    let (gy, rep) = gemv_adaptive(&ga, &hy, &policy, 2);
    dump_report(&mut out, "gemv-adaptive-par2/report", &rep);
    for (i, &v) in gy.iter().enumerate() {
        dump_mf(&mut out, &format!("gemv-adaptive-par2/{i}"), v);
    }
    let mut hy = ay.clone();
    hy[h] = F64x2::from(-(2.0f64.powi(1023)));
    let mut hx = ax.clone();
    hx[h] = F64x2::from(big);
    let rep = axpy_adaptive(F64x2::from(big), &hx, &mut hy, &policy, 2);
    dump_report(&mut out, "axpy-adaptive-par2/report", &rep);
    for i in [0usize, 1, h - 1, h, h + 1, n - 1] {
        dump_mf(&mut out, &format!("axpy-adaptive-par2/{i}"), hy[i]);
    }

    // f32 SoA DOT/AXPY: the portable lanes and the element loop over f32.
    fn dump_f32<const N: usize>(out: &mut String) {
        let n = 4 * simd::LANES + 3;
        let sv = |seed: u64| -> SoaVec<f32, N> {
            let v: Vec<MultiFloat<f32, N>> = rand_f64s(seed, n)
                .into_iter()
                .map(|v| MultiFloat::from(v as f32).mul(MultiFloat::from(1.0 + v as f32 * 1e-5)))
                .collect();
            SoaVec::from_slice(&v)
        };
        let (x, mut y) = (sv(89 + N as u64), sv(97 + N as u64));
        dump_mf32(out, &format!("dot-f32/n{N}"), soa::dot(&x, &y));
        soa::axpy(MultiFloat::from(0.4142135f32), &x, &mut y);
        for i in [0usize, 1, n / 2, n - 2, n - 1] {
            dump_mf32(out, &format!("axpy-f32/n{N}/{i}"), y.get(i));
        }
    }
    dump_f32::<2>(&mut out);
    dump_f32::<3>(&mut out);
    dump_f32::<4>(&mut out);

    // The blocked f64 LU in mf-solve's frame: one FNV-1a digest of each
    // packed row's bits plus the permutation, at a size with ragged panel
    // and tile edges and at the refinement benchmark's largest size.
    for (n, seed) in [(97usize, 131u64), (256, 137)] {
        let a = MatrixF64 {
            rows: n,
            cols: n,
            data: rand_f64s(seed, n * n),
        };
        let f = lu_factor(&a).expect("seeded random matrix is nonsingular");
        for i in 0..n {
            let h = f.lu.row(i).iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
                (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
            });
            writeln!(out, "lu/{n}/row/{i} = {h:016x}").unwrap();
        }
        let perm: Vec<String> = f.perm.iter().map(|p| p.to_string()).collect();
        writeln!(out, "lu/{n}/perm = {}", perm.join(" ")).unwrap();
    }

    if let Some(dir) = std::path::Path::new(path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(path, &out).unwrap_or_else(|e| {
        eprintln!("simd: cannot write dump {path}: {e}");
        std::process::exit(1);
    });
    eprintln!("simd: wrote bit dump for isa {} to {path}", simd::active());
}

fn main() {
    let (run, args) = cli::Run::start(&TOOL);
    // `--dump` (the only own flag; the last one wins) measures nothing and
    // writes no manifest or history: CI compares its output across
    // `MF_SIMD` values.
    if let Some(dump) = args.last() {
        return dump_bits(&dump.value);
    }

    let min_secs = mf_bench::min_secs();
    let isas: Vec<Isa> = Isa::ALL.iter().copied().filter(|i| i.supported()).collect();

    let mut scalar = Vec::new();
    let mut avx2 = Vec::new();

    for &n in &SIZES {
        let x = soa_from_seed::<2>(1, n);
        let y0 = soa_from_seed::<2>(2, n);

        for &isa in &isas {
            simd::force(isa);
            let mode = format!("simd-{isa}");
            let m = measure_kernel(&format!("DOT/{n}/mf/{mode}"), n as f64, min_secs, || {
                sink(soa::dot(&x, &y0));
            });
            eprintln!("DOT  n={n:>5} {mode:<12} {:>9.4} Gop/s", m.gops);
            match isa {
                Isa::Scalar => scalar.push((format!("DOT/{n}"), m)),
                Isa::Avx2 => avx2.push((format!("DOT/{n}"), m)),
                _ => {}
            }
        }
    }
    if !avx2.is_empty() {
        let trends = trend::compare(("simd-scalar", &scalar), ("simd-avx2", &avx2));
        println!("\nExplicit AVX2 vs scalar lockstep (positive change = avx2 faster)");
        print!("{}", trend::render_table(&trends));
    } else {
        println!("\n(avx2 not supported on this host; no in-process ablation verdicts)");
    }

    let platform = {
        let label = history::platform_label();
        if label.is_empty() {
            "simd".to_string()
        } else {
            label
        }
    };
    let manifest = run.manifest("default", 1);
    run.finish(Some(manifest), &platform);
}
