//! E1/E2 — regenerate the paper's Figure 9 (and, under a narrow-SIMD
//! build, Figure 10): CPU performance tables in Gop/s for AXPY, DOT, GEMV,
//! GEMM at 53/103/156/208-bit precision across libraries.
//!
//! Usage:
//! ```text
//!   cargo run --release -p mf-bench --bin tables -- \
//!       [--config wide|narrow] [--label <text>] [--out <json>] \
//!       [--manifest <json>] [--trace <json>] [--profile <folded>]
//! ```
//!
//! `--config` names the experiment configuration in the run manifest and
//! the default platform label: `wide` (E1, native SIMD — the default) or
//! `narrow` (E2, run under the narrowed-RUSTFLAGS build). It does not
//! change codegen by itself — the SIMD width is fixed at compile time by
//! RUSTFLAGS (see `scripts/run_experiments.sh`).
//!
//! Libraries reported (see DESIGN.md substitutions):
//!   MultiFloats      — this work (max over AoS / SoA / threaded variants)
//!   GMP/MPFR-class   — `mf-mpsoft` limb-based soft float (stands in for
//!                      GMP, MPFR, FLINT, Boost.Multiprecision)
//!   QD               — double-double / quad-double port (103/208-bit only)
//!   CAMPARY          — certified expansion port
//!   libquadmath      — not reproducible in stable Rust (T6): all N/A

use mf_baselines::campary::Expansion;
use mf_baselines::dd::DoubleDouble;
use mf_baselines::qd::QuadDouble;
use mf_bench::cli::{self, Flag};
use mf_bench::sweep::{bench_aos, bench_soa, max4, KERNELS};
use mf_bench::workloads::{rand_f64s, Sizes};
use mf_bench::{measure_kernel, render_table, sink, Cell, TableRun};
use mf_blas::{mp, parallel};
use mf_core::MultiFloat;
use mf_mpsoft::MpFloat;
use mf_telemetry::Section;

const BITS: [u32; 4] = [53, 103, 156, 208];
const OURS: &str = "MultiFloats (ours)";

const TOOL: cli::Tool = cli::Tool {
    name: "tables",
    flags: &[
        Flag::value("--config", "wide|narrow"),
        Flag::value("--label", "<text>"),
        Flag::value("--out", "<json>"),
    ],
    positional: None,
    manifest: Some("results/manifest_tables.json"),
    history: true,
};

static SEC_MULTIFLOATS: Section = Section::new("tables.multifloats");
static SEC_MPSOFT: Section = Section::new("tables.mpsoft");
static SEC_QD: Section = Section::new("tables.qd");
static SEC_CAMPARY: Section = Section::new("tables.campary");

/// Measure the limb-based MpFloat kernels at `prec` bits.
fn bench_mp(sizes: &Sizes, prec: u32, tag: &str) -> [f64; 4] {
    let mp = |seed: u64, n: usize| -> Vec<MpFloat> {
        rand_f64s(seed, n)
            .iter()
            .map(|&v| MpFloat::from_f64(v, prec))
            .collect()
    };
    let n = sizes.vec_len.min(2048); // MpFloat is slow; cap sizes
    let x = mp(1, n);
    let mut y = mp(2, n);
    let alpha = MpFloat::from_f64(1.000000321, prec);
    let beta = MpFloat::from_f64(0.999999712, prec);

    let axpy = measure_kernel(&format!("AXPY/{tag}"), n as f64, sizes.min_secs, || {
        mp::axpy(&alpha, &x, &mut y, prec);
        sink(y[0].to_f64());
    });
    let dot = measure_kernel(&format!("DOT/{tag}"), n as f64, sizes.min_secs, || {
        sink(mp::dot(&x, &y, prec).to_f64());
    });

    let gn = sizes.gemv_n.min(96);
    let a = mp(3, gn * gn);
    let xv = mp(4, gn);
    let mut yv = mp(5, gn);
    let gemv = measure_kernel(
        &format!("GEMV/{tag}"),
        (gn * gn) as f64,
        sizes.min_secs,
        || {
            mp::gemv(&alpha, &a, gn, gn, &xv, &beta, &mut yv, prec);
            sink(yv[0].to_f64());
        },
    );

    let mn = sizes.gemm_n.min(32);
    let am = mp(6, mn * mn);
    let bm = mp(7, mn * mn);
    let mut cmv: Vec<MpFloat> = (0..mn * mn).map(|_| MpFloat::zero(prec)).collect();
    let gemm = measure_kernel(
        &format!("GEMM/{tag}"),
        (mn * mn * mn) as f64,
        sizes.min_secs,
        || {
            mp::gemm(&alpha, &am, &bm, &mut cmv, mn, mn, mn, &beta, prec);
            sink(cmv[0].to_f64());
        },
    );

    [axpy.gops, dot.gops, gemv.gops, gemm.gops]
}

/// MultiFloats at `N` terms over f64: the better of AoS and SoA per kernel.
fn bench_mf<const N: usize>(sizes: &Sizes, bits: u32) -> [f64; 4] {
    max4(
        bench_aos::<MultiFloat<f64, N>>(sizes, 1, &format!("{bits}/mf/aos")),
        bench_soa::<f64, N>(sizes, &format!("{bits}/mf/soa")),
    )
}

/// Add one library's sweep at `bits` to the table and log it (`note`
/// qualifies the precision, e.g. ` (dd)`).
fn push(cells: &mut Vec<Cell>, lib: &str, bits: u32, note: &str, vals: [f64; 4]) {
    eprintln!("  {bits}-bit{note}: {vals:.3?}");
    for (k, &g) in KERNELS.iter().zip(&vals) {
        cells.push(Cell {
            kernel: (*k).into(),
            bits,
            library: lib.into(),
            gops: g,
        });
    }
}

fn main() {
    let (mut run, args) = cli::Run::start(&TOOL);
    let mut config = String::from("wide");
    let mut label: Option<String> = None;
    let mut out_path: Option<String> = None;
    for a in args {
        match a.flag {
            "--config" => {
                if a.value != "wide" && a.value != "narrow" {
                    run.usage_error(&format!(
                        "--config must be 'wide' or 'narrow', got '{}'",
                        a.value
                    ));
                }
                config = a.value;
            }
            "--label" => label = Some(a.value),
            "--out" => out_path = Some(a.value),
            _ => unreachable!("flag not declared in TOOL"),
        }
    }
    let label = label.unwrap_or_else(|| {
        format!(
            "{} ({}, {} threads)",
            std::env::var("MF_PLATFORM_LABEL").unwrap_or_else(|_| "x86-64 native".into()),
            config,
            parallel::default_threads()
        )
    });

    let sizes = Sizes::from_env();
    let threads = parallel::default_threads();
    let mut cells = Vec::new();

    eprintln!(
        "== MultiFloats (ours): max over AoS / SoA{} ==",
        if threads > 1 { " / threaded" } else { "" }
    );
    {
        let _g = SEC_MULTIFLOATS.start();
        // 53-bit: N = 1 (plain base type through the same kernels).
        let mut mf1 = bench_mf::<1>(&sizes, 53);
        if threads > 1 {
            let mt = bench_aos::<MultiFloat<f64, 1>>(&sizes, threads, "53/mf/aos-mt");
            mf1 = max4(mf1, mt);
        }
        push(&mut cells, OURS, 53, "", mf1);
        push(&mut cells, OURS, 103, "", bench_mf::<2>(&sizes, 103));
        push(&mut cells, OURS, 156, "", bench_mf::<3>(&sizes, 156));
        push(&mut cells, OURS, 208, "", bench_mf::<4>(&sizes, 208));
    }

    eprintln!("== GMP/MPFR-class (mf-mpsoft) ==");
    {
        let _g = SEC_MPSOFT.start();
        for &bits in &BITS {
            let v = bench_mp(&sizes, bits, &format!("{bits}/mpsoft"));
            push(&mut cells, "GMP/MPFR-class", bits, "", v);
        }
    }

    eprintln!("== QD ==");
    {
        let _g = SEC_QD.start();
        let qd2 = bench_aos::<DoubleDouble>(&sizes, 1, "103/qd");
        push(&mut cells, "QD", 103, " (dd)", qd2);
        let qd4 = bench_aos::<QuadDouble>(&sizes, 1, "208/qd");
        push(&mut cells, "QD", 208, " (qd)", qd4);
    }

    eprintln!("== CAMPARY (certified) ==");
    {
        let _g = SEC_CAMPARY.start();
        let c1 = bench_aos::<Expansion<1>>(&sizes, 1, "53/campary");
        push(&mut cells, "CAMPARY", 53, "", c1);
        let c2 = bench_aos::<Expansion<2>>(&sizes, 1, "103/campary");
        push(&mut cells, "CAMPARY", 103, "", c2);
        let c3 = bench_aos::<Expansion<3>>(&sizes, 1, "156/campary");
        push(&mut cells, "CAMPARY", 156, "", c3);
        let c4 = bench_aos::<Expansion<4>>(&sizes, 1, "208/campary");
        push(&mut cells, "CAMPARY", 208, "", c4);
    }

    let table = TableRun {
        platform: label,
        cells,
    };

    println!("\nPlatform: {}", table.platform);
    for k in KERNELS {
        println!("\n{k} Performance (Gop/s)");
        print!("{}", render_table(&table, k, &BITS));
    }
    println!("\n(libquadmath: N/A — no __float128 in stable Rust; see DESIGN.md T6)");

    if let Some(p) = out_path {
        run.write(&p, &table.to_json().render_pretty());
    }

    let manifest = run
        .manifest(&config, threads)
        .with_extra("table", table.to_json());
    run.finish(Some(manifest), &table.platform);
}
