//! E4 — regenerate the paper's Figure 11: extended-precision kernels with
//! `T = float` (the RDNA3 GPU configuration; that architecture has no
//! double-precision units, so the paper runs `MultiFloat<float, N>`).
//!
//! Substitution (DESIGN.md T3): no GPU is available here, so the same
//! branch-free data-parallel code path is exercised as f32 SIMD lanes on
//! the CPU — the algorithm and datatype are identical to the paper's GPU
//! kernels; one AVX-512 register holds 16 f32 lanes executing in lock-step
//! like a wavefront slice. Absolute Gop/s differ from an RX 7900 XTX by
//! orders of magnitude; the reproduced *shape* is the 1→4-term scaling of
//! each kernel.
//!
//! Usage:
//! ```text
//!   cargo run --release -p mf-bench --bin gpu_sim -- \
//!       [--out <json>] [--manifest <json>] [--trace <json>] [--profile <folded>]
//! ```

use mf_bench::cli::{self, Flag};
use mf_bench::sweep::{bench_aos, bench_soa, max4, KERNELS};
use mf_bench::workloads::Sizes;
use mf_bench::{Cell, TableRun};
use mf_core::MultiFloat;
use mf_telemetry::Section;

const TOOL: cli::Tool = cli::Tool {
    name: "gpu_sim",
    flags: &[Flag::value("--out", "<json>")],
    positional: None,
    manifest: Some("results/manifest_gpu_sim.json"),
    history: true,
};

static SEC_TERMS: [Section; 4] = [
    Section::new("gpu_sim.terms_1"),
    Section::new("gpu_sim.terms_2"),
    Section::new("gpu_sim.terms_3"),
    Section::new("gpu_sim.terms_4"),
];

/// The four kernels over `MultiFloat<f32, N>`: SoA (lane-parallel, the
/// GPU-like layout) and AoS, reporting the faster layout per kernel like
/// the CPU tables do (AoS can win on tiny sizes).
fn bench_f32_terms<const N: usize>(sizes: &Sizes, tag: &str) -> [f64; 4] {
    max4(
        bench_soa::<f32, N>(sizes, &format!("{tag}/soa")),
        bench_aos::<MultiFloat<f32, N>>(sizes, 1, &format!("{tag}/aos")),
    )
}

fn main() {
    let (mut run, args) = cli::Run::start(&TOOL);
    let mut out_path: Option<String> = None;
    for a in args {
        match a.flag {
            "--out" => out_path = Some(a.value),
            _ => unreachable!("flag not declared in TOOL"),
        }
    }

    let sizes = Sizes::from_env();
    let mut cells = Vec::new();
    let results = [
        SEC_TERMS[0].time(|| bench_f32_terms::<1>(&sizes, "24/f32x1")),
        SEC_TERMS[1].time(|| bench_f32_terms::<2>(&sizes, "48/f32x2")),
        SEC_TERMS[2].time(|| bench_f32_terms::<3>(&sizes, "72/f32x3")),
        SEC_TERMS[3].time(|| bench_f32_terms::<4>(&sizes, "96/f32x4")),
    ];
    for (t, vals) in results.iter().enumerate() {
        for (k, &g) in KERNELS.iter().zip(vals) {
            cells.push(Cell {
                kernel: (*k).into(),
                bits: ((t + 1) * 24) as u32,
                library: format!("{}-term", t + 1),
                gops: g,
            });
        }
    }

    println!("T = f32 data-parallel performance (GPU substitution, paper Figure 11)");
    println!("(Gop/s; columns are expansion lengths over the f32 base type)\n");
    print!("{:<8}", "Kernel");
    for t in 1..=4 {
        print!("{:>10}", format!("{t}-Term"));
    }
    println!();
    println!("{}", "-".repeat(8 + 40));
    for (ki, k) in KERNELS.iter().enumerate() {
        print!("{k:<8}");
        for r in &results {
            print!("{:>10.3}", r[ki]);
        }
        println!();
    }

    let table = TableRun {
        platform: "f32 SIMD lanes (GPU substitution)".into(),
        cells,
    };
    if let Some(p) = out_path {
        run.write(&p, &table.to_json().render_pretty());
    }

    let manifest = run
        .manifest("f32-soa", 1)
        .with_extra("table", table.to_json());
    run.finish(Some(manifest), &table.platform);
}
