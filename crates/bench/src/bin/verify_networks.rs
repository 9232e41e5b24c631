//! E5/E6 — verify the shipped FPANs against the paper's captioned error
//! bounds (Figures 2–7) and report the worst observed discarded error.
//!
//! This is the reproduction's stand-in for re-running the paper's SMT
//! proofs (DESIGN.md T1): large adversarial stochastic suites at f64 with
//! the exact `mf-mpsoft` oracle, plus dense small-precision sweeps at
//! p = 12 with an exact integer reference.
//!
//! Usage:
//! ```text
//!   cargo run --release -p mf-bench --bin verify_networks -- \
//!       [--trials N] [--manifest <json>] [--trace <json>] [--profile <folded>]
//! ```

use mf_bench::cli::{self, Flag};
use mf_bench::history;
use mf_fpan::networks;
use mf_fpan::verify::{self, Config};
use mf_telemetry::Section;

const TOOL: cli::Tool = cli::Tool {
    name: "verify_networks",
    flags: &[Flag::value("--trials", "N")],
    positional: None,
    manifest: Some("results/manifest_verify_networks.json"),
    history: true,
};

static SEC_F64: Section = Section::new("verify_networks.f64_suites");
static SEC_SOFT: Section = Section::new("verify_networks.soft_sweep");
static SEC_EXHAUSTIVE: Section = Section::new("verify_networks.exhaustive");

fn main() {
    let (run, args) = cli::Run::start(&TOOL);
    let mut trials = if mf_bench::quick_mode() {
        2_000
    } else {
        50_000
    };
    for a in args {
        match a.flag {
            "--trials" => trials = run.count(&a),
            _ => unreachable!("flag not declared in TOOL"),
        }
    }

    println!("Empirical FPAN verification ({trials} adversarial trials per network)");
    println!(
        "{:<10} {:>6} {:>6} {:>12} {:>14} {:>10}",
        "network", "size", "depth", "paper bound", "worst observed", "verdict"
    );
    println!("{}", "-".repeat(64));

    let mut failures = 0u64;

    let p = 53i32;
    let _g = SEC_F64.start();
    // (label, network, n, paper bound exponent, bound we assert)
    let add_cases = [
        ("add_2", networks::add_2(), 2usize, 2 * p - 1, 2 * p - 2),
        ("add_3", networks::add_3(), 3, 3 * p - 3, 3 * p - 3),
        ("add_4", networks::add_4(), 4, 4 * p - 4, 4 * p - 4),
    ];
    for (name, net, n, paper_q, assert_q) in add_cases {
        let rep = verify::verify_addition_f64(&net, n, Config::new(trials, assert_q, 0xA11CE));
        println!(
            "{:<10} {:>6} {:>6} {:>12} {:>14} {:>10}",
            name,
            net.size(),
            net.depth(),
            format!("2^-{paper_q}"),
            format!("2^{:.1}", rep.worst_error_exp),
            if rep.pass { "PASS" } else { "FAIL" }
        );
        if !rep.pass {
            failures += 1;
            println!("   first violation: {:?}", rep.first_violation);
        }
    }

    let mul_cases = [
        ("mul_2", networks::mul_2(), 2usize, 2 * p - 3, 2 * p - 3),
        ("mul_3", networks::mul_3(), 3, 3 * p - 3, 3 * p - 3),
        ("mul_4", networks::mul_4(), 4, 4 * p - 4, 4 * p - 4),
    ];
    for (name, net, n, paper_q, assert_q) in mul_cases {
        let rep = verify::verify_multiplication_f64(&net, n, Config::new(trials, assert_q, 0xB0B));
        println!(
            "{:<10} {:>6} {:>6} {:>12} {:>14} {:>10}",
            name,
            net.size(),
            net.depth(),
            format!("2^-{paper_q}"),
            format!("2^{:.1}", rep.worst_error_exp),
            if rep.pass { "PASS" } else { "FAIL" }
        );
        if !rep.pass {
            failures += 1;
            println!("   first violation: {:?}", rep.first_violation);
        }
    }
    drop(_g);

    // Small-precision sweep: the same network objects at p = 12.
    println!("\nSmall-precision sweep (p = 12, exact integer reference):");
    let p = 12i32;
    let soft_cases = [
        ("add_2", networks::add_2(), 2usize, 2 * p - 2),
        ("add_3", networks::add_3(), 3, 3 * p - 3),
        ("add_4", networks::add_4(), 4, 4 * p - 4),
    ];
    let _g = SEC_SOFT.start();
    for (name, net, n, q) in soft_cases {
        let rep = verify::verify_addition_soft::<12>(&net, n, Config::new(trials * 2, q, 0xC0DE));
        println!(
            "  {:<8} q=2^-{:<4} worst 2^{:>7.1}  {}",
            name,
            q,
            rep.worst_error_exp,
            if rep.pass { "PASS" } else { "FAIL" }
        );
        if !rep.pass {
            failures += 1;
        }
    }
    drop(_g);

    // Exhaustive small-space verification (complete enumeration, no
    // sampling): the strongest offline statement for E5.
    println!("\nExhaustive 2-term addition sweep at p = 4 (every input pair,");
    println!("head exponents in [-2, 2], tails to 2 binades below the boundary):");
    let rep = SEC_EXHAUSTIVE
        .time(|| verify::verify_addition_exhaustive::<4>(&networks::add_2(), 2 * 4 - 2, 2, 2));
    println!(
        "  {} input pairs, worst 2^{:.1}, {}",
        rep.trials,
        rep.worst_error_exp,
        if rep.pass {
            "PASS (exhaustive)"
        } else {
            "FAIL"
        }
    );
    if !rep.pass {
        failures += 1;
    }

    println!("\nGate-count comparison (paper's reported optima vs this reproduction):");
    println!("  paper: add (6,4) (14,8) (26,11); mul (3,3) (12,7) (27,10)");
    println!(
        "  ours : add ({},{}) ({},{}) ({},{}); mul ({},{}) ({},{}) ({},{})",
        networks::add_2().size(),
        networks::add_2().depth(),
        networks::add_3().size(),
        networks::add_3().depth(),
        networks::add_4().size(),
        networks::add_4().depth(),
        networks::mul_2().size(),
        networks::mul_2().depth(),
        networks::mul_3().size(),
        networks::mul_3().depth(),
        networks::mul_4().size(),
        networks::mul_4().depth(),
    );

    let manifest = run
        .manifest(&format!("trials={trials}"), 1)
        .with_extra("failures", mf_telemetry::json::Json::u64(failures));
    run.finish(Some(manifest), &history::platform_label());
    if failures > 0 {
        std::process::exit(1);
    }
}
