//! E3 — regenerate the paper's Figure 8: the ratio of MultiFloats' peak
//! performance to the next-best multiprecision library, per platform,
//! kernel, and precision.
//!
//! Usage:
//! ```text
//!   cargo run --release -p mf-bench --bin summary -- \
//!       results_wide.json [results_narrow.json ...] [--trace <json>] [--profile <folded>]
//! ```
//!
//! Each input is a JSON file produced by the `tables` binary. The paper's
//! claim is that every ratio exceeds 1 (MultiFloats is always fastest).

use mf_bench::sweep::KERNELS;
use mf_bench::{cli, history, TableRun};
use mf_telemetry::json::Json;

const BITS: [u32; 4] = [53, 103, 156, 208];
const OURS: &str = "MultiFloats (ours)";
const TOOL: cli::Tool = cli::Tool {
    name: "summary",
    flags: &[],
    positional: Some("<tables.json> [...]"),
    manifest: None,
    history: true,
};

fn main() {
    let (run, _) = cli::Run::start(&TOOL);
    let paths = run.positional().to_vec();
    if paths.is_empty() {
        run.usage_error("expected at least one tables.json path");
    }
    for path in paths {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| run.usage_error(&format!("cannot read {path}: {e}")));
        let json = Json::parse(&text)
            .unwrap_or_else(|e| run.usage_error(&format!("{path} is not valid JSON: {e}")));
        let run = TableRun::from_json(&json).unwrap_or_else(|| {
            run.usage_error(&format!(
                "{path} is not a tables.json produced by the tables binary"
            ))
        });
        println!("\nPlatform: {} ({path})", run.platform);
        println!("Ratio of MultiFloats peak over next-best library (paper Figure 8):");
        print!("{:<8}", "Kernel");
        for &b in &BITS {
            print!("{:>10}", format!("{b}-bit"));
        }
        println!();
        println!("{}", "-".repeat(8 + 10 * BITS.len()));
        let mut all_above_one = true;
        for k in KERNELS {
            print!("{k:<8}");
            for &b in &BITS {
                let ours = run.lookup(k, b, OURS);
                let best_other = run
                    .libraries()
                    .iter()
                    .filter(|l| l.as_str() != OURS)
                    .filter_map(|l| run.lookup(k, b, l))
                    .fold(f64::NAN, f64::max);
                match (ours, best_other.is_nan()) {
                    (Some(o), false) => {
                        let r = o / best_other;
                        if r <= 1.0 {
                            all_above_one = false;
                        }
                        print!("{r:>9.2}x");
                    }
                    _ => print!("{:>10}", "N/A"),
                }
            }
            println!();
        }
        println!(
            "\n=> {}",
            if all_above_one {
                "All ratios exceed 1: MultiFloats is the fastest library in every cell (matches the paper's Figure 8 claim)."
            } else {
                "WARNING: some ratio <= 1 — MultiFloats is not fastest everywhere on this platform/run."
            }
        );
    }

    run.finish(None, &history::platform_label());
}
