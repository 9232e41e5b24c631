//! Merge the telemetry run manifests under `results/` into a single
//! human-readable digest (and optionally a merged JSON document).
//!
//! Every manifest-writing bench binary (`tables`, `gpu_sim`, `solve`, ...)
//! drops a `results/manifest_<tool>.json` on exit; after an experiment
//! sweep this tool answers "what ran, where, how long, and what did the
//! probes see" in one place. It writes no manifest of its own into the
//! directory it digests, and no history record.
//!
//! Usage:
//! ```text
//!   cargo run --release -p mf-bench --bin report -- \
//!       [--dir <results>] [--out <json>] [--trace <json>] [--profile <folded>]
//! ```

use mf_bench::cli::{self, Flag};
use mf_bench::RunManifest;
use mf_telemetry::json::Json;
use std::path::PathBuf;

const TOOL: cli::Tool = cli::Tool {
    name: "report",
    flags: &[
        Flag::value("--dir", "<results>"),
        Flag::value("--out", "<json>"),
    ],
    positional: None,
    manifest: None,
    history: false,
};

/// Display a histogram quantile upper bound (a saturating `2^k - 1` style
/// value) as `<=2^k`. The buckets are log2-spaced, so the exponent is the
/// informative part.
fn log2_bound(v: u64) -> String {
    if v == 0 {
        "=0".into()
    } else {
        format!("<=2^{}", 64 - v.leading_zeros())
    }
}

/// The numerical-health block for one manifest: per-op-class shadow-audit
/// columns (samples, worst observed ulp error, minimum bound margin) plus
/// the audit/alert totals. Empty when the run carried no audit probes
/// (telemetry off, or nothing sampled).
fn health_columns(m: &RunManifest) -> String {
    let counter = |name: &str| {
        m.snapshot
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    };
    let audited = match counter("audit.audited") {
        Some(v) if v > 0 => v,
        _ => return String::new(),
    };
    let mut out = String::from("  numerical health (shadow audit):\n");
    out.push_str("    class     samples   ulp_p99    min_margin_bits\n");
    for (name, margin) in &m.snapshot.gauges {
        let Some(class) = name.strip_prefix("audit.margin.") else {
            continue;
        };
        let hist = m
            .snapshot
            .histograms
            .iter()
            .find(|h| h.name == format!("audit.ulp.{class}"));
        let (samples, p99) = match hist {
            Some(h) if h.count > 0 => (h.count, log2_bound(h.quantile_upper_bound(0.99))),
            _ => (0, "-".into()),
        };
        out.push_str(&format!(
            "    {class:<9} {samples:>7}   {p99:<9}  {margin:>8}\n"
        ));
    }
    out.push_str(&format!(
        "    audited {audited} violations {} | alert evaluations {} fired {}\n",
        counter("audit.violations").unwrap_or(0),
        counter("alert.evaluations").unwrap_or(0),
        counter("alert.fired").unwrap_or(0),
    ));
    out
}

fn main() {
    let (run, args) = cli::Run::start(&TOOL);
    let mut dir = String::from("results");
    let mut out_path: Option<String> = None;
    for a in args {
        match a.flag {
            "--dir" => dir = a.value,
            "--out" => out_path = Some(a.value),
            _ => unreachable!("flag not declared in TOOL"),
        }
    }

    let entries = match std::fs::read_dir(&dir) {
        Ok(e) => e,
        Err(e) => run.usage_error(&format!("cannot read directory {dir}: {e}")),
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.extension().map(|x| x == "json").unwrap_or(false)
                && p.file_name()
                    .and_then(|n| n.to_str())
                    .map(|n| n.starts_with("manifest_"))
                    .unwrap_or(false)
        })
        .collect();
    paths.sort();

    let mut manifests: Vec<(PathBuf, RunManifest)> = Vec::new();
    for p in paths {
        match RunManifest::read(&p) {
            Ok(m) => manifests.push((p, m)),
            Err(e) => eprintln!("report: skipping {}: {e}", p.display()),
        }
    }
    if manifests.is_empty() {
        run.usage_error(&format!(
            "no manifest_*.json files found under {dir}/ — run a bench binary first"
        ));
    }

    println!("Run digest: {} manifest(s) under {dir}/", manifests.len());
    for (path, m) in &manifests {
        println!("\n=== {} ({})", m.tool, path.display());
        println!(
            "  config={} threads={} wall={:.1}ms telemetry={}",
            m.config,
            m.threads,
            m.wall_ms,
            if m.telemetry_enabled { "on" } else { "off" }
        );
        println!(
            "  platform: {} {} ({}){}",
            m.platform.os,
            m.platform.arch,
            m.platform.rustc,
            if m.platform.label.is_empty() {
                String::new()
            } else {
                format!(" label={}", m.platform.label)
            }
        );
        if !m.platform.rustflags.is_empty() {
            println!("  rustflags: {}", m.platform.rustflags);
        }
        if !m.snapshot.sections.is_empty() {
            println!("  sections:");
            for s in &m.snapshot.sections {
                let quantiles = if s.sketch.count > 0 {
                    format!(
                        "  p50<={:.1}ms p90<={:.1}ms p99<={:.1}ms",
                        s.sketch.p50() as f64 / 1e6,
                        s.sketch.p90() as f64 / 1e6,
                        s.sketch.p99() as f64 / 1e6
                    )
                } else {
                    String::new()
                };
                println!(
                    "    {:<32} {:>10.1} ms ({} span{}){quantiles}",
                    s.name,
                    s.total_ns as f64 / 1e6,
                    s.count,
                    if s.count == 1 { "" } else { "s" }
                );
            }
        }
        if !m.snapshot.counters.is_empty() {
            println!("  counters:");
            for (name, v) in &m.snapshot.counters {
                println!("    {name:<32} {v:>12}");
            }
        }
        if !m.snapshot.gauges.is_empty() {
            println!("  gauges (levels at manifest time):");
            for (name, v) in &m.snapshot.gauges {
                println!("    {name:<32} {v:>12}");
            }
        }
        for h in &m.snapshot.histograms {
            if h.count == 0 {
                continue;
            }
            println!(
                "  histogram {:<24} n={} mean={:.2} p50{} p99{}",
                h.name,
                h.count,
                h.mean(),
                log2_bound(h.quantile_upper_bound(0.50)),
                log2_bound(h.quantile_upper_bound(0.99)),
            );
        }
        if !m.snapshot.events.is_empty() || m.snapshot.dropped_events > 0 {
            println!(
                "  events: {} retained ({} dropped)",
                m.snapshot.events.len(),
                m.snapshot.dropped_events
            );
        }
        print!("{}", health_columns(m));
    }

    // Fleet view: merge every manifest's per-section latency sketches into
    // one distribution per section (sketches merge losslessly — see
    // mf_bench::digest), so cross-run p50/p90/p99 needs no eyeballing.
    let merged_sections = mf_bench::digest::merge_sections(
        &manifests.iter().map(|(_, m)| m.clone()).collect::<Vec<_>>(),
    );
    if !merged_sections.is_empty() {
        println!(
            "\nMerged section latency across {} manifest(s):",
            manifests.len()
        );
        print!("{}", mf_bench::digest::render(&merged_sections));
    }

    // Escalation view: any manifest whose counters carry guard-layer or
    // adaptive BLAS tallies gets a rate row (oracle fallbacks per guarded
    // check, escalations per chunk).
    let mut adaptive_rows: Vec<(String, &str, u64, u64, u64)> = Vec::new();
    for (_, m) in &manifests {
        let get = |name: &str| {
            m.snapshot
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
        };
        for (layer, ops_key, esc_key, oracle_key) in [
            (
                "core",
                "core.guard.checks",
                "core.guard.oracle_fallbacks",
                "core.guard.oracle_fallbacks",
            ),
            (
                "blas",
                "blas.adaptive.chunks",
                "blas.adaptive.escalations",
                "blas.adaptive.oracle_falls",
            ),
        ] {
            // A counter that never incremented is absent: read it as 0.
            if let Some(ops) = get(ops_key).filter(|&ops| ops > 0) {
                adaptive_rows.push((
                    m.tool.clone(),
                    layer,
                    ops,
                    get(esc_key).unwrap_or(0),
                    get(oracle_key).unwrap_or(0),
                ));
            }
        }
    }
    if !adaptive_rows.is_empty() {
        println!("\nEscalation rates:");
        println!(
            "  {:<16} {:<6} {:>12} {:>12} {:>10} {:>8}",
            "tool", "layer", "ops", "escalations", "oracle", "rate"
        );
        for (tool, layer, ops, esc, oracle) in adaptive_rows {
            println!(
                "  {tool:<16} {layer:<6} {ops:>12} {esc:>12} {oracle:>10} {:>8.4}",
                esc as f64 / ops as f64
            );
        }
    }

    // Dropped events mean the digest above is *incomplete*: the buffer
    // overflowed and later events were discarded. Make that loud.
    let total_dropped: u64 = manifests
        .iter()
        .map(|(_, m)| m.snapshot.dropped_events)
        .sum();
    if total_dropped > 0 {
        println!(
            "\nwarning: {total_dropped} event(s) dropped across {} manifest(s) — \
             event lists above are incomplete (MAX_EVENTS overflow)",
            manifests
                .iter()
                .filter(|(_, m)| m.snapshot.dropped_events > 0)
                .count()
        );
    }

    if let Some(p) = out_path {
        let merged = Json::Obj(vec![
            ("schema".into(), Json::str("mf-telemetry/report/v1")),
            (
                "manifests".into(),
                Json::Arr(manifests.iter().map(|(_, m)| m.to_json()).collect()),
            ),
        ]);
        match std::fs::write(&p, merged.render_pretty() + "\n") {
            Ok(()) => eprintln!("wrote {p}"),
            Err(e) => eprintln!("warning: could not write {p}: {e}"),
        }
    }

    run.finish(None, "");
}
