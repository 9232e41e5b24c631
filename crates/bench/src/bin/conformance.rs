//! Differential conformance sweep: drive every public op class through
//! `MultiFloat`, the `MpFloat` oracle, the DD/QD/CAMPARY baselines, and
//! `SoftFloat` in lockstep on adversarial inputs (see `mf-conformance`).
//!
//! Any divergence is shrunk to a minimal reproducer and appended to the
//! JSON corpus under `--corpus`; the committed corpus is replayed by
//! `cargo test -p mf-conformance`. Exit status 1 means divergences were
//! found, 0 means the sweep was clean.
//!
//! `--guarded` adds a lockstep sweep of the `checked_*` API under each
//! recovery policy; `--adaptive` adds a lockstep sweep of the `Adaptive`
//! ladder engine, whose escalated results must match the MpFloat oracle.
//!
//! Usage:
//! ```text
//!   cargo run --release -p mf-bench --bin conformance -- \
//!       [--ops arith,cmp,convert,io,blas,soft] [--cases N] [--seed S] \
//!       [--guarded] [--adaptive] [--corpus <dir>] [--manifest <json>] \
//!       [--trace <json>] [--profile <folded>]
//! ```

use mf_bench::cli::{self, Flag};
use mf_bench::history;
use mf_conformance::{corpus, run_adaptive, run_class, run_guarded, OpClass};
use mf_core::GuardPolicy;
use mf_telemetry::json::Json;
use std::time::Instant;

const TOOL: cli::Tool = cli::Tool {
    name: "conformance",
    flags: &[
        Flag::value("--ops", "<class,..>"),
        Flag::value("--cases", "N"),
        Flag::value("--seed", "S"),
        Flag::switch("--guarded"),
        Flag::switch("--adaptive"),
        Flag::value("--corpus", "<dir>"),
    ],
    positional: None,
    manifest: Some("results/manifest_conformance.json"),
    history: true,
};

fn main() {
    let (run, args) = cli::Run::start(&TOOL);
    let mut classes: Vec<OpClass> = OpClass::ALL.to_vec();
    let mut cases: usize = if mf_bench::quick_mode() {
        2_000
    } else {
        100_000
    };
    let mut seed: u64 = 0x5EED_CAFE;
    let mut guarded = false;
    let mut adaptive = false;
    let mut corpus_dir = String::from("results/conformance");
    for a in args {
        match a.flag {
            "--ops" => {
                classes = a
                    .value
                    .split(',')
                    .map(|s| {
                        OpClass::parse(s.trim()).unwrap_or_else(|| {
                            run.usage_error(&format!(
                                "unknown op class '{s}' (expected one of arith, cmp, convert, io, blas, soft)"
                            ))
                        })
                    })
                    .collect();
            }
            "--cases" => cases = run.count(&a),
            "--seed" => seed = run.seed(&a),
            "--guarded" => guarded = true,
            "--adaptive" => adaptive = true,
            "--corpus" => corpus_dir = a.value,
            _ => unreachable!("flag not declared in TOOL"),
        }
    }

    println!("Differential conformance sweep: {cases} cases/class, seed {seed:#x}");
    println!(
        "{:<10} {:>10} {:>12} {:>10}",
        "class", "cases", "divergences", "secs"
    );
    println!("{}", "-".repeat(46));

    let mut all = Vec::new();
    let mut counts = Vec::new();
    for &class in &classes {
        let t = Instant::now();
        let divs = run_class(class, cases, seed);
        println!(
            "{:<10} {:>10} {:>12} {:>10.1}",
            class.name(),
            cases,
            divs.len(),
            t.elapsed().as_secs_f64()
        );
        counts.push((class.name().to_string(), Json::u64(divs.len() as u64)));
        all.extend(divs);
    }

    // Guarded lockstep: the same adversarial generator, but every arith
    // case runs through `checked_*` under each recovery policy and must
    // match the oracle with no collapse excuses.
    if guarded {
        for policy in [GuardPolicy::RescaleRetry, GuardPolicy::OracleFallback] {
            let t = Instant::now();
            let divs = run_guarded(cases, seed, policy);
            let label = match policy {
                GuardPolicy::RescaleRetry => "g-rescale",
                _ => "g-oracle",
            };
            println!(
                "{:<10} {:>10} {:>12} {:>10.1}",
                label,
                cases,
                divs.len(),
                t.elapsed().as_secs_f64()
            );
            counts.push((label.to_string(), Json::u64(divs.len() as u64)));
            all.extend(divs);
        }
    }

    // Adaptive lockstep: the same adversarial generator drives the
    // `Adaptive` ladder engine; escalated results must land on the MpFloat
    // oracle at the F64x2 representation bound, with no collapse excuses
    // short of genuine overflow.
    let mut adaptive_extra: Option<Json> = None;
    if adaptive {
        let t = Instant::now();
        let (divs, stats) = run_adaptive(cases, seed);
        println!(
            "{:<10} {:>10} {:>12} {:>10.1}   ({} escalations, {} oracle, rate {:.4})",
            "adaptive",
            cases,
            divs.len(),
            t.elapsed().as_secs_f64(),
            stats.escalations,
            stats.oracle_falls,
            stats.escalation_rate(),
        );
        counts.push(("adaptive".to_string(), Json::u64(divs.len() as u64)));
        adaptive_extra = Some(Json::Obj(vec![
            ("ops".to_string(), Json::u64(stats.ops)),
            ("escalations".to_string(), Json::u64(stats.escalations)),
            ("oracle_falls".to_string(), Json::u64(stats.oracle_falls)),
            ("degraded_ops".to_string(), Json::u64(stats.degraded_ops)),
            (
                "escalation_rate".to_string(),
                Json::Num(stats.escalation_rate()),
            ),
        ]));
        all.extend(divs);
    }

    if !all.is_empty() {
        println!("\n{} divergence(s); minimal reproducers:", all.len());
        for d in &all {
            println!(
                "  [{}] {} n={} operands={:?} text={:?} — {}",
                d.impl_name,
                d.case.op,
                d.case.n,
                d.case
                    .operands
                    .iter()
                    .map(|o| o
                        .iter()
                        .map(|v| format!("{:#018x}", v.to_bits()))
                        .collect::<Vec<_>>())
                    .collect::<Vec<_>>(),
                d.case.text,
                d.detail
            );
        }
        let path = format!("{corpus_dir}/divergences-{seed:016x}.json");
        if let Err(e) = std::fs::create_dir_all(&corpus_dir)
            .and_then(|()| std::fs::write(&path, corpus::render(&all)))
        {
            eprintln!("warning: could not write {path}: {e}");
        } else {
            println!("wrote {path} — triage, fix, then move entries into the committed corpus");
        }
    }

    let config = match (guarded, adaptive) {
        (true, true) => "sweep+guarded+adaptive",
        (true, false) => "sweep+guarded",
        (false, true) => "sweep+adaptive",
        (false, false) => "sweep",
    };
    // Drain the shadow auditor (the guarded/adaptive sweeps sample at the
    // ambient rate) so the recorded health verdict covers every submitted
    // sample, then score the run against the alert rules.
    let _ = mf_telemetry::audit::flush(std::time::Duration::from_secs(5));
    let health = mf_telemetry::alert::verdict_json(&mf_telemetry::alert::evaluate());
    let mut manifest = run
        .manifest(config, 0)
        .with_extra("cases_per_class", Json::u64(cases as u64))
        .with_extra("seed", Json::u64(seed))
        .with_extra("divergences", Json::Obj(counts))
        .with_extra("health", health)
        .with_extra("registry", mf_telemetry::registry::snapshot_json());
    if let Some(extra) = adaptive_extra {
        manifest = manifest.with_extra("adaptive", extra);
    }
    run.finish(Some(manifest), &history::platform_label());

    if !all.is_empty() {
        std::process::exit(1);
    }
    println!("\nclean: no divergences beyond the documented contract");
}
