//! Numerical-health soak harness: run a sustained mixed workload under
//! shadow-oracle audit sampling and the alert rules engine, then judge the
//! process's own `/health` verdict.
//!
//! Two modes:
//!
//! * `--mode clean` (default) — guarded scalar ops under the oracle
//!   fallback policy, flat BLAS `axpy`/`dot`, and adaptive `dot`/`axpy` over
//!   well-conditioned data. **Any** alert is a harness failure (exit 1):
//!   the default rule set must be quiet on a healthy workload.
//! * `--mode hostile` — the same workload plus deliberately collapsed
//!   `FastOnly` top-binade sums (NaN from finite inputs, the documented
//!   guard escape hatch). The run **must** fire alerts and flip `/health` to
//!   503; a silent run is the failure (exit 1) — it would mean the audit
//!   sampler or the rules engine lost the signal.
//!
//! The harness serves the live metrics endpoint on an ephemeral loopback
//! port and scrapes its own `/health` at the end, so the exit code covers
//! the whole chain: kernel → sampler → oracle → registry → rules →
//! HTTP verdict. It always writes two artifacts (for CI upload on
//! failure): the health verdict JSON and a full registry snapshot in
//! Prometheus text format.
//!
//! Built without `--features telemetry` the binary prints a notice and
//! exits 0 — there is nothing to observe, and the soak job must not fail
//! a non-telemetry build matrix entry.
//!
//! Usage:
//! ```text
//!   cargo run --release -p mf-bench --features telemetry --bin soak -- \
//!       [--mode clean|hostile] [--seconds N] [--threads N] \
//!       [--audit-rate R] [--health-out <json>] [--registry-out <prom>] \
//!       [--manifest <json>] [--trace <json>] [--profile <folded>]
//! ```
//!
//! `MF_BENCH_QUICK=1` shrinks the default duration to 2 s (CI smoke).
//! `MF_ALERT_RULES` tunes the rule set as everywhere else; the audit rate
//! is *elevated* to `--audit-rate` (default 0.05) for the soak so short
//! runs still accumulate a meaningful sample population.

use mf_bench::cli::{self, Flag};
use mf_bench::{quick_mode, sink, workloads};
use mf_core::{EscalationPolicy, F64x2, FloatBase, GuardPolicy};
use mf_telemetry::json::Json;
use std::time::{Duration, Instant};

const TOOL: cli::Tool = cli::Tool {
    name: "soak",
    flags: &[
        Flag::value("--mode", "clean|hostile"),
        Flag::value("--seconds", "N"),
        Flag::value("--threads", "N"),
        Flag::value("--audit-rate", "R"),
        Flag::value("--health-out", "<json>"),
        Flag::value("--registry-out", "<prom>"),
    ],
    positional: None,
    manifest: Some("results/manifest_soak.json"),
    // The soak's verdict is its exit code and artifacts, not a trend.
    history: false,
};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Clean,
    Hostile,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Clean => "clean",
            Mode::Hostile => "hostile",
        }
    }
}

struct Args {
    mode: Mode,
    seconds: f64,
    threads: usize,
    audit_rate: f64,
    health_out: String,
    registry_out: String,
}

fn parse_args(run: &cli::Run, args: Vec<cli::Arg>) -> Args {
    let mut out = Args {
        mode: Mode::Clean,
        seconds: if quick_mode() { 2.0 } else { 10.0 },
        threads: 1,
        audit_rate: 0.05,
        health_out: String::from("results/soak_health.json"),
        registry_out: String::from("results/soak_registry.prom"),
    };
    for a in args {
        let bad = || run.usage_error(&format!("bad {} {:?}", a.flag, a.value));
        match a.flag {
            "--mode" => {
                out.mode = match a.value.as_str() {
                    "clean" => Mode::Clean,
                    "hostile" => Mode::Hostile,
                    other => run.usage_error(&format!("unknown mode {other:?}")),
                }
            }
            "--seconds" => {
                out.seconds = a
                    .value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(bad)
            }
            "--threads" => out.threads = run.count(&a),
            "--audit-rate" => {
                out.audit_rate = a
                    .value
                    .parse::<f64>()
                    .ok()
                    .filter(|r| r.is_finite() && *r >= 0.0 && *r <= 1.0)
                    .unwrap_or_else(bad)
            }
            "--health-out" => out.health_out = a.value,
            "--registry-out" => out.registry_out = a.value,
            _ => unreachable!("flag not declared in TOOL"),
        }
    }
    out
}

/// One round of the clean workload: guarded scalar ops, flat kernels,
/// adaptive kernels — every audited surface in the stack.
fn clean_round(x: &[F64x2], y: &mut [F64x2], threads: usize, round: u64) {
    // Guarded scalar ops under the recovery policy.
    let a = x[(round % 251) as usize % x.len()];
    let b = x[(round % 241 + 1) as usize % x.len()];
    sink(a.checked_mul(b, GuardPolicy::OracleFallback).value);
    sink(a.checked_add(b, GuardPolicy::OracleFallback).value);
    sink(a.checked_div(b, GuardPolicy::OracleFallback).value);
    sink(a.abs().checked_sqrt(GuardPolicy::OracleFallback).value);

    // Flat kernels (per-element audit draws).
    let alpha = F64x2::from(0.5);
    mf_blas::kernels::axpy(alpha, x, y);
    sink(mf_blas::kernels::dot(x, y));

    // Adaptive kernels every few rounds (they re-enter the flat kernels
    // per chunk; keep their share of the mix moderate).
    if round.is_multiple_of(8) {
        let policy = EscalationPolicy::default();
        let (d, _) = mf_blas::adaptive::dot_adaptive(x, y, &policy, threads);
        sink(d);
        let mut y2 = y.to_vec();
        sink(mf_blas::adaptive::axpy_adaptive(
            alpha, x, &mut y2, &policy, threads,
        ));
    }
}

/// Hostile injections: FastOnly collapses (NaN shipped from finite
/// inputs) that the audit sampler must flag as violations.
fn hostile_round(round: u64) {
    // MAX + 2^970 rounds to inf in the head TwoSum, while the tail keeps
    // the exact sum [MAX, 2^970 - 2^(960 - k)] representable.
    let p = <f64 as FloatBase>::exp2i;
    let a = F64x2::from_components([f64::MAX, -p(960 - (round % 8) as i32)]);
    sink(
        a.checked_add(F64x2::from_scalar(p(970)), GuardPolicy::FastOnly)
            .value,
    );
}

fn counter(snap: &mf_telemetry::Snapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

fn write_artifact(path: &str, contents: &str) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(path, contents) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
}

fn main() {
    let (run, args) = cli::Run::start(&TOOL);
    let args = parse_args(&run, args);
    if !mf_telemetry::ENABLED {
        eprintln!(
            "soak: built without --features telemetry; nothing to observe (exit 0 by contract)"
        );
        return;
    }
    let started = Instant::now();

    // Elevated sampling for the soak window (see module docs).
    mf_telemetry::audit::set_rate(args.audit_rate);
    mf_core::audit_hook::install();

    // Serve the live endpoint on an ephemeral loopback port: the final
    // verdict is read back over HTTP, not from in-process state.
    let addr = match mf_telemetry::expose::serve("127.0.0.1:0") {
        Ok(a) => a,
        Err(e) => {
            eprintln!("soak: error: could not bind metrics endpoint: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "soak: mode={} seconds={} threads={} audit-rate={} endpoint=http://{addr}/",
        args.mode.name(),
        args.seconds,
        args.threads,
        args.audit_rate
    );

    let n = 256;
    let xs = workloads::rand_f64s(0x50AC, n);
    let ys = workloads::rand_f64s(0x50AD, n);
    let x: Vec<F64x2> = xs.iter().map(|&v| F64x2::from(v)).collect();
    let mut y: Vec<F64x2> = ys.iter().map(|&v| F64x2::from(v)).collect();

    let deadline = started + Duration::from_secs_f64(args.seconds);
    let mut round: u64 = 0;
    let mut last_eval = Instant::now();
    let mut mid_evals: u64 = 0;
    while Instant::now() < deadline {
        clean_round(&x, &mut y, args.threads, round);
        if args.mode == Mode::Hostile {
            hostile_round(round);
        }
        // Reset the running y periodically so magnitudes stay bounded
        // over long runs (each axpy adds 0.5x).
        if round % 32 == 31 {
            for (yi, &ysrc) in y.iter_mut().zip(&ys) {
                *yi = F64x2::from(ysrc);
            }
        }
        // Periodic alert evaluation, as a long-running service would run.
        if last_eval.elapsed() >= Duration::from_millis(500) {
            last_eval = Instant::now();
            mid_evals += 1;
            let v = mf_telemetry::alert::evaluate();
            for a in &v.alerts {
                eprintln!(
                    "soak: alert fired (eval {}): {} = {} (threshold {})",
                    a.evaluation, a.rule, a.value, a.threshold
                );
            }
        }
        round += 1;
    }

    // Drain the auditor before the final verdict: every submitted sample
    // must be scored before the rules engine reads the registry.
    if !mf_telemetry::audit::flush(Duration::from_secs(30)) {
        eprintln!("soak: error: auditor failed to drain within 30s");
        std::process::exit(1);
    }

    // Final verdict over HTTP — exercises the full exposition chain.
    let (status, body) = match mf_telemetry::expose::scrape_response(&addr, "/health") {
        Ok(r) => r,
        Err(e) => {
            eprintln!("soak: error: /health scrape failed: {e}");
            std::process::exit(1);
        }
    };
    let health = Json::parse(&body).unwrap_or_else(|e| {
        eprintln!("soak: error: /health returned unparseable JSON: {e}");
        std::process::exit(1);
    });
    let fired = mf_telemetry::alert::fired_total();

    let snap = mf_telemetry::snapshot();
    let audited = counter(&snap, "audit.audited");
    let sampled = counter(&snap, "audit.sampled");
    let violations = counter(&snap, "audit.violations");

    // Artifacts: enriched health JSON + full registry snapshot.
    let margins: Vec<(String, Json)> = mf_telemetry::audit::OpClass::ALL
        .iter()
        .filter_map(|&c| {
            mf_telemetry::audit::min_margin(c).map(|m| (c.name().to_string(), Json::Num(m as f64)))
        })
        .collect();
    let report = Json::Obj(vec![
        ("mode".into(), Json::str(args.mode.name())),
        ("seconds".into(), Json::Num(args.seconds)),
        ("rounds".into(), Json::u64(round)),
        ("http_status".into(), Json::u64(status as u64)),
        ("health".into(), health.clone()),
        (
            "audit".into(),
            Json::Obj(vec![
                ("rate".into(), Json::Num(args.audit_rate)),
                ("sampled".into(), Json::u64(sampled)),
                ("audited".into(), Json::u64(audited)),
                ("violations".into(), Json::u64(violations)),
                ("min_margin_bits".into(), Json::Obj(margins)),
            ]),
        ),
    ]);
    write_artifact(&args.health_out, &report.render_pretty());
    write_artifact(&args.registry_out, &mf_telemetry::expose::render(&snap));

    let manifest = run
        .manifest(args.mode.name(), args.threads)
        .with_extra("soak", report.clone());
    run.finish(Some(manifest), "");

    let healthy = health
        .get("healthy")
        .and_then(Json::as_bool)
        .unwrap_or(false);
    eprintln!(
        "soak: {} rounds, {sampled} sampled, {audited} audited, {violations} violations, \
         {fired} alerts fired ({mid_evals} mid-run evaluations), /health {status}",
        round
    );

    let ok = match args.mode {
        // A clean soak must stay silent end to end.
        Mode::Clean => healthy && fired == 0 && violations == 0 && status == 200,
        // A hostile soak must be *caught*: violations scored, alerts
        // fired, and the HTTP verdict flipped.
        Mode::Hostile => violations > 0 && fired > 0 && !healthy && status == 503,
    };
    if ok {
        eprintln!("soak: PASS ({} contract held)", args.mode.name());
    } else {
        eprintln!(
            "soak: FAIL ({} contract broken; see {} and {})",
            args.mode.name(),
            args.health_out,
            args.registry_out
        );
        std::process::exit(1);
    }
}
