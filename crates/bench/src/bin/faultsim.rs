//! Fault-injection campaign: prove the guard detectors catch injected
//! corruption in the FPAN executors, and measure what the guards cost on
//! clean inputs.
//!
//! For every shipped network (add_2/3/4, mul_2/3/4) the tool injects
//! seeded single-bit flips on gate output wires plus exhaustive
//! gate-dropout, classifies each injection as masked (still within the
//! network's verified `2^-q` bound — benign by contract) or effective, and
//! reports tier-1 (guard invariant) and combined (tier 1 + re-execution)
//! detection rates over the effective ones. The run fails (exit 1) if the
//! combined rate drops below 99% or a tier-1 detector fires on a clean run.
//!
//! The tool also times `checked_mul`/`checked_div`/`checked_sqrt` under
//! `GuardPolicy::FastOnly` against the raw operators on clean inputs: the
//! guard-overhead ablation recorded in EXPERIMENTS.md (target ≤5%).
//!
//! With `--adaptive` the tool runs the closed-loop campaign instead:
//! every effective fault must trip a detector (tier 1 or the re-execution
//! cross-check), enter the recovery ladder (re-run, then exact-oracle
//! reconstruction), and end within the network's verified bound. Reported
//! per network as masked / missed / escalated / recovered / unrecovered;
//! the run fails below a 99% detect-and-recover rate or on any escalation
//! from a clean input.
//!
//! Usage:
//! ```text
//!   cargo run --release -p mf-bench --bin faultsim -- \
//!       [--adaptive] [--nets add2,add3,add4,mul2,mul3,mul4] [--cases N] \
//!       [--flips N] [--seed S] [--tol BITS] [--manifest <json>] \
//!       [--trace <json>] [--profile <folded>]
//! ```

use mf_bench::cli::{self, Flag};
use mf_bench::{history, sink};
use mf_core::nets::{self, NetSpec};
use mf_core::{GuardPolicy, MultiFloat};
use mf_fpan::fault::{self, AdaptiveFaultStats, FaultStats};
use mf_fpan::verify::random_expansion;
use mf_fpan::Fpan;
use mf_telemetry::json::Json;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const TOOL: cli::Tool = cli::Tool {
    name: "faultsim",
    flags: &[
        Flag::switch("--adaptive"),
        Flag::value("--nets", "<net,..>"),
        Flag::value("--cases", "N"),
        Flag::value("--flips", "N"),
        Flag::value("--seed", "S"),
        Flag::value("--tol", "BITS"),
    ],
    positional: None,
    manifest: Some("results/manifest_faultsim.json"),
    history: true,
};

/// One campaign target: a network, its verified error bound, and the spec
/// whose `inputs` list generates valid (in-contract) input vectors.
struct Target {
    name: &'static str,
    spec: &'static NetSpec,
    net: Fpan,
    q: i32,
}

/// The campaign networks with their verified error bounds `2^-q`.
const TARGETS: [(&str, &NetSpec, i32); 6] = [
    ("add2", &nets::ADD2, 104),
    ("add3", &nets::ADD3, 156),
    ("add4", &nets::ADD4, 208),
    ("mul2", &nets::MUL2, 103),
    ("mul3", &nets::MUL3, 156),
    ("mul4", &nets::MUL4, 208),
];

fn target(name: &str) -> Option<Target> {
    let &(name, spec, q) = TARGETS.iter().find(|t| t.0 == name)?;
    Some(Target {
        name,
        spec,
        net: Fpan::from_spec(spec),
        q,
    })
}

/// Valid input vector for a target: random nonoverlapping operands loaded
/// into the network's input wires — interleaved pairs for the addition
/// networks, the pruned `TwoProd` expansion step for the multiplication
/// networks (mirrors the verifier's generators).
fn gen_case(t: &Target, rng: &mut SmallRng) -> Vec<f64> {
    let n = t.spec.outputs.len();
    let ex = rng.gen_range(-40..40);
    let x = random_expansion::<f64>(rng, n, ex);
    let ey = rng.gen_range(-40..40);
    let y = random_expansion::<f64>(rng, n, ey);
    t.spec.load(&x, &y)
}

fn adaptive_stats_json(st: &AdaptiveFaultStats) -> Json {
    Json::Obj(vec![
        ("cases".into(), Json::u64(st.cases)),
        ("clean_escalations".into(), Json::u64(st.clean_escalations)),
        ("injected".into(), Json::u64(st.injected)),
        ("masked".into(), Json::u64(st.masked)),
        ("missed".into(), Json::u64(st.missed)),
        ("escalated".into(), Json::u64(st.escalated)),
        ("rerun_recovered".into(), Json::u64(st.rerun_recovered)),
        ("oracle_recovered".into(), Json::u64(st.oracle_recovered)),
        ("recovered".into(), Json::u64(st.recovered)),
        ("unrecovered".into(), Json::u64(st.unrecovered)),
        ("escalation_rate".into(), Json::Num(st.escalation_rate())),
        ("recovery_rate".into(), Json::Num(st.recovery_rate())),
    ])
}

/// The closed-loop campaign: detect → escalate → recover → verify, per
/// network; fails the run if the combined detect-and-recover rate over
/// effective faults drops below 99% or anything escalates on a clean run.
fn run_adaptive(
    run: cli::Run,
    nets: &[String],
    cases: usize,
    flips: usize,
    seed: u64,
    tol_bits: u32,
    quick: bool,
) {
    println!(
        "Adaptive fault campaign (detect-escalate-recover): {cases} cases/net, {flips} bit \
         flips + exhaustive dropout, seed {seed:#x}, tol 2^-{tol_bits}"
    );
    println!(
        "{:<6} {:>9} {:>8} {:>7} {:>10} {:>10} {:>12} {:>9}",
        "net", "injected", "masked", "missed", "escalated", "recovered", "unrecovered", "recovery"
    );
    println!("{}", "-".repeat(78));
    let mut per_net = Vec::new();
    let mut parts = Vec::new();
    for (ni, name) in nets.iter().enumerate() {
        let t = target(name).expect("validated above");
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_add(ni as u64));
        let inputs: Vec<Vec<f64>> = (0..cases).map(|_| gen_case(&t, &mut rng)).collect();
        let mut faults = fault::sample_bit_flips(&t.net, flips, seed ^ (ni as u64) << 8);
        faults.extend(fault::all_dropouts(&t.net));
        let st = fault::adaptive_campaign(&t.net, &inputs, &faults, t.q, tol_bits);
        println!(
            "{:<6} {:>9} {:>8} {:>7} {:>10} {:>10} {:>12} {:>8.2}%",
            t.name,
            st.injected,
            st.masked,
            st.missed,
            st.escalated,
            st.recovered,
            st.unrecovered,
            100.0 * st.recovery_rate(),
        );
        per_net.push((t.name.to_string(), adaptive_stats_json(&st)));
        parts.push(st);
    }
    let total = fault::merge_adaptive_stats(&parts);
    println!("{}", "-".repeat(78));
    println!(
        "{:<6} {:>9} {:>8} {:>7} {:>10} {:>10} {:>12} {:>8.2}%",
        "total",
        total.injected,
        total.masked,
        total.missed,
        total.escalated,
        total.recovered,
        total.unrecovered,
        100.0 * total.recovery_rate(),
    );

    let manifest = run
        .manifest(if quick { "quick" } else { "full" }, 0)
        .with_extra("cases_per_net", Json::u64(cases as u64))
        .with_extra("bit_flips_per_net", Json::u64(flips as u64))
        .with_extra("seed", Json::u64(seed))
        .with_extra("tol_bits", Json::u64(tol_bits as u64))
        .with_extra("per_net", Json::Obj(per_net))
        .with_extra("total", adaptive_stats_json(&total))
        .with_extra("registry", mf_telemetry::registry::snapshot_json());
    run.finish(Some(manifest), &history::platform_label());

    let mut failed = false;
    if total.recovery_rate() < 0.99 {
        eprintln!(
            "FAIL: combined detect-and-recover rate {:.4} below the 0.99 floor",
            total.recovery_rate()
        );
        failed = true;
    }
    if total.clean_escalations > 0 {
        eprintln!(
            "FAIL: {} false escalation(s) on clean runs",
            total.clean_escalations
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "\nok: {:.2}% of effective faults detected and recovered \
         ({} via re-run, {} via exact oracle), no false escalations",
        100.0 * total.recovery_rate(),
        total.rerun_recovered,
        total.oracle_recovered,
    );
}

fn stats_json(st: &FaultStats) -> Json {
    Json::Obj(vec![
        ("cases".into(), Json::u64(st.cases)),
        ("clean_alarms".into(), Json::u64(st.clean_alarms)),
        ("injected".into(), Json::u64(st.injected)),
        ("masked".into(), Json::u64(st.masked)),
        ("effective".into(), Json::u64(st.effective)),
        ("tier1_detected".into(), Json::u64(st.t1_detected)),
        ("dmr_detected".into(), Json::u64(st.dmr_detected)),
        ("detected".into(), Json::u64(st.detected)),
        ("tier1_rate".into(), Json::Num(st.t1_rate())),
        ("detection_rate".into(), Json::Num(st.detection_rate())),
    ])
}

/// Throughput-style timing: sweep the operand array `sweeps` times,
/// folding every result head — and the guard alarm bit, so the detector
/// computation is live and can't be dead-code-eliminated — into
/// accumulators (one `sink` per sweep keeps the optimizer honest without
/// serializing individual ops). Returns ns/op. Throughput is the
/// representative regime — these kernels are branch-free precisely so they
/// pipeline across array elements — and it is where detector ALU work
/// overlaps the FP latency it guards.
fn sweep_ns_per_op<const N: usize, F: Fn(MultiFloat<f64, N>, MultiFloat<f64, N>) -> (f64, bool)>(
    pairs: &[(MultiFloat<f64, N>, MultiFloat<f64, N>)],
    sweeps: usize,
    f: F,
) -> f64 {
    let t = Instant::now();
    for _ in 0..sweeps {
        let mut acc = 0.0;
        let mut alarm = false;
        for &(a, b) in pairs {
            let (v, flag) = f(a, b);
            acc += v;
            alarm |= flag;
        }
        sink(acc + (alarm as u64) as f64);
    }
    t.elapsed().as_nanos() as f64 / (sweeps * pairs.len()) as f64
}

/// Guard overhead on clean inputs: raw op vs `checked_*` under FastOnly
/// (detectors run, recovery never taken). Each configuration is measured
/// `reps` times interleaved and the minimum kept — the run-to-run noise on
/// these short sweeps (±5%) is all upward, so min-of-reps is the standard
/// estimator for the true cost. Returns (raw_ns, checked_ns).
fn overhead<const N: usize>(
    op: &str,
    pairs: &[(MultiFloat<f64, N>, MultiFloat<f64, N>)],
    sweeps: usize,
    reps: usize,
) -> (f64, f64) {
    let (mut raw, mut checked) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        let r = match op {
            "mul" => sweep_ns_per_op(pairs, sweeps, |a, b| (a.mul(b).hi(), false)),
            "div" => sweep_ns_per_op(pairs, sweeps, |a, b| (a.div(b).hi(), false)),
            "sqrt" => sweep_ns_per_op(pairs, sweeps, |a, _| (a.abs().sqrt().hi(), false)),
            _ => unreachable!(),
        };
        let c = match op {
            "mul" => sweep_ns_per_op(pairs, sweeps, |a, b| {
                let g = a.checked_mul(b, GuardPolicy::FastOnly);
                (g.value.hi(), g.flags.any())
            }),
            "div" => sweep_ns_per_op(pairs, sweeps, |a, b| {
                let g = a.checked_div(b, GuardPolicy::FastOnly);
                (g.value.hi(), g.flags.any())
            }),
            "sqrt" => sweep_ns_per_op(pairs, sweeps, |a, _| {
                let g = a.abs().checked_sqrt(GuardPolicy::FastOnly);
                (g.value.hi(), g.flags.any())
            }),
            _ => unreachable!(),
        };
        raw = raw.min(r);
        checked = checked.min(c);
    }
    (raw, checked)
}

/// Run the overhead ablation for one format, printing a table row per op
/// and returning manifest entries.
fn overhead_for_format<const N: usize>(seed: u64, sweeps: usize) -> Vec<(String, Json)> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x0ead ^ N as u64);
    let pairs: Vec<(MultiFloat<f64, N>, MultiFloat<f64, N>)> = (0..256)
        .map(|_| {
            let ea = rng.gen_range(-40..40);
            let x = random_expansion::<f64>(&mut rng, N, ea);
            let eb = rng.gen_range(-40..40);
            let y = random_expansion::<f64>(&mut rng, N, eb);
            let mut cx = [0.0; N];
            cx.copy_from_slice(&x);
            let mut cy = [0.0; N];
            cy.copy_from_slice(&y);
            (
                MultiFloat::<f64, N>::from_components_renorm(cx),
                MultiFloat::<f64, N>::from_components_renorm(cy),
            )
        })
        .collect();
    let mut entries = Vec::new();
    for op in ["mul", "div", "sqrt"] {
        // Warm up once so the first measured op doesn't pay page faults.
        let (_, _) = overhead(op, &pairs, sweeps / 10, 1);
        let (raw, checked) = overhead(op, &pairs, sweeps, 5);
        let pct = 100.0 * (checked - raw) / raw;
        println!("f64x{N} {op:<5} {raw:>10.2} {checked:>12.2} {pct:>9.2}%");
        entries.push((
            format!("f64x{N}_{op}"),
            Json::Obj(vec![
                ("raw_ns".into(), Json::Num(raw)),
                ("checked_ns".into(), Json::Num(checked)),
                ("overhead_pct".into(), Json::Num(pct)),
            ]),
        ));
    }
    entries
}

fn main() {
    let (mut run, args) = cli::Run::start(&TOOL);
    let quick = mf_bench::quick_mode();
    let all_nets = TARGETS.map(|t| t.0);
    let mut nets: Vec<String> = all_nets.iter().map(|s| s.to_string()).collect();
    let mut cases: usize = if quick { 8 } else { 50 };
    let mut flips: usize = if quick { 128 } else { 1_500 };
    let mut seed: u64 = 0xFA07_5EED;
    let mut tol_bits: u32 = 40;
    let mut adaptive = false;
    for a in args {
        match a.flag {
            "--adaptive" => adaptive = true,
            "--nets" => {
                nets = a
                    .value
                    .split(',')
                    .map(|s| {
                        let s = s.trim();
                        if !all_nets.contains(&s) {
                            run.usage_error(&format!(
                                "unknown network '{s}' (expected one of {})",
                                all_nets.join(", ")
                            ))
                        }
                        s.to_string()
                    })
                    .collect();
            }
            "--cases" => cases = run.count(&a),
            "--flips" => flips = run.value(&a, "a non-negative integer"),
            "--seed" => seed = run.seed(&a),
            "--tol" => tol_bits = run.value(&a, "a bit count"),
            _ => unreachable!("flag not declared in TOOL"),
        }
    }

    if adaptive {
        run.rename(
            "faultsim-adaptive",
            "results/manifest_faultsim_adaptive.json",
        );
        run_adaptive(run, &nets, cases, flips, seed, tol_bits, quick);
        return;
    }

    println!(
        "Fault-injection campaign: {cases} cases/net, {flips} bit flips + exhaustive dropout, \
         seed {seed:#x}, tol 2^-{tol_bits}"
    );
    println!(
        "{:<6} {:>9} {:>8} {:>10} {:>9} {:>9} {:>7}",
        "net", "injected", "masked", "effective", "tier1", "combined", "alarms"
    );
    println!("{}", "-".repeat(64));

    let mut per_net = Vec::new();
    let mut parts = Vec::new();
    for (ni, name) in nets.iter().enumerate() {
        let t = target(name).expect("validated above");
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_add(ni as u64));
        let inputs: Vec<Vec<f64>> = (0..cases).map(|_| gen_case(&t, &mut rng)).collect();
        let mut faults = fault::sample_bit_flips(&t.net, flips, seed ^ (ni as u64) << 8);
        faults.extend(fault::all_dropouts(&t.net));
        let st = fault::campaign(&t.net, &inputs, &faults, t.q, tol_bits);
        println!(
            "{:<6} {:>9} {:>8} {:>10} {:>8.2}% {:>8.2}% {:>7}",
            t.name,
            st.injected,
            st.masked,
            st.effective,
            100.0 * st.t1_rate(),
            100.0 * st.detection_rate(),
            st.clean_alarms
        );
        per_net.push((t.name.to_string(), stats_json(&st)));
        parts.push(st);
    }
    let total = fault::merge_stats(&parts);
    println!("{}", "-".repeat(64));
    println!(
        "{:<6} {:>9} {:>8} {:>10} {:>8.2}% {:>8.2}% {:>7}",
        "total",
        total.injected,
        total.masked,
        total.effective,
        100.0 * total.t1_rate(),
        100.0 * total.detection_rate(),
        total.clean_alarms
    );

    // Guard overhead on clean inputs: checked_* (FastOnly) vs raw ops,
    // across the three f64 formats. The fixed per-call detector cost
    // (a few ns of integer compares) amortizes against the kernel cost,
    // so the wide formats — where collapse recovery matters most — carry
    // the smallest relative overhead.
    let sweeps = if quick { 2_000 } else { 20_000 };
    let total_ops = sweeps * 256;
    println!("\nGuard overhead on clean inputs (FastOnly, {total_ops} ops/config):");
    println!(
        "{:<11} {:>10} {:>12} {:>10}",
        "format/op", "raw ns", "checked ns", "overhead"
    );
    let mut overheads = Vec::new();
    overheads.extend(overhead_for_format::<2>(seed, sweeps));
    overheads.extend(overhead_for_format::<3>(seed, sweeps));
    overheads.extend(overhead_for_format::<4>(seed, sweeps));

    let manifest = run
        .manifest(if quick { "quick" } else { "full" }, 0)
        .with_extra("cases_per_net", Json::u64(cases as u64))
        .with_extra("bit_flips_per_net", Json::u64(flips as u64))
        .with_extra("seed", Json::u64(seed))
        .with_extra("tol_bits", Json::u64(tol_bits as u64))
        .with_extra("per_net", Json::Obj(per_net))
        .with_extra("total", stats_json(&total))
        .with_extra("guard_overhead", Json::Obj(overheads))
        .with_extra("registry", mf_telemetry::registry::snapshot_json());
    run.finish(Some(manifest), &history::platform_label());

    let mut failed = false;
    if total.detection_rate() < 0.99 {
        eprintln!(
            "FAIL: combined detection rate {:.4} below the 0.99 floor",
            total.detection_rate()
        );
        failed = true;
    }
    if total.clean_alarms > 0 {
        eprintln!(
            "FAIL: tier-1 detectors raised {} false alarm(s) on clean runs",
            total.clean_alarms
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "\nok: {:.2}% of effective faults detected (tier 1 alone: {:.2}%), no false alarms",
        100.0 * total.detection_rate(),
        100.0 * total.t1_rate()
    );
}
