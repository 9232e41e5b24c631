//! The repository benchmark's measuring process. `run.py` builds it (once
//! per feature set) and drives it; it can also be run directly:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--setup-only] [--spans-dir <dir>]
//! ```
//!
//! One client thread runs a closed loop of units. The last line of stdout
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics` and an
//! `info` object recording what was actually measured.

mod inputs;
mod measure;
mod workloads;

use measure::{cpu_seconds, peak_rss_mb, percentile, self_times, Tracer};
use mf_blas::{parallel, pool, simd};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{dd, refine, wide, CallTime, Layer, Workload};

/// Environment variables that change what the library runs. A stray one
/// would silently measure a different program, so the benchmark refuses.
const PINNED_ENV: [&str; 10] = [
    "MF_SIMD",
    "MF_BLAS_THREADS",
    "MF_BLAS_POOL",
    "MF_AUDIT_RATE",
    "MF_ALERT_RULES",
    "MF_METRICS_ADDR",
    "MF_METRICS_PERIOD",
    "MF_TRACE",
    "MF_PROFILE",
    "MF_TELEMETRY_LOG",
];

const WORKLOADS: [&str; 4] = [
    "dd-kernels",
    "wide-kernels",
    "wide-kernels-telemetry",
    "refine-solve",
];

/// Every per-layer metric, in `BENCHMARK.json` order. A workload reports 0
/// for a metric of a layer it does not run.
const PER_LAYER: [&str; 42] = [
    "core.add.n3.ns_per_op",
    "core.add.n4.ns_per_op",
    "core.mul.n3.ns_per_op",
    "core.mul.n4.ns_per_op",
    "core.div.n4.ns_per_op",
    "core.sqrt.n4.ns_per_op",
    "blas.kernels.dot.n3.gops",
    "blas.kernels.axpy.n3.gops",
    "blas.kernels.gemv.n3.gops",
    "blas.kernels.gemm.n3.gops",
    "blas.kernels.dot.n4.gops",
    "blas.kernels.axpy.n4.gops",
    "blas.kernels.gemv.n4.gops",
    "blas.kernels.gemm.n4.gops",
    "blas.kernels.gemv.n2.gops",
    "blas.soa.dot.n2.gops",
    "blas.soa.axpy.n2.gops",
    "blas.soa.gemv.n2.gops",
    "blas.tile.gemm.n2.gops",
    "blas.parallel.dot.n2.gops",
    "blas.parallel.gemv.n2.gops",
    "blas.parallel.gemv.n2.efficiency",
    "blas.adaptive.dot.gops",
    "blas.adaptive.dot.escalation_rate",
    "solve.lu_factor.ms",
    "solve.refine.ms_per_solve",
    "solve.refine.ms_per_iter",
    "solve.refine.iters_per_solve",
    "solve.refine.escalations_per_solve",
    "telemetry.audit.sampled_per_unit",
    "telemetry.audit.dropped_ratio",
    "telemetry.audit.violations",
    "core.share",
    "blas.kernels.share",
    "blas.soa.share",
    "blas.tile.share",
    "blas.parallel.share",
    "blas.adaptive.share",
    "solve.lu.share",
    "solve.refine.share",
    "bench.glue.share",
    "trace.overhead_ratio",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
    spans_dir: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        setup_only: false,
        spans_dir: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            a.setup_only = true;
            continue;
        }
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got '{val}'");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&val.as_str()) => a.workload = val.clone(),
            "--workload" => return Err(bad(&format!("expected one of {WORKLOADS:?}"))),
            "--seed" => {
                a.seed = val
                    .parse()
                    .map_err(|_| bad("expected an unsigned integer"))?
            }
            "--seconds" => {
                a.seconds = val.parse().map_err(|_| bad("expected a number"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err(bad("expected a duration in (0, 600]"));
                }
            }
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--spans-dir" => a.spans_dir = Some(val.clone()),
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    if a.workload.is_empty() || a.seconds == 0.0 {
        return Err("--workload and --seconds are required".into());
    }
    Ok(a)
}

/// One timed phase of the closed loop.
struct Phase {
    units: u64,
    mismatched: u64,
    cpu_s: f64,
    wall_s: f64,
    /// Latency of each untraced unit.
    unit_ms: Vec<f64>,
    /// Loop time and unit count of untraced (`[0]`) and traced (`[1]`)
    /// iterations.
    loop_s: [f64; 2],
    count: [u64; 2],
}

impl Phase {
    fn units_per_s(&self, traced: bool) -> f64 {
        let i = usize::from(traced);
        self.count[i] as f64 / self.loop_s[i]
    }
}

/// Run units back to back for `seconds`, comparing each unit's outputs
/// bitwise with `reference` (the warm-up unit's). With `tracer` on, every
/// other unit is traced, so the traced and untraced throughputs come from
/// interleaved units and machine drift cancels out of their ratio.
fn run_phase(w: &mut dyn Workload, tr: &mut Tracer, seconds: f64, reference: &[u64]) -> Phase {
    let tracing = tr.is_on();
    let mut buf = Vec::with_capacity(reference.len());
    let mut p = Phase {
        units: 0,
        mismatched: 0,
        cpu_s: 0.0,
        wall_s: 0.0,
        unit_ms: Vec::new(),
        loop_s: [0.0; 2],
        count: [0; 2],
    };
    let budget = Duration::from_secs_f64(seconds);
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    while start.elapsed() < budget {
        let traced = tracing && p.units % 2 == 1;
        tr.set_on(traced);
        tr.set_unit(p.units as u32);
        let t = Instant::now();
        let root = tr.open(Tracer::UNIT);
        w.unit(tr);
        tr.close(root);
        let dt = t.elapsed().as_secs_f64();
        if !traced {
            p.unit_ms.push(dt * 1e3);
        }
        buf.clear();
        w.outputs(&mut buf);
        if buf != reference {
            p.mismatched += 1;
        }
        p.units += 1;
        p.loop_s[usize::from(traced)] += t.elapsed().as_secs_f64();
        p.count[usize::from(traced)] += 1;
    }
    p.wall_s = start.elapsed().as_secs_f64();
    p.cpu_s = cpu_seconds() - cpu0;
    p
}

fn audit_counters() -> [u64; 3] {
    let snap = mf_telemetry::snapshot();
    let get = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };
    [
        get("audit.sampled"),
        get("audit.dropped"),
        get("audit.violations"),
    ]
}

/// Per-layer metrics of the traced phase: each call's self time, the layer
/// shares of unit wall time, and the audit counters.
fn layer_metrics(w: &dyn Workload, tr: &Tracer, units: u64, audit: [u64; 3]) -> Vec<(String, f64)> {
    let calls = w.calls();
    let mut times = vec![CallTime::default(); calls.len()];
    let mut layer_ns = [0u64; Layer::ALL.len()];
    let (mut unit_ns, mut glue_ns) = (0u64, 0u64);
    for (s, self_ns) in tr.spans.iter().zip(self_times(&tr.spans)) {
        if s.name == Tracer::UNIT {
            unit_ns += s.dur_ns();
            glue_ns += self_ns;
            continue;
        }
        let call = &calls[s.name as usize];
        times[s.name as usize].self_ns += self_ns;
        times[s.name as usize].count += 1;
        layer_ns[Layer::ALL
            .iter()
            .position(|l| *l == call.layer)
            .expect("layer listed")] += self_ns;
    }
    let mut m = w.layer_metrics(&times);
    let unit_ns = unit_ns.max(1) as f64;
    for (l, ns) in Layer::ALL.iter().zip(layer_ns) {
        m.push((format!("{}.share", l.name()), ns as f64 / unit_ns));
    }
    m.push(("bench.glue.share".into(), glue_ns as f64 / unit_ns));
    let [sampled, dropped, violations] = audit;
    m.push((
        "telemetry.audit.sampled_per_unit".into(),
        sampled as f64 / units.max(1) as f64,
    ));
    m.push((
        "telemetry.audit.dropped_ratio".into(),
        dropped as f64 / (sampled + dropped).max(1) as f64,
    ));
    m.push(("telemetry.audit.violations".into(), violations as f64));
    m
}

fn write_spans(dir: &str, args: &Args, w: &dyn Workload, tr: &Tracer) -> std::io::Result<()> {
    use std::io::Write;
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/{}-seed{}.tsv", args.workload, args.seed);
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "unit\tspan\tparent\tname\tstart_ns\tend_ns")?;
    for (i, s) in tr.spans.iter().enumerate() {
        let name = if s.name == Tracer::UNIT {
            "unit"
        } else {
            w.calls()[s.name as usize].span
        };
        let parent = if s.parent == measure::NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            f,
            "{}\t{i}\t{parent}\t{name}\t{}\t{}",
            s.unit, s.start_ns, s.end_ns
        )?;
    }
    f.flush()
}

fn json_obj(fields: &[(String, String)]) -> String {
    let mut s = String::from("{");
    for (i, (k, v)) in fields.iter().enumerate() {
        let _ = write!(s, "{}\"{k}\": {v}", if i > 0 { ", " } else { "" });
    }
    s.push('}');
    s
}

fn num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v:?}")
}

fn metric(name: &str, value: f64, unit: &str) -> (String, String) {
    (
        name.to_string(),
        format!("{{\"value\": {}, \"unit\": \"{unit}\"}}", num(value)),
    )
}

fn per_layer_unit(name: &str) -> &'static str {
    match name.rsplit('.').next() {
        Some("ns_per_op") => "ns",
        Some("gops") => "Gop/s",
        Some("ms" | "ms_per_solve" | "ms_per_iter") => "ms",
        Some("share" | "efficiency" | "escalation_rate" | "dropped_ratio" | "overhead_ratio") => {
            "ratio"
        }
        _ => "count",
    }
}

fn run(args: &Args) -> Result<String, String> {
    // Inputs come from the seed before any library call; set-up timing
    // starts after them.
    let seed = args.seed;
    enum Gen {
        Dd(dd::Inputs),
        Wide(wide::Inputs),
        Refine(refine::Inputs),
    }
    let gen = match args.workload.as_str() {
        "dd-kernels" => Gen::Dd(dd::Inputs::generate(seed)),
        "refine-solve" => Gen::Refine(refine::Inputs::generate(seed)),
        _ => Gen::Wide(wide::Inputs::generate(seed)),
    };
    let t0 = Instant::now();
    let isa = simd::active();
    let mut w: Box<dyn Workload> = match gen {
        Gen::Dd(i) => Box::new(dd::DdKernels::setup(i)),
        Gen::Wide(i) => Box::new(wide::WideKernels::setup(i)),
        Gen::Refine(i) => Box::new(refine::RefineSolve::setup(i)),
    };
    w.unit(&mut Tracer::new(false));
    let setup_s = t0.elapsed().as_secs_f64();
    if args.setup_only {
        return Ok(json_obj(&[("setup_s".into(), num(setup_s))]));
    }
    let mut reference = Vec::new();
    w.outputs(&mut reference);

    let before = audit_counters();
    let mut tr = Tracer::new(args.trace);
    let phase = run_phase(w.as_mut(), &mut tr, args.seconds, &reference);
    mf_telemetry::audit::flush(Duration::from_secs(10));
    let after = audit_counters();
    let audit = [0, 1, 2].map(|i| after[i] - before[i]);
    let rss_mb = peak_rss_mb();
    let check = w.check();

    let mut metrics = Vec::new();
    if args.trace {
        let mut m = layer_metrics(w.as_ref(), &tr, phase.count[1], audit);
        m.push((
            "trace.overhead_ratio".into(),
            phase.units_per_s(false) / phase.units_per_s(true),
        ));
        for (name, _) in &m {
            if !PER_LAYER.contains(&name.as_str()) {
                return Err(format!("workload produced undeclared metric {name}"));
            }
        }
        for name in PER_LAYER {
            let v = m.iter().find(|(n, _)| n == name).map_or(0.0, |(_, v)| *v);
            metrics.push(metric(name, v, per_layer_unit(name)));
        }
        if let Some(dir) = &args.spans_dir {
            write_spans(dir, args, w.as_ref(), &tr).map_err(|e| format!("writing spans: {e}"))?;
        }
    } else {
        let mut sorted = phase.unit_ms.clone();
        sorted.sort_by(f64::total_cmp);
        let short = || {
            format!(
                "only {} units: too few for a p90 with 10 samples beyond",
                sorted.len()
            )
        };
        let p50 = percentile(&sorted, 0.5).ok_or_else(short)?;
        let p90 = percentile(&sorted, 0.9).ok_or_else(short)?;
        metrics.push(metric(
            "units_per_s",
            phase.units as f64 / phase.wall_s,
            "1/s",
        ));
        metrics.push(metric("unit_p50_ms", p50, "ms"));
        metrics.push(metric("unit_p90_ms", p90, "ms"));
        metrics.push(metric(
            "cpu_ms_per_unit",
            phase.cpu_s * 1e3 / phase.units as f64,
            "ms",
        ));
        metrics.push(metric("correct_bits", check.min_bits, "bits"));
        metrics.push(metric("setup_s", setup_s, "s"));
        metrics.push(metric("peak_rss_mb", rss_mb, "MiB"));
    }
    let (units, mismatched) = (phase.units, phase.mismatched);
    // A unit fails when its outputs differ from the first unit's; every
    // unit fails when the checked outputs (the last unit's, bitwise those
    // of every matching unit) fail the oracle check.
    let failed = if check.failed > 0 { units } else { mismatched };
    let mut info = vec![
        ("isa".to_string(), format!("\"{}\"", isa.name())),
        ("pool_workers".into(), pool::worker_count().to_string()),
        (
            "call_threads".into(),
            if args.workload == "dd-kernels" {
                dd::THREADS
            } else {
                1
            }
            .to_string(),
        ),
        (
            "default_threads".into(),
            parallel::default_threads().to_string(),
        ),
        (
            "available_parallelism".into(),
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        (
            "features".into(),
            format!(
                "\"{}\"",
                if mf_telemetry::ENABLED {
                    "telemetry"
                } else {
                    "default"
                }
            ),
        ),
        ("audit_rate".into(), num(mf_telemetry::audit::rate())),
        ("setup_s".into(), num(setup_s)),
        ("checked_outputs".into(), check.checked.to_string()),
        ("check_failures".into(), check.failed.to_string()),
        ("mismatched_units".into(), mismatched.to_string()),
        ("min_correct_bits".into(), num(check.min_bits)),
    ];
    if args.trace {
        info.push(("traced_units".into(), phase.count[1].to_string()));
        info.push(("spans".into(), tr.spans.len().to_string()));
    }
    Ok(json_obj(&[
        ("correct".into(), (failed == 0).to_string()),
        ("attempted".into(), units.to_string()),
        ("failed".into(), failed.to_string()),
        ("metrics".into(), json_obj(&metrics)),
        ("info".into(), json_obj(&info)),
    ]))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let stray: Vec<&str> = PINNED_ENV
        .iter()
        .copied()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if !stray.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {stray:?} set: they change what the library runs"
        );
        return ExitCode::from(2);
    }
    let telemetry_workload = args.workload == "wide-kernels-telemetry";
    if telemetry_workload != mf_telemetry::ENABLED {
        eprintln!(
            "perfbench: workload {} needs a build {} the `telemetry` feature",
            args.workload,
            if telemetry_workload {
                "with"
            } else {
                "without"
            }
        );
        return ExitCode::from(2);
    }
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric list here and the `per_layer` list in `BENCHMARK.json`
    /// must name the same metrics in the same order.
    #[test]
    fn per_layer_list_matches_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        let per_layer = &text[text.find("\"per_layer\"").expect("per_layer key")..];
        let names: Vec<&str> = per_layer
            .split("\"name\": \"")
            .skip(1)
            .map(|s| &s[..s.find('"').expect("closing quote")])
            .collect();
        assert_eq!(names, PER_LAYER);
    }
}
