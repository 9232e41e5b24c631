//! Adaptive escalation ladder benchmark (DESIGN.md §11).
//!
//! Measures the two costs that decide whether closing the guard loop is
//! affordable:
//!
//! * **Clean-input overhead** — the `Adaptive` engine's `checked_*` ops and
//!   the per-chunk adaptive BLAS (`dot_adaptive`) vs their raw counterparts
//!   on well-scaled inputs that never trip a detector. The ladder's promise
//!   is that this is just the detector cost (target: within 5%).
//! * **Escalation cost** — DOT and AXPY on hostile inputs (transient
//!   overflow seeded into one chunk) where the ladder must climb to the
//!   exact rung, with the observed per-run escalation rate
//!   (`ADAPT/DOT/{n}/hostile`, `ADAPT/AXPY/{n}/hostile`). The AXPY series
//!   prices the per-element exact path; each of its iterations also
//!   restores `y` (one copy of `n` elements).
//!
//! Gop/s series are recorded into the bench history as `ADAPT/*` kernels so
//! the `trend` gate tracks regressions; escalation rates land in the run
//! manifest under `escalation`.
//!
//! Usage:
//!   cargo run --release -p mf-bench --bin adaptive -- \
//!       [--manifest <json>] [--trace <json>]

use mf_bench::workloads::rand_f64s;
use mf_bench::{cli, history, measure_gops_detailed, sink, RunManifest};
use mf_blas::adaptive::{axpy_adaptive, dot_adaptive};
use mf_blas::kernels;
use mf_core::{Adaptive, EscalationPolicy, F64x2, GuardPolicy};
use mf_telemetry::json::Json;
use std::time::Instant;

const USAGE: &str = "[--manifest <json>] [--trace <json>]";
const SIZES: [usize; 2] = [1024, 16384];

fn mf_vec(seed: u64, n: usize) -> Vec<F64x2> {
    rand_f64s(seed, n).into_iter().map(F64x2::from).collect()
}

fn main() {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().collect();
    let mut manifest_path = String::from("results/manifest_adaptive.json");
    let mut trace_flag: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--manifest" => {
                manifest_path = cli::flag_value(&args, i, "adaptive", USAGE).to_string();
                i += 2;
            }
            "--trace" => {
                trace_flag = Some(cli::flag_value(&args, i, "adaptive", USAGE).to_string());
                i += 2;
            }
            other => cli::usage_error("adaptive", USAGE, &format!("unknown argument '{other}'")),
        }
    }
    let trace = cli::trace_path(trace_flag);
    cli::trace_arm(&trace);
    cli::metrics_init();

    let min_secs = if mf_bench::quick_mode() { 0.02 } else { 0.2 };
    let policy = EscalationPolicy::default();
    let mut escalation: Vec<(String, Json)> = Vec::new();

    // ---- Scalar engine: raw checked_mul vs Adaptive::checked_mul --------
    let n = 4096usize;
    let a: Vec<F64x2> = mf_vec(11, n);
    let b: Vec<F64x2> = mf_vec(12, n);

    // Accumulate every result head so no iteration is dead code the
    // optimizer can drop from either loop.
    let raw = measure_gops_detailed(n as f64, min_secs, || {
        let mut acc = 0.0f64;
        for k in 0..n {
            acc += a[k].checked_mul(b[k], GuardPolicy::FastOnly).value.hi();
        }
        sink(acc);
    });
    history::record_measurement("ADAPT/MUL/raw", &raw);
    eprintln!("MUL  n={n:>5} raw      {:>9.4} Gop/s", raw.gops);

    let engine = Adaptive::<f64>::new(policy);
    let adp = measure_gops_detailed(n as f64, min_secs, || {
        let mut acc = 0.0f64;
        for k in 0..n {
            acc += engine.checked_mul(a[k], b[k]).value.hi();
        }
        sink(acc);
    });
    history::record_measurement("ADAPT/MUL/ladder", &adp);
    let overhead = raw.gops / adp.gops - 1.0;
    eprintln!(
        "MUL  n={n:>5} ladder   {:>9.4} Gop/s  (overhead {:+.2}%)",
        adp.gops,
        overhead * 100.0
    );
    let stats = engine.stats();
    escalation.push((
        "scalar_mul".to_string(),
        Json::Obj(vec![
            ("ops".to_string(), Json::u64(stats.ops)),
            ("escalations".to_string(), Json::u64(stats.escalations)),
            ("rate".to_string(), Json::Num(stats.escalation_rate())),
            ("clean_overhead".to_string(), Json::Num(overhead)),
        ]),
    ));

    // ---- BLAS dot: raw kernel vs adaptive ladder, clean inputs ----------
    for &n in &SIZES {
        let x = mf_vec(1, n);
        let y = mf_vec(2, n);

        let raw = measure_gops_detailed(n as f64, min_secs, || {
            sink(kernels::dot(&x, &y));
        });
        history::record_measurement(&format!("ADAPT/DOT/{n}/raw"), &raw);
        eprintln!("DOT  n={n:>5} raw      {:>9.4} Gop/s", raw.gops);

        let mut last_rate = 0.0;
        let adp = measure_gops_detailed(n as f64, min_secs, || {
            let (v, rep) = dot_adaptive(&x, &y, &policy, 1);
            last_rate = rep.escalation_rate();
            sink(v);
        });
        history::record_measurement(&format!("ADAPT/DOT/{n}/ladder"), &adp);
        let overhead = raw.gops / adp.gops - 1.0;
        eprintln!(
            "DOT  n={n:>5} ladder   {:>9.4} Gop/s  (overhead {:+.2}%, escalation rate {:.4})",
            adp.gops,
            overhead * 100.0,
            last_rate
        );
        escalation.push((
            format!("dot_clean_{n}"),
            Json::Obj(vec![
                ("rate".to_string(), Json::Num(last_rate)),
                ("clean_overhead".to_string(), Json::Num(overhead)),
            ]),
        ));
    }

    // ---- BLAS dot: hostile inputs (one chunk of transient overflow) -----
    for &n in &SIZES {
        let mut x = mf_vec(3, n);
        let mut y = mf_vec(4, n);
        // Seed a transient overflow into one chunk: partial products
        // [2^1023, 2^1023, -1.5·2^1023] push the running sum to +inf before
        // it cancels back to 2^1022, so the chunk must climb to the oracle
        // to recover the finite value.
        let big = f64::powi(2.0, 511);
        let huge = f64::powi(2.0, 512);
        x[5] = F64x2::from(big);
        y[5] = F64x2::from(huge);
        x[6] = F64x2::from(big);
        y[6] = F64x2::from(huge);
        x[7] = F64x2::from(huge);
        y[7] = F64x2::from(-1.5 * big);
        let mut last_rate = 0.0;
        let adp = measure_gops_detailed(n as f64, min_secs, || {
            let (v, rep) = dot_adaptive(&x, &y, &policy, 1);
            last_rate = rep.escalation_rate();
            sink(v);
        });
        history::record_measurement(&format!("ADAPT/DOT/{n}/hostile"), &adp);
        eprintln!(
            "DOT  n={n:>5} hostile  {:>9.4} Gop/s  (escalation rate {:.4})",
            adp.gops, last_rate
        );
        escalation.push((
            format!("dot_hostile_{n}"),
            Json::Obj(vec![("rate".to_string(), Json::Num(last_rate))]),
        ));
    }

    // ---- BLAS axpy: hostile inputs (one element of transient overflow) --
    for &n in &SIZES {
        let mut x = mf_vec(5, n);
        let mut y0 = mf_vec(6, n);
        // alpha·x[5] = 2^1024 overflows before y[5] = -2^1023 brings it
        // back to 2^1023, so that chunk climbs to the exact rung; every
        // element of it is then recomputed exactly.
        let huge = f64::powi(2.0, 512);
        let alpha = F64x2::from(huge);
        x[5] = F64x2::from(huge);
        y0[5] = F64x2::from(-f64::powi(2.0, 1023));
        let mut y = y0.clone();
        let rep = axpy_adaptive(alpha, &x, &mut y, &policy, 1);
        assert_eq!(rep.oracle, 1, "hostile AXPY must reach the exact rung");
        let mut last_rate = 0.0;
        let adp = measure_gops_detailed(n as f64, min_secs, || {
            y.copy_from_slice(&y0);
            let rep = axpy_adaptive(alpha, &x, &mut y, &policy, 1);
            last_rate = rep.escalation_rate();
            sink(y[5]);
        });
        history::record_measurement(&format!("ADAPT/AXPY/{n}/hostile"), &adp);
        eprintln!(
            "AXPY n={n:>5} hostile  {:>9.4} Gop/s  (escalation rate {:.4})",
            adp.gops, last_rate
        );
        escalation.push((
            format!("axpy_hostile_{n}"),
            Json::Obj(vec![("rate".to_string(), Json::Num(last_rate))]),
        ));
    }

    let manifest = RunManifest::collect("adaptive", "default", 0, started)
        .with_extra("escalation", Json::Obj(escalation))
        .with_extra("registry", mf_telemetry::registry::snapshot_json());
    cli::write_manifest(&manifest, &manifest_path);
    history::record_wall_ms("adaptive", started.elapsed().as_secs_f64() * 1e3);
    history::append_run("adaptive", &history::platform_label());
    cli::trace_finish(&trace);
}
