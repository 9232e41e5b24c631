//! Adaptive escalation ladder benchmark (DESIGN.md §11).
//!
//! Measures the two costs that decide whether closing the guard loop is
//! affordable:
//!
//! * **Clean-input overhead** — `checked_mul` under the recovery policy
//!   (`GuardPolicy::OracleFallback`) and the per-chunk adaptive BLAS
//!   (`dot_adaptive`) vs their raw counterparts (`checked_mul` under
//!   `FastOnly`, `kernels::dot`) on well-scaled inputs that never trip a
//!   detector. The promise is that this is just the detector cost (target:
//!   within 5%).
//! * **Escalation cost** — DOT and AXPY on hostile inputs (transient
//!   overflow seeded into one chunk) where the ladder must escalate from
//!   the `N=2` base pass straight to the exact rung (the ladder has no
//!   middle rungs), with the observed per-run escalation rate
//!   (`ADAPT/DOT/{n}/hostile`, `ADAPT/AXPY/{n}/hostile`). The AXPY series
//!   prices the per-element exact path; each of its iterations also
//!   restores `y` (one copy of `n` elements).
//!
//! Gop/s series are recorded into the bench history as `ADAPT/*` kernels so
//! the `trend` gate tracks regressions; escalation rates land in the run
//! manifest under `escalation`.
//!
//! Usage:
//! ```text
//!   cargo run --release -p mf-bench --bin adaptive -- \
//!       [--manifest <json>] [--trace <json>] [--profile <folded>]
//! ```

use mf_bench::workloads::rand_f64s;
use mf_bench::{cli, history, measure_kernel, sink};
use mf_blas::adaptive::{axpy_adaptive, dot_adaptive};
use mf_blas::kernels;
use mf_core::{EscalationPolicy, F64x2, GuardPolicy};
use mf_telemetry::json::Json;

const TOOL: cli::Tool = cli::Tool {
    name: "adaptive",
    flags: &[],
    positional: None,
    manifest: Some("results/manifest_adaptive.json"),
    history: true,
};
const SIZES: [usize; 2] = [1024, 16384];

fn mf_vec(seed: u64, n: usize) -> Vec<F64x2> {
    rand_f64s(seed, n).into_iter().map(F64x2::from).collect()
}

fn main() {
    let (run, _) = cli::Run::start(&TOOL);
    let min_secs = mf_bench::min_secs();
    let policy = EscalationPolicy::default();
    let mut escalation: Vec<(String, Json)> = Vec::new();

    // ---- Scalar recovery: checked_mul under FastOnly vs OracleFallback ---
    let n = 4096usize;
    let a: Vec<F64x2> = mf_vec(11, n);
    let b: Vec<F64x2> = mf_vec(12, n);

    // Accumulate every result head so no iteration is dead code the
    // optimizer can drop from either loop.
    let raw = measure_kernel("ADAPT/MUL/raw", n as f64, min_secs, || {
        let mut acc = 0.0f64;
        for k in 0..n {
            acc += a[k].checked_mul(b[k], GuardPolicy::FastOnly).value.hi();
        }
        sink(acc);
    });
    eprintln!("MUL  n={n:>5} raw      {:>9.4} Gop/s", raw.gops);

    // The `ladder` name keeps the series comparable with earlier history.
    let adp = measure_kernel("ADAPT/MUL/ladder", n as f64, min_secs, || {
        let mut acc = 0.0f64;
        for k in 0..n {
            acc += a[k]
                .checked_mul(b[k], GuardPolicy::OracleFallback)
                .value
                .hi();
        }
        sink(acc);
    });
    let overhead = raw.gops / adp.gops - 1.0;
    eprintln!(
        "MUL  n={n:>5} ladder   {:>9.4} Gop/s  (overhead {:+.2}%)",
        adp.gops,
        overhead * 100.0
    );
    let recovered = (0..n)
        .filter(|&k| {
            a[k].checked_mul(b[k], GuardPolicy::OracleFallback)
                .recovered()
        })
        .count();
    escalation.push((
        "scalar_mul".to_string(),
        Json::Obj(vec![
            ("ops".to_string(), Json::u64(n as u64)),
            ("escalations".to_string(), Json::u64(recovered as u64)),
            ("rate".to_string(), Json::Num(recovered as f64 / n as f64)),
            ("clean_overhead".to_string(), Json::Num(overhead)),
        ]),
    ));

    // ---- BLAS dot: raw kernel vs adaptive ladder, clean inputs ----------
    for &n in &SIZES {
        let x = mf_vec(1, n);
        let y = mf_vec(2, n);

        let raw = measure_kernel(&format!("ADAPT/DOT/{n}/raw"), n as f64, min_secs, || {
            sink(kernels::dot(&x, &y));
        });
        eprintln!("DOT  n={n:>5} raw      {:>9.4} Gop/s", raw.gops);

        let mut last_rate = 0.0;
        let adp = measure_kernel(&format!("ADAPT/DOT/{n}/ladder"), n as f64, min_secs, || {
            let (v, rep) = dot_adaptive(&x, &y, &policy, 1);
            last_rate = rep.escalation_rate();
            sink(v);
        });
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
        // it cancels back to 2^1022, so the chunk must escalate to the
        // exact rung to recover the finite value.
        let big = f64::powi(2.0, 511);
        let huge = f64::powi(2.0, 512);
        x[5] = F64x2::from(big);
        y[5] = F64x2::from(huge);
        x[6] = F64x2::from(big);
        y[6] = F64x2::from(huge);
        x[7] = F64x2::from(huge);
        y[7] = F64x2::from(-1.5 * big);
        let mut last_rate = 0.0;
        let adp = measure_kernel(
            &format!("ADAPT/DOT/{n}/hostile"),
            n as f64,
            min_secs,
            || {
                let (v, rep) = dot_adaptive(&x, &y, &policy, 1);
                last_rate = rep.escalation_rate();
                sink(v);
            },
        );
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
        // back to 2^1023, so that chunk escalates to the exact rung; every
        // element of it is then recomputed exactly.
        let huge = f64::powi(2.0, 512);
        let alpha = F64x2::from(huge);
        x[5] = F64x2::from(huge);
        y0[5] = F64x2::from(-f64::powi(2.0, 1023));
        let mut y = y0.clone();
        let rep = axpy_adaptive(alpha, &x, &mut y, &policy, 1);
        assert_eq!(rep.oracle, 1, "hostile AXPY must reach the exact rung");
        let mut last_rate = 0.0;
        let adp = measure_kernel(
            &format!("ADAPT/AXPY/{n}/hostile"),
            n as f64,
            min_secs,
            || {
                y.copy_from_slice(&y0);
                let rep = axpy_adaptive(alpha, &x, &mut y, &policy, 1);
                last_rate = rep.escalation_rate();
                sink(y[5]);
            },
        );
        eprintln!(
            "AXPY n={n:>5} hostile  {:>9.4} Gop/s  (escalation rate {:.4})",
            adp.gops, last_rate
        );
        escalation.push((
            format!("axpy_hostile_{n}"),
            Json::Obj(vec![("rate".to_string(), Json::Num(last_rate))]),
        ));
    }

    let manifest = run
        .manifest("default", 0)
        .with_extra("escalation", Json::Obj(escalation))
        .with_extra("registry", mf_telemetry::registry::snapshot_json());
    run.finish(Some(manifest), &history::platform_label());
}
