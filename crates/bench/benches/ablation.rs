//! Ablation benchmarks for the design choices called out in DESIGN.md §3:
//!
//! 1. FMA-based `TwoProd` vs Dekker/Veltkamp splitting (17 ops);
//! 2. Karp–Markstein-fused division vs full-precision-reciprocal division;
//! 3. QD sloppy vs accurate (merge-based) addition — the branchy cost;
//! 4. `two_sum` vs `fast_two_sum` gate cost (the FPAN specialization
//!    opportunity);
//! 5. unrolled fixed-sequence kernels vs the rolled generic-N construction
//!    (`addition::add_generic`);
//! 6. telemetry probe overhead — run once with the default build and once
//!    with `--features telemetry` and diff the `telemetry_overhead/*`
//!    numbers for AXPY/DOT/GEMM at N = 2, 3, 4. With the feature off the
//!    probes const-fold to nothing (`mf_telemetry::ENABLED`); with it on
//!    they cost a few counter updates per kernel call, so both builds must
//!    match to within noise at every N.
//!
//! The criterion shim has no bench filtering; set `MF_ABLATION_SKIP` to a
//! comma list of group function names (e.g.
//! `MF_ABLATION_SKIP=telemetry_overhead_ablation`) to skip groups while
//! iterating on one.

use criterion::{criterion_group, criterion_main, Criterion};
use mf_baselines::qd::QuadDouble;
use mf_core::{addition, division};
use mf_core::{F64x3, F64x4};
use mf_eft::{fast_two_sum, two_prod, two_prod_dekker, two_sum};
use std::hint::black_box;

fn eft_ablation(c: &mut Criterion) {
    if std::env::var("MF_ABLATION_SKIP")
        .map(|v| v.contains("eft_ablation"))
        .unwrap_or(false)
    {
        return;
    }
    let mut g = c.benchmark_group("eft");
    let (x, y) = (1.234567890123_f64, 0.987654321098_f64);
    g.bench_function("two_prod_fma", |b| {
        b.iter(|| black_box(two_prod(black_box(x), black_box(y))))
    });
    g.bench_function("two_prod_dekker", |b| {
        b.iter(|| black_box(two_prod_dekker(black_box(x), black_box(y))))
    });
    g.bench_function("two_sum", |b| {
        b.iter(|| black_box(two_sum(black_box(x), black_box(y))))
    });
    g.bench_function("fast_two_sum", |b| {
        b.iter(|| black_box(fast_two_sum(black_box(x), black_box(y))))
    });
    g.finish();
}

fn division_ablation(c: &mut Criterion) {
    if std::env::var("MF_ABLATION_SKIP")
        .map(|v| v.contains("division_ablation"))
        .unwrap_or(false)
    {
        return;
    }
    let mut g = c.benchmark_group("division");
    let b3 = F64x3::from(3.0f64.sqrt()).components();
    let a3 = F64x3::from(std::f64::consts::SQRT_2).components();
    g.bench_function("karp_markstein_N3", |b| {
        b.iter(|| black_box(division::div_karp_markstein(black_box(&b3), black_box(&a3))))
    });
    g.bench_function("via_recip_N3", |b| {
        b.iter(|| black_box(division::div_via_recip(black_box(&b3), black_box(&a3))))
    });
    g.finish();
}

fn kernel_form_ablation(c: &mut Criterion) {
    if std::env::var("MF_ABLATION_SKIP")
        .map(|v| v.contains("kernel_form_ablation"))
        .unwrap_or(false)
    {
        return;
    }
    let mut g = c.benchmark_group("addition_form");
    let a = F64x4::from(1.2345678901234567).components();
    let b = F64x4::from(0.9876543210987654).components();
    g.bench_function("fixed_unrolled_N4", |bch| {
        bch.iter(|| black_box(addition::add(black_box(&a), black_box(&b))))
    });
    g.bench_function("generic_rolled_N4", |bch| {
        bch.iter(|| black_box(addition::add_generic(black_box(&a), black_box(&b))))
    });
    g.finish();
}

fn qd_add_ablation(c: &mut Criterion) {
    if std::env::var("MF_ABLATION_SKIP")
        .map(|v| v.contains("qd_add_ablation"))
        .unwrap_or(false)
    {
        return;
    }
    let mut g = c.benchmark_group("qd_add");
    let a = QuadDouble::from_f64(1.2345678901234567);
    let b2 = QuadDouble::from_f64(-1.2345678901234);
    g.bench_function("sloppy(branchy renorm)", |bch| {
        bch.iter(|| black_box(black_box(a).add(black_box(b2))))
    });
    g.bench_function("accurate(merge+compress)", |bch| {
        bch.iter(|| black_box(black_box(a).accurate_add(black_box(b2))))
    });
    g.finish();
}

/// AXPY/DOT (length 4096) and GEMM (32x32) at width `N`, labelled with
/// the build's telemetry state.
fn telemetry_kernels_at<const N: usize>(g: &mut criterion::BenchmarkGroup<'_>) {
    use mf_bench::workloads::rand_f64s;
    use mf_blas::{kernels, Matrix};
    use mf_core::MultiFloat;
    let state = if mf_telemetry::ENABLED { "on" } else { "off" };
    let (n, m) = (4096, 32);
    let to_mf = MultiFloat::<f64, N>::from;
    let xs: Vec<_> = rand_f64s(1, n).into_iter().map(to_mf).collect();
    let mut ys: Vec<_> = rand_f64s(2, n).into_iter().map(to_mf).collect();
    let alpha = to_mf(1.000000321);
    let mat = |seed| {
        let mut v = rand_f64s(seed, m * m).into_iter().map(to_mf);
        Matrix::from_fn(m, m, |_, _| v.next().unwrap())
    };
    let (a, b) = (mat(3), mat(4));
    let mut cm = Matrix::zeros(m, m);
    g.bench_function(format!("axpy_N{N}_telemetry_{state}"), |bch| {
        bch.iter(|| {
            kernels::axpy(black_box(alpha), black_box(&xs), black_box(&mut ys));
            black_box(ys[0]);
        })
    });
    g.bench_function(format!("dot_N{N}_telemetry_{state}"), |bch| {
        bch.iter(|| black_box(kernels::dot(black_box(&xs), black_box(&ys))))
    });
    g.bench_function(format!("gemm{m}_N{N}_telemetry_{state}"), |bch| {
        bch.iter(|| {
            kernels::gemm(
                black_box(alpha),
                black_box(&a),
                black_box(&b),
                MultiFloat::ZERO,
                &mut cm,
            );
            black_box(cm.data[0]);
        })
    });
}

fn telemetry_overhead_ablation(c: &mut Criterion) {
    if std::env::var("MF_ABLATION_SKIP")
        .map(|v| v.contains("telemetry_overhead_ablation"))
        .unwrap_or(false)
    {
        return;
    }
    let mut g = c.benchmark_group("telemetry_overhead");
    // These kernels cross every instrumented layer (the per-call renorm
    // accounting and audit draw, dispatch probes in mf-blas). Diff the
    // `*_telemetry_on` numbers of a `--features telemetry` run against the
    // `*_telemetry_off` numbers of a default run: at every N they must
    // match to within noise. N >= 3 matters most — those are the widths
    // whose networks renormalize, and an N=2-only ablation cannot see a
    // per-renorm probe cost.
    telemetry_kernels_at::<2>(&mut g);
    telemetry_kernels_at::<3>(&mut g);
    telemetry_kernels_at::<4>(&mut g);
    // Span-tracing cost on the same workload, telemetry builds only.
    // Unarmed = enabled build without `--trace`: each span is one relaxed
    // atomic load. Armed: the full record cost (clock read + two ring-slot
    // writes) until the per-thread ring fills (32Ki spans), after which
    // overflow spans take the cheaper drop path — so the armed number is a
    // steady-state figure, not a first-span figure. Spans in the shipped
    // probes wrap whole chunks/rounds, so per-span cost amortizes over
    // O(n) flops; EXPERIMENTS.md ablation 7 budgets the end-to-end
    // overhead at <= 5%.
    #[cfg(feature = "telemetry")]
    {
        use mf_bench::workloads::rand_f64s;
        use mf_blas::kernels;
        use mf_core::MultiFloat;
        use mf_telemetry::trace;
        let n = 4096;
        let to_mf = MultiFloat::<f64, 2>::from;
        let xs: Vec<_> = rand_f64s(1, n).into_iter().map(to_mf).collect();
        let mut ys: Vec<_> = rand_f64s(2, n).into_iter().map(to_mf).collect();
        let alpha = to_mf(1.000000321);
        // Shadow-audit sampling cost on the same workload (EXPERIMENTS.md
        // numerical-health ablation). Off = rate 0, where the per-call
        // draw short-circuits on the zero threshold; default = 1/1024,
        // the ambient production rate; soak = 0.05, the elevated soak
        // rate. Oracle recomputation happens on the background auditor
        // thread, so the hot-path delta is the Bernoulli draw plus the
        // occasional ring push — the budget is <= 5% at the default rate.
        for (axpy_label, dot_label, rate) in [
            ("axpy_N2_audit_soak", "dot_N2_audit_soak", 0.05),
            (
                "axpy_N2_audit_default",
                "dot_N2_audit_default",
                mf_telemetry::audit::DEFAULT_RATE,
            ),
            ("axpy_N2_audit_off", "dot_N2_audit_off", 0.0),
        ] {
            mf_telemetry::audit::set_rate(rate);
            // Quiesce the auditor before switching rates: the preceding
            // benches at the ambient rate leave a ring backlog, and a
            // mid-sweep auditor would contend with the variant being
            // measured (visible as a spurious slowdown of the rate-0
            // case on single-core hosts).
            let _ = mf_telemetry::audit::flush(std::time::Duration::from_secs(10));
            g.bench_function(axpy_label, |bch| {
                bch.iter(|| {
                    kernels::axpy(black_box(alpha), black_box(&xs), black_box(&mut ys));
                    black_box(ys[0]);
                })
            });
            g.bench_function(dot_label, |bch| {
                bch.iter(|| black_box(kernels::dot(black_box(&xs), black_box(&ys))))
            });
        }
        mf_telemetry::audit::set_rate(mf_telemetry::audit::DEFAULT_RATE);
        g.bench_function("axpy_N2_span_unarmed", |bch| {
            bch.iter(|| {
                let _s = trace::span("ablation.axpy", n as u64);
                kernels::axpy(black_box(alpha), black_box(&xs), black_box(&mut ys));
                black_box(ys[0]);
            })
        });
        trace::arm();
        g.bench_function("axpy_N2_span_armed", |bch| {
            bch.iter(|| {
                let _s = trace::span("ablation.axpy", n as u64);
                kernels::axpy(black_box(alpha), black_box(&xs), black_box(&mut ys));
                black_box(ys[0]);
            })
        });
        // Exposition-endpoint cost on the same workload. Armed = the TCP
        // endpoint is bound but idle: the kernel path is untouched (probes
        // already run; the endpoint only reads on scrape), so this must
        // match the span-armed number. Scraped = a background client
        // hammering /metrics as fast as it can while the kernel runs — the
        // worst case for snapshot-lock contention on the probe registry.
        let exporter = mf_telemetry::expose::serve("127.0.0.1:0").ok();
        if let Some(addr) = exporter {
            g.bench_function("axpy_N2_exporter_armed", |bch| {
                bch.iter(|| {
                    let _s = trace::span("ablation.axpy", n as u64);
                    kernels::axpy(black_box(alpha), black_box(&xs), black_box(&mut ys));
                    black_box(ys[0]);
                })
            });
            let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
            let scraper = {
                let stop = std::sync::Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let _ = mf_telemetry::expose::scrape(&addr, "/metrics");
                    }
                })
            };
            g.bench_function("axpy_N2_exporter_scraped", |bch| {
                bch.iter(|| {
                    let _s = trace::span("ablation.axpy", n as u64);
                    kernels::axpy(black_box(alpha), black_box(&xs), black_box(&mut ys));
                    black_box(ys[0]);
                })
            });
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            let _ = scraper.join();
        }
    }
    g.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .sample_size(30)
        .warm_up_time(std::time::Duration::from_millis(200))
        .measurement_time(std::time::Duration::from_millis(500));
    targets = eft_ablation, division_ablation, qd_add_ablation, kernel_form_ablation, telemetry_overhead_ablation
);
criterion_main!(benches);
