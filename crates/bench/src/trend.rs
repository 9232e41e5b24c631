//! Benchmark trend analysis: robust change detection between a committed
//! baseline and fresh history records (tentpole b; the `trend` binary is a
//! thin wrapper over [`run`]).
//!
//! For every kernel the *current* records measured, the analyzer
//!
//! 1. pools the per-repeat samples from baseline and current records,
//! 2. bootstraps a confidence interval on the relative median change
//!    (resampling both pools, [`TrendConfig::boot_iters`] times),
//! 3. estimates a noise floor from repeated same-revision records (two
//!    runs of the same commit should agree; their spread is measurement
//!    noise, not signal), and
//! 4. flags a regression only when the whole confidence interval sits
//!    beyond `max(threshold, noise_mult * noise)` on the bad side.
//!
//! Change signs are normalized so **negative is always worse**: for
//! `gops` entries a drop in throughput, for `ms` entries a rise in wall
//! time.
//!
//! A kernel's identity is its name *and* the build's feature set
//! ([`build_label`]): default and `--features telemetry` records of the
//! same kernel never pool. [`parity`] pairs them instead, judging the
//! telemetry build against the default build of the same history, so the
//! probes' cost shows up as a trend verdict at every N.

use crate::history::{self, HistoryRecord};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::Path;

/// Analysis knobs.
#[derive(Debug, Clone, Copy)]
pub struct TrendConfig {
    /// Minimum relative change considered meaningful (default 5%).
    pub threshold: f64,
    /// Noise-floor multiplier: effective threshold is
    /// `max(threshold, noise_mult * noise)`.
    pub noise_mult: f64,
    /// Bootstrap resamples per kernel.
    pub boot_iters: usize,
    /// Bootstrap RNG seed (fixed: the gate must be reproducible).
    pub seed: u64,
    /// Minimum pooled samples per side for a verdict.
    pub min_samples: usize,
}

impl Default for TrendConfig {
    fn default() -> Self {
        TrendConfig {
            threshold: 0.05,
            noise_mult: 2.0,
            boot_iters: 300,
            seed: 0x7e4d_11e5,
            min_samples: 3,
        }
    }
}

/// Per-kernel verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Confidently worse than baseline beyond the effective threshold.
    Regression,
    /// Confidently better than baseline beyond the effective threshold.
    Improvement,
    /// Within noise / threshold.
    NoChange,
    /// Too few samples (or no baseline) to judge.
    Insufficient,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Regression => "REGRESSION",
            Verdict::Improvement => "improvement",
            Verdict::NoChange => "no change",
            Verdict::Insufficient => "insufficient",
        }
    }
}

/// One row of the trend table.
#[derive(Debug, Clone)]
pub struct KernelTrend {
    pub name: String,
    /// [`build_label`] of the records compared (for [`parity`], the
    /// current side's build).
    pub build: String,
    pub unit: String,
    pub baseline_median: f64,
    pub current_median: f64,
    /// Relative median change, sign-normalized so negative is worse.
    pub change: f64,
    /// 95% bootstrap confidence interval on `change`.
    pub ci_lo: f64,
    pub ci_hi: f64,
    /// Same-revision relative noise estimate.
    pub noise: f64,
    /// `max(threshold, noise_mult * noise)`.
    pub effective_threshold: f64,
    /// Pooled baseline samples for this kernel (0 = the baseline has never
    /// measured it — e.g. a newly added per-variant kernel name — which the
    /// gate reports as a data error with a refresh hint, not silence).
    pub baseline_samples: usize,
    pub verdict: Verdict,
}

/// The build a record measured: its feature set joined with `+`, or
/// `default` for a build without features.
pub fn build_label(r: &HistoryRecord) -> String {
    if r.features.is_empty() {
        return "default".into();
    }
    let mut f = r.features.clone();
    f.sort();
    f.join("+")
}

/// All samples for `name` pooled across `records` (only those of `build`,
/// when given), plus the unit.
fn pooled(
    records: &[HistoryRecord],
    name: &str,
    build: Option<&str>,
) -> (Vec<f64>, Option<String>) {
    let mut samples = Vec::new();
    let mut unit = None;
    for r in records
        .iter()
        .filter(|r| build.is_none_or(|b| build_label(r) == b))
    {
        for k in r.kernels.iter().filter(|k| k.name == name) {
            samples.extend(k.samples.iter().copied().filter(|s| s.is_finite()));
            unit.get_or_insert_with(|| k.unit.clone());
        }
    }
    (samples, unit)
}

/// Relative spread of same-revision, same-build medians: for every
/// (revision, build) with two or more records of `name` (of `build` only,
/// when given), `(max - min) / midpoint` of the per-record medians; the
/// noise estimate is the largest such spread, halved (the +/- excursion
/// around the midpoint). Records of different builds are never compared:
/// their difference is signal, not noise.
fn noise_floor(records: &[HistoryRecord], name: &str, build: Option<&str>) -> f64 {
    let mut groups: Vec<((&str, String), Vec<f64>)> = Vec::new();
    for r in records {
        let label = build_label(r);
        if build.is_some_and(|b| b != label) {
            continue;
        }
        for k in r.kernels.iter().filter(|k| k.name == name) {
            if !k.median.is_finite() || k.median == 0.0 {
                continue;
            }
            let key = (r.git_rev.as_str(), label.clone());
            match groups.iter_mut().find(|(g, _)| *g == key) {
                Some((_, v)) => v.push(k.median),
                None => groups.push((key, vec![k.median])),
            }
        }
    }
    let mut worst: f64 = 0.0;
    for (_, meds) in groups.iter().filter(|(_, m)| m.len() >= 2) {
        let max = meds.iter().cloned().fold(f64::MIN, f64::max);
        let min = meds.iter().cloned().fold(f64::MAX, f64::min);
        let mid = 0.5 * (max + min);
        if mid > 0.0 {
            worst = worst.max(0.5 * (max - min) / mid);
        }
    }
    worst
}

/// Bootstrap a 95% CI on the relative median change between two pools.
fn bootstrap_ci(base: &[f64], cur: &[f64], iters: usize, seed: u64) -> (f64, f64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut deltas = Vec::with_capacity(iters);
    let mut rb = vec![0.0; base.len()];
    let mut rc = vec![0.0; cur.len()];
    for _ in 0..iters {
        for s in rb.iter_mut() {
            *s = base[rng.gen_range(0..base.len())];
        }
        for s in rc.iter_mut() {
            *s = cur[rng.gen_range(0..cur.len())];
        }
        let mb = history::median(&rb);
        if mb != 0.0 {
            deltas.push((history::median(&rc) - mb) / mb);
        }
    }
    if deltas.is_empty() {
        return (0.0, 0.0);
    }
    deltas.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let pick = |q: f64| deltas[((deltas.len() - 1) as f64 * q).round() as usize];
    (pick(0.025), pick(0.975))
}

/// Analyze every kernel (name and build) the current records measured
/// against the baseline records of the same build.
pub fn analyze(
    baseline: &[HistoryRecord],
    current: &[HistoryRecord],
    cfg: &TrendConfig,
) -> Vec<KernelTrend> {
    // Kernel identities in first-seen order from the current run.
    let mut ids: Vec<(String, String)> = Vec::new();
    for r in current {
        let build = build_label(r);
        for k in &r.kernels {
            if !ids.iter().any(|(n, b)| *n == k.name && *b == build) {
                ids.push((k.name.clone(), build.clone()));
            }
        }
    }
    // Noise pools same-rev repeats from both files: two clean runs of
    // this commit appended to fresh history raise the floor exactly
    // when they disagree.
    let mut all: Vec<HistoryRecord> = baseline.to_vec();
    all.extend(current.iter().cloned());
    ids.into_iter()
        .map(|(name, build)| {
            let b = Some(build.as_str());
            let (cur, unit) = pooled(current, &name, b);
            let (base, _) = pooled(baseline, &name, b);
            let noise = noise_floor(&all, &name, b);
            judge(name, build, unit, &base, &cur, noise, cfg)
        })
        .collect()
}

/// The kernels [`parity`] judges: those whose name contains this. Only the
/// MultiFloat kernels carry telemetry probes; the comparison libraries (qd,
/// campary, mpsoft) run the same code in both builds, so judging them can
/// only raise false alarms, and their quick-mode numbers are the noisiest
/// (same-build mpsoft repeats differ by up to ~50% on a 2-vCPU host).
pub const PARITY_KERNELS: &str = "/mf/";

/// Telemetry parity: every MultiFloat kernel ([`PARITY_KERNELS`]) measured
/// by both a default and a `telemetry` build of the newest revision in
/// `records` (that of the last record) is judged with the default build as
/// the baseline and the telemetry build as the current side, so a
/// [`Verdict::Regression`] is a confident probe cost beyond the effective
/// threshold. Older revisions and kernels measured by only one build are
/// left out.
pub fn parity(records: &[HistoryRecord], cfg: &TrendConfig) -> Vec<KernelTrend> {
    let Some(newest) = records.last().map(|r| r.git_rev.as_str()) else {
        return Vec::new();
    };
    let records: Vec<HistoryRecord> = records
        .iter()
        .filter(|r| r.git_rev == newest)
        .map(|r| {
            let mut r = r.clone();
            r.kernels.retain(|k| k.name.contains(PARITY_KERNELS));
            r
        })
        .collect();
    let (on, off): (Vec<HistoryRecord>, Vec<HistoryRecord>) = records
        .iter()
        .cloned()
        .partition(|r| r.features.iter().any(|f| f == "telemetry"));
    let mut names: Vec<String> = Vec::new();
    for k in on.iter().flat_map(|r| &r.kernels) {
        let paired = off
            .iter()
            .any(|r| r.kernels.iter().any(|o| o.name == k.name));
        if paired && !names.contains(&k.name) {
            names.push(k.name.clone());
        }
    }
    names
        .into_iter()
        .map(|name| {
            let (cur, unit) = pooled(&on, &name, None);
            let (base, _) = pooled(&off, &name, None);
            // Same-rev repeats within each build; never across builds.
            let noise = noise_floor(&records, &name, None);
            judge(name, "telemetry".into(), unit, &base, &cur, noise, cfg)
        })
        .collect()
}

/// Verdict for one kernel identity from its two sample pools.
fn judge(
    name: String,
    build: String,
    unit: Option<String>,
    base: &[f64],
    cur: &[f64],
    noise: f64,
    cfg: &TrendConfig,
) -> KernelTrend {
    let unit = unit.unwrap_or_else(|| "gops".into());
    let cur_med = history::median(cur);
    let base_med = history::median(base);
    let eff = cfg.threshold.max(cfg.noise_mult * noise);
    let mut t = KernelTrend {
        name,
        build,
        unit,
        baseline_median: base_med,
        current_median: cur_med,
        change: 0.0,
        ci_lo: 0.0,
        ci_hi: 0.0,
        noise,
        effective_threshold: eff,
        baseline_samples: base.len(),
        verdict: Verdict::Insufficient,
    };
    if base.len() < cfg.min_samples || cur.len() < cfg.min_samples || base_med == 0.0 {
        return t;
    }

    // Sign normalization: for ms entries lower is better, so flip.
    let sign = if t.unit == "ms" { -1.0 } else { 1.0 };
    t.change = sign * (cur_med - base_med) / base_med;
    let (lo_raw, hi_raw) = bootstrap_ci(base, cur, cfg.boot_iters, cfg.seed);
    (t.ci_lo, t.ci_hi) = if sign < 0.0 {
        (-hi_raw, -lo_raw)
    } else {
        (lo_raw, hi_raw)
    };
    t.verdict = if t.ci_hi < -eff {
        Verdict::Regression
    } else if t.ci_lo > eff {
        Verdict::Improvement
    } else {
        Verdict::NoChange
    };
    t
}

/// Render the per-kernel regression/improvement table.
pub fn render_table(trends: &[KernelTrend]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<34} {:<10} {:>10} {:>10} {:>8} {:>17} {:>7}  {}\n",
        "Kernel", "build", "baseline", "current", "change", "95% CI", "floor", "verdict"
    ));
    out.push_str(&"-".repeat(111));
    out.push('\n');
    for t in trends {
        out.push_str(&format!(
            "{:<34} {:<10} {:>10.4} {:>10.4} {:>7.1}% [{:>6.1}%,{:>6.1}%] {:>6.1}%  {}\n",
            t.name,
            t.build,
            t.baseline_median,
            t.current_median,
            t.change * 100.0,
            t.ci_lo * 100.0,
            t.ci_hi * 100.0,
            t.effective_threshold * 100.0,
            t.verdict.label()
        ));
    }
    out
}

const USAGE: &str = "[--history <jsonl>] [--baseline <jsonl>] [--parity] \
                     [--threshold <frac>] [--min-samples <n>]";

/// The `trend` binary's whole behavior, unit-testable: parse flags, load
/// the baseline and the fresh history, print the table, and return the
/// exit code (0 quiet, 1 regression, 2 usage/data error — including
/// current kernels the baseline has never measured, reported with the
/// `scripts/refresh_baseline.sh` command that fixes it). With `--parity`
/// the history alone is judged: telemetry build against default build
/// ([`run_parity_on_file`]).
pub fn run(args: &[String]) -> i32 {
    let mut cfg = TrendConfig::default();
    let mut history_path =
        history::default_path().unwrap_or_else(|| "results/history/bench_history.jsonl".into());
    let mut baseline_path = std::path::PathBuf::from("results/history/baseline.jsonl");
    let mut parity_mode = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--parity" => {
                parity_mode = true;
                i += 1;
            }
            "--history" => {
                history_path = crate::cli::flag_value(args, i, "trend", USAGE).into();
                i += 2;
            }
            "--baseline" => {
                baseline_path = crate::cli::flag_value(args, i, "trend", USAGE).into();
                i += 2;
            }
            "--threshold" => {
                let v = crate::cli::flag_value(args, i, "trend", USAGE);
                match v.parse::<f64>() {
                    Ok(t) if t > 0.0 && t.is_finite() => cfg.threshold = t,
                    _ => crate::cli::usage_error(
                        "trend",
                        USAGE,
                        &format!("--threshold must be a positive fraction, got '{v}'"),
                    ),
                }
                i += 2;
            }
            "--min-samples" => {
                let v = crate::cli::flag_value(args, i, "trend", USAGE);
                match v.parse::<usize>() {
                    Ok(n) if n >= 1 => cfg.min_samples = n,
                    _ => crate::cli::usage_error(
                        "trend",
                        USAGE,
                        &format!("--min-samples must be a positive integer, got '{v}'"),
                    ),
                }
                i += 2;
            }
            other => {
                crate::cli::usage_error("trend", USAGE, &format!("unknown argument '{other}'"))
            }
        }
    }
    if parity_mode {
        return run_parity_on_file(&history_path, &cfg);
    }
    run_on_files(&baseline_path, &history_path, &cfg)
}

/// `--parity`: judge the telemetry build against the default build of the
/// newest revision in the history file ([`parity`]). Exit 0 when no paired
/// kernel is confidently slower with telemetry on, 1 when one is, 2 when
/// the file pairs no kernel (both builds must have appended records).
pub fn run_parity_on_file(history_path: &Path, cfg: &TrendConfig) -> i32 {
    let records = history::load(history_path);
    let trends = parity(&records, cfg);
    if trends.is_empty() {
        eprintln!(
            "trend: error: {} pairs no MultiFloat kernel across the default and telemetry \
             builds of its newest revision (run the same bench binary in both builds first)",
            history_path.display()
        );
        return 2;
    }
    println!(
        "Telemetry parity: default build (baseline column) vs telemetry build (current column), \
         {} record(s)",
        records.len()
    );
    print!("{}", render_table(&trends));
    let slower: Vec<&KernelTrend> = trends
        .iter()
        .filter(|t| t.verdict == Verdict::Regression)
        .collect();
    if slower.is_empty() {
        println!("\ntelemetry parity holds ({} kernels)", trends.len());
        return 0;
    }
    print_confident(
        &format!("{} kernel(s) SLOWER with telemetry on", slower.len()),
        &slower,
    );
    1
}

/// Print `title` and one line per confident verdict in `trends`.
fn print_confident(title: &str, trends: &[&KernelTrend]) {
    println!("\n{title}:");
    for t in trends {
        println!(
            "  {}: {:+.1}% (CI [{:+.1}%, {:+.1}%], floor {:.1}%)",
            t.name,
            t.change * 100.0,
            t.ci_lo * 100.0,
            t.ci_hi * 100.0,
            t.effective_threshold * 100.0
        );
    }
}

/// [`run`] after flag parsing (the testable core).
pub fn run_on_files(baseline_path: &Path, history_path: &Path, cfg: &TrendConfig) -> i32 {
    let baseline = history::load(baseline_path);
    let current = history::load(history_path);
    if baseline.is_empty() {
        eprintln!(
            "trend: error: no baseline records in {} (commit one with a quick bench run)",
            baseline_path.display()
        );
        return 2;
    }
    if current.is_empty() {
        eprintln!(
            "trend: error: no fresh history records in {} (run a bench binary first)",
            history_path.display()
        );
        return 2;
    }
    let trends = analyze(&baseline, &current, cfg);
    println!(
        "Benchmark trend: {} fresh record(s) vs {} baseline record(s)",
        current.len(),
        baseline.len()
    );
    print!("{}", render_table(&trends));
    let regressions: Vec<&KernelTrend> = trends
        .iter()
        .filter(|t| t.verdict == Verdict::Regression)
        .collect();
    let improved = trends
        .iter()
        .filter(|t| t.verdict == Verdict::Improvement)
        .count();
    // Kernels the baseline has never measured (e.g. freshly added
    // per-variant names like AXPY/128/mf/pool) make the gate blind to
    // them; that is a data error (exit 2), not a quiet pass — but a
    // confident regression elsewhere still takes precedence below.
    let unbaselined: Vec<&KernelTrend> = trends
        .iter()
        .filter(|t| t.verdict == Verdict::Insufficient && t.baseline_samples == 0)
        .collect();
    if regressions.is_empty() {
        if !unbaselined.is_empty() {
            println!(
                "\n{} kernel(s) missing from the baseline:",
                unbaselined.len()
            );
            for t in &unbaselined {
                println!("  {}", t.name);
            }
            println!(
                "refresh it with:\n  scripts/refresh_baseline.sh {}",
                baseline_path.display()
            );
            return 2;
        }
        println!(
            "\nno regressions ({} kernels, {} improved)",
            trends.len(),
            improved
        );
        0
    } else {
        print_confident(
            &format!("{} kernel(s) REGRESSED", regressions.len()),
            &regressions,
        );
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::KernelEntry;

    /// A record with one `gops` kernel whose samples cluster tightly
    /// around `med` (relative jitter ~0.5%).
    fn rec(rev: &str, name: &str, med: f64) -> HistoryRecord {
        let samples: Vec<f64> = (0..24)
            .map(|i| med * (1.0 + 0.005 * ((i % 5) as f64 - 2.0) / 2.0))
            .collect();
        HistoryRecord {
            tool: "tables".into(),
            git_rev: rev.into(),
            platform: "test".into(),
            features: vec![],
            quick: true,
            unix_secs: 1_700_000_000,
            kernels: vec![KernelEntry {
                name: name.into(),
                unit: "gops".into(),
                median: crate::history::median(&samples),
                p50_ns: 100,
                p90_ns: 120,
                p99_ns: 150,
                repeats: samples.len() as u64,
                samples,
            }],
        }
    }

    #[test]
    fn ten_percent_regression_is_flagged() {
        let baseline = vec![rec("aaaa", "AXPY/103", 2.0), rec("aaaa", "AXPY/103", 2.0)];
        let current = vec![rec("bbbb", "AXPY/103", 1.8)];
        let trends = analyze(&baseline, &current, &TrendConfig::default());
        assert_eq!(trends.len(), 1);
        assert_eq!(trends[0].verdict, Verdict::Regression, "{:?}", trends[0]);
        assert!(trends[0].change < -0.08 && trends[0].change > -0.12);
        assert!(trends[0].ci_hi < -0.05, "CI must clear the threshold");
    }

    #[test]
    fn clean_same_rev_runs_stay_quiet() {
        let baseline = vec![rec("aaaa", "DOT/208", 1.5)];
        // Two fresh runs of the same revision, unchanged performance.
        let current = vec![rec("aaaa", "DOT/208", 1.5), rec("aaaa", "DOT/208", 1.503)];
        let trends = analyze(&baseline, &current, &TrendConfig::default());
        assert_eq!(trends[0].verdict, Verdict::NoChange, "{:?}", trends[0]);
    }

    #[test]
    fn improvement_is_reported_not_fatal() {
        let baseline = vec![rec("aaaa", "GEMM/103", 1.0)];
        let current = vec![rec("cccc", "GEMM/103", 1.25)];
        let trends = analyze(&baseline, &current, &TrendConfig::default());
        assert_eq!(trends[0].verdict, Verdict::Improvement);
        assert!(trends[0].change > 0.2);
    }

    #[test]
    fn noise_floor_suppresses_marginal_regression() {
        // Same-rev baseline repeats disagree by ~16% -> the floor rises to
        // ~16% and a 6% drop must not gate.
        let baseline = vec![rec("aaaa", "GEMV/156", 2.0), rec("aaaa", "GEMV/156", 1.7)];
        let current = vec![rec("dddd", "GEMV/156", 1.74)];
        let cfg = TrendConfig::default();
        let trends = analyze(&baseline, &current, &cfg);
        assert!(trends[0].noise > 0.05, "noise {:?}", trends[0].noise);
        assert!(trends[0].effective_threshold > cfg.threshold);
        assert_ne!(trends[0].verdict, Verdict::Regression, "{:?}", trends[0]);
    }

    #[test]
    fn ms_entries_regress_on_increase() {
        let mk = |rev: &str, ms: f64| {
            let mut r = rec(rev, "faultsim/wall_ms", ms);
            r.kernels[0].unit = "ms".into();
            r
        };
        let baseline = vec![mk("aaaa", 100.0)];
        let slower = vec![mk("bbbb", 130.0)];
        let faster = vec![mk("bbbb", 80.0)];
        let cfg = TrendConfig::default();
        assert_eq!(
            analyze(&baseline, &slower, &cfg)[0].verdict,
            Verdict::Regression
        );
        assert_eq!(
            analyze(&baseline, &faster, &cfg)[0].verdict,
            Verdict::Improvement
        );
    }

    #[test]
    fn missing_baseline_kernel_is_insufficient() {
        let baseline = vec![rec("aaaa", "AXPY/103", 2.0)];
        let current = vec![rec("bbbb", "NEW/kernel", 1.0)];
        let trends = analyze(&baseline, &current, &TrendConfig::default());
        assert_eq!(trends[0].verdict, Verdict::Insufficient);
        // Distinguishable from "measured but too few samples": the gate
        // turns this into exit 2 with a refresh hint.
        assert_eq!(trends[0].baseline_samples, 0);
    }

    fn telemetry(mut r: HistoryRecord) -> HistoryRecord {
        r.features = vec!["telemetry".into()];
        r
    }

    #[test]
    fn builds_never_pool() {
        // A telemetry baseline at half the default speed must not drag a
        // default-build run into a regression (or pool with it).
        let baseline = vec![
            rec("aaaa", "AXPY/156", 2.0),
            telemetry(rec("aaaa", "AXPY/156", 1.0)),
        ];
        let current = vec![
            rec("bbbb", "AXPY/156", 2.0),
            telemetry(rec("bbbb", "AXPY/156", 1.0)),
        ];
        let trends = analyze(&baseline, &current, &TrendConfig::default());
        assert_eq!(trends.len(), 2, "one row per build");
        assert_eq!(trends[0].build, "default");
        assert_eq!(trends[1].build, "telemetry");
        for t in &trends {
            assert_eq!(t.verdict, Verdict::NoChange, "{t:?}");
            assert_eq!(t.baseline_samples, 24, "only the same build's samples");
        }
        // A kernel the baseline measured only in the other build has no
        // baseline at all.
        let trends = analyze(&baseline[..1], &current[1..], &TrendConfig::default());
        assert_eq!(trends[0].baseline_samples, 0);
    }

    #[test]
    fn parity_flags_a_slow_telemetry_build_at_any_n() {
        let history = vec![
            rec("aaaa", "AXPY/103/mf/aos", 2.0),
            rec("aaaa", "AXPY/156/mf/aos", 1.0),
            telemetry(rec("aaaa", "AXPY/103/mf/aos", 2.0)),
            telemetry(rec("aaaa", "AXPY/156/mf/aos", 0.4)),
            // Unpaired kernels are left out.
            telemetry(rec("aaaa", "ONLY/telemetry/mf/aos", 1.0)),
        ];
        let trends = parity(&history, &TrendConfig::default());
        let names: Vec<&str> = trends.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, ["AXPY/103/mf/aos", "AXPY/156/mf/aos"]);
        assert_eq!(trends[0].verdict, Verdict::NoChange, "{:?}", trends[0]);
        assert_eq!(trends[1].verdict, Verdict::Regression, "{:?}", trends[1]);
        assert!((trends[1].change + 0.6).abs() < 0.01);
    }

    #[test]
    fn parity_judges_only_multifloat_kernels_of_the_newest_rev() {
        // The comparison libraries carry no probes: a slow mpsoft sample in
        // the telemetry build is noise, never a verdict.
        let two = |rev: &str, mf: f64, mp: f64| {
            let mut r = rec(rev, "GEMM/156/mf/aos", mf);
            r.kernels.extend(rec(rev, "GEMM/156/mpsoft", mp).kernels);
            r
        };
        let history = vec![two("bbbb", 1.0, 1.0), telemetry(two("bbbb", 1.0, 0.5))];
        let trends = parity(&history, &TrendConfig::default());
        assert_eq!(trends.len(), 1);
        assert_eq!(trends[0].name, "GEMM/156/mf/aos");
        assert_eq!(trends[0].verdict, Verdict::NoChange, "{:?}", trends[0]);
        // A slow telemetry record of an older revision, appended to the
        // same file earlier, is not judged against the current build.
        let history = vec![
            telemetry(rec("aaaa", "GEMM/156/mf/aos", 0.3)),
            rec("bbbb", "GEMM/156/mf/aos", 1.0),
            telemetry(rec("bbbb", "GEMM/156/mf/aos", 0.99)),
        ];
        let t = &parity(&history, &TrendConfig::default())[0];
        assert_eq!(t.verdict, Verdict::NoChange, "{t:?}");
        assert!((t.current_median - 0.99).abs() < 0.01, "{t:?}");
        // An older revision measured by one build only pairs nothing.
        let history = vec![
            rec("aaaa", "GEMM/156/mf/aos", 1.0),
            telemetry(rec("bbbb", "GEMM/156/mf/aos", 1.0)),
        ];
        assert!(parity(&history, &TrendConfig::default()).is_empty());
    }

    #[test]
    fn parity_noise_never_mixes_builds() {
        // Same-rev repeats of each build agree, so the floor stays at the
        // threshold even though the builds differ by 20%.
        let history = vec![
            rec("aaaa", "DOT/208/mf/aos", 1.0),
            rec("aaaa", "DOT/208/mf/aos", 1.002),
            telemetry(rec("aaaa", "DOT/208/mf/aos", 0.8)),
            telemetry(rec("aaaa", "DOT/208/mf/aos", 0.801)),
        ];
        let t = &parity(&history, &TrendConfig::default())[0];
        assert!(t.noise < 0.01, "noise {}", t.noise);
        assert_eq!(t.verdict, Verdict::Regression);
    }

    #[test]
    fn parity_exit_codes() {
        let dir = std::env::temp_dir().join("mf_trend_parity_test");
        std::fs::create_dir_all(&dir).unwrap();
        let hist_p = dir.join("history.jsonl");
        let cfg = TrendConfig::default();
        let write = |recs: &[HistoryRecord]| {
            let text: String = recs.iter().map(|r| r.to_json().render() + "\n").collect();
            std::fs::write(&hist_p, text).unwrap();
        };
        write(&[
            rec("aaaa", "GEMM/156/mf/aos", 1.0),
            telemetry(rec("aaaa", "GEMM/156/mf/aos", 0.99)),
        ]);
        assert_eq!(run_parity_on_file(&hist_p, &cfg), 0);
        write(&[
            rec("aaaa", "GEMM/156/mf/aos", 1.0),
            telemetry(rec("aaaa", "GEMM/156/mf/aos", 0.5)),
        ]);
        assert_eq!(run_parity_on_file(&hist_p, &cfg), 1);
        // Only comparison-library kernels paired: nothing to judge.
        write(&[
            rec("aaaa", "GEMM/156/mpsoft", 1.0),
            telemetry(rec("aaaa", "GEMM/156/mpsoft", 0.5)),
        ]);
        assert_eq!(run_parity_on_file(&hist_p, &cfg), 2);
        // One build only: nothing to pair.
        write(&[rec("aaaa", "GEMM/156/mf/aos", 1.0)]);
        assert_eq!(run_parity_on_file(&hist_p, &cfg), 2);
        let args = [
            "--parity".to_string(),
            "--history".into(),
            hist_p.display().to_string(),
        ];
        assert_eq!(run(&args), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_on_files_exit_codes() {
        let dir = std::env::temp_dir().join("mf_trend_test");
        std::fs::create_dir_all(&dir).unwrap();
        let base_p = dir.join("baseline.jsonl");
        let hist_p = dir.join("history.jsonl");
        let cfg = TrendConfig::default();

        let write = |p: &std::path::Path, recs: &[HistoryRecord]| {
            let mut text = String::new();
            for r in recs {
                text.push_str(&r.to_json().render());
                text.push('\n');
            }
            std::fs::write(p, text).unwrap();
        };

        // Synthetic 10% regression in the fresh history -> exit 1.
        write(&base_p, &[rec("aaaa", "AXPY/103", 2.0)]);
        write(&hist_p, &[rec("bbbb", "AXPY/103", 1.8)]);
        assert_eq!(run_on_files(&base_p, &hist_p, &cfg), 1);

        // Two clean same-rev runs -> exit 0.
        write(
            &hist_p,
            &[rec("aaaa", "AXPY/103", 2.0), rec("aaaa", "AXPY/103", 2.002)],
        );
        assert_eq!(run_on_files(&base_p, &hist_p, &cfg), 0);

        // A fresh kernel the baseline never measured -> exit 2 (stale
        // baseline is a data error, fixed by refreshing it).
        write(
            &hist_p,
            &[
                rec("aaaa", "AXPY/103", 2.0),
                rec("aaaa", "AXPY/128/mf/pool", 3.0),
            ],
        );
        assert_eq!(run_on_files(&base_p, &hist_p, &cfg), 2);

        // ...but a confident regression still wins over the stale entry.
        write(
            &hist_p,
            &[
                rec("bbbb", "AXPY/103", 1.8),
                rec("bbbb", "AXPY/128/mf/pool", 3.0),
            ],
        );
        assert_eq!(run_on_files(&base_p, &hist_p, &cfg), 1);

        // Missing files -> exit 2.
        assert_eq!(run_on_files(&dir.join("nope.jsonl"), &hist_p, &cfg), 2);
        assert_eq!(run_on_files(&base_p, &dir.join("nope.jsonl"), &cfg), 2);

        let _ = std::fs::remove_dir_all(&dir);
    }
}
