//! Append-only benchmark history (`results/history/bench_history.jsonl`).
//!
//! Every bench binary appends one JSONL record per run (schema
//! [`SCHEMA`]): git revision, platform label, feature flags, and a
//! per-kernel block with the median Gop/s, latency-sketch quantiles,
//! repeat count, and a downsampled per-repeat sample vector. The `trend`
//! binary reads these records — a committed baseline plus fresh appends —
//! and does robust change detection on the medians (see [`crate::trend`]).
//!
//! Knobs:
//!
//! * `MF_HISTORY` — history file path override; `off` disables appends.
//! * `MF_GIT_REV` — revision label override (CI detached heads, tests);
//!   otherwise `git rev-parse --short=12 HEAD`, falling back to `unknown`.
//! * `MF_PLATFORM_LABEL` — platform label recorded with each run.

use crate::GopsMeasurement;
use mf_telemetry::json::Json;
use mf_telemetry::SketchSnapshot;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Schema tag written into every record.
pub const SCHEMA: &str = "mf-bench/history/v1";

/// Samples retained per kernel entry in the history file.
pub const MAX_HISTORY_SAMPLES: usize = 256;

/// One kernel's measurements within a run.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelEntry {
    /// Stable kernel key, e.g. `AXPY/103/mf/soa` or `faultsim/wall_ms`.
    pub name: String,
    /// `gops` (higher is better) or `ms` (lower is better).
    pub unit: String,
    /// Median of `samples`.
    pub median: f64,
    /// Per-iteration latency-sketch quantiles (ns); zero for wall-clock
    /// entries, which have no per-iteration distribution.
    pub p50_ns: u64,
    pub p90_ns: u64,
    pub p99_ns: u64,
    /// Timed repeats behind this entry.
    pub repeats: u64,
    /// Per-repeat values in `unit`, downsampled to
    /// [`MAX_HISTORY_SAMPLES`]. The trend pipeline bootstraps on these.
    pub samples: Vec<f64>,
}

/// One appended run.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryRecord {
    pub tool: String,
    pub git_rev: String,
    pub platform: String,
    pub features: Vec<String>,
    pub quick: bool,
    pub unix_secs: u64,
    pub kernels: Vec<KernelEntry>,
}

/// Median of an unsorted sample set (0.0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

static COLLECTOR: Mutex<Vec<KernelEntry>> = Mutex::new(Vec::new());

/// Append a kernel entry to the in-process collector.
pub fn record(entry: KernelEntry) {
    COLLECTOR
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(entry);
}

/// The history entry for a throughput measurement under `name`: one
/// Gop/s sample per timed iteration, downsampled to
/// [`MAX_HISTORY_SAMPLES`], with the latency-sketch quantiles.
pub fn measurement_entry(name: &str, m: &GopsMeasurement) -> KernelEntry {
    let samples: Vec<f64> = m
        .iter_ns
        .iter()
        .filter(|&&ns| ns > 0.0)
        .map(|&ns| m.ops_per_iter / ns) // ops per ns == Gop/s
        .collect();
    let sketch = SketchSnapshot::from_samples(m.iter_ns.iter().map(|&ns| ns as u64));
    KernelEntry {
        name: name.to_string(),
        unit: "gops".into(),
        median: median(&samples),
        p50_ns: sketch.p50(),
        p90_ns: sketch.p90(),
        p99_ns: sketch.p99(),
        repeats: m.iters,
        samples: crate::downsample(&samples, MAX_HISTORY_SAMPLES),
    }
}

/// Record a throughput measurement under `name` (called by
/// [`crate::measure_kernel`]).
pub fn record_measurement(name: &str, m: &GopsMeasurement) {
    record(measurement_entry(name, m));
}

/// Whether this run has recorded a throughput (`gops`) entry so far.
pub fn measured_throughput() -> bool {
    COLLECTOR
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .any(|e| e.unit == "gops")
}

/// Record a wall-clock entry (`<tool>/wall_ms`) for binaries that do not
/// measure kernel throughput — their runtime still trends.
pub fn record_wall_ms(tool: &str, ms: f64) {
    record(KernelEntry {
        name: format!("{tool}/wall_ms"),
        unit: "ms".into(),
        median: ms,
        p50_ns: 0,
        p90_ns: 0,
        p99_ns: 0,
        repeats: 1,
        samples: vec![ms],
    });
}

/// Snapshot (and clear) the collector — used by [`append_run`] and tests.
pub fn drain() -> Vec<KernelEntry> {
    std::mem::take(&mut *COLLECTOR.lock().unwrap_or_else(|e| e.into_inner()))
}

/// The current git revision label: `MF_GIT_REV` override, then
/// `git rev-parse --short=12 HEAD`, then `unknown`.
pub fn git_rev() -> String {
    if let Ok(v) = std::env::var("MF_GIT_REV") {
        let v = v.trim().to_string();
        if !v.is_empty() {
            return v;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The history file path: `MF_HISTORY` override (`off` disables), default
/// `results/history/bench_history.jsonl`.
pub fn default_path() -> Option<PathBuf> {
    match std::env::var("MF_HISTORY") {
        Ok(v) if v.trim() == "off" => None,
        Ok(v) if !v.trim().is_empty() => Some(PathBuf::from(v.trim())),
        _ => Some(PathBuf::from("results/history/bench_history.jsonl")),
    }
}

/// The `MF_PLATFORM_LABEL` label (empty when unset) — the default
/// platform string for binaries without a richer label of their own.
pub fn platform_label() -> String {
    std::env::var("MF_PLATFORM_LABEL").unwrap_or_default()
}

/// Compiled feature flags relevant to performance comparisons.
pub fn active_features() -> Vec<String> {
    let mut f = Vec::new();
    if mf_telemetry::ENABLED {
        f.push("telemetry".to_string());
    }
    f
}

/// Build a record from the drained collector and append it to the history
/// file. I/O problems warn, never fail — history is advisory for the run
/// that produced it. Returns the record for callers that also want it in
/// a manifest (None when nothing was collected or appends are disabled).
pub fn append_run(tool: &str, platform: &str) -> Option<HistoryRecord> {
    let kernels = drain();
    if kernels.is_empty() {
        return None;
    }
    let rec = HistoryRecord {
        tool: tool.to_string(),
        git_rev: git_rev(),
        platform: platform.to_string(),
        features: active_features(),
        quick: crate::quick_mode(),
        unix_secs: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        kernels,
    };
    if let Some(path) = default_path() {
        match append_record(&rec, &path) {
            Ok(()) => eprintln!("appended history record to {}", path.display()),
            Err(e) => eprintln!(
                "warning: could not append history record to {}: {e}",
                path.display()
            ),
        }
    }
    Some(rec)
}

/// Append one record as a JSONL line, creating parent directories.
pub fn append_record(rec: &HistoryRecord, path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{}", rec.to_json().render())
}

/// Parse a JSONL history file; malformed or foreign-schema lines are
/// skipped (old records must never brick the trend gate).
pub fn parse_jsonl(text: &str) -> Vec<HistoryRecord> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| Json::parse(l).ok())
        .filter_map(|j| HistoryRecord::from_json(&j))
        .collect()
}

/// Read and parse a history file (empty when missing/unreadable).
pub fn load(path: &Path) -> Vec<HistoryRecord> {
    std::fs::read_to_string(path)
        .map(|t| parse_jsonl(&t))
        .unwrap_or_default()
}

impl KernelEntry {
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::str(&self.name)),
            ("unit".into(), Json::str(&self.unit)),
            ("median".into(), Json::Num(self.median)),
            ("p50_ns".into(), Json::u64(self.p50_ns)),
            ("p90_ns".into(), Json::u64(self.p90_ns)),
            ("p99_ns".into(), Json::u64(self.p99_ns)),
            ("repeats".into(), Json::u64(self.repeats)),
            (
                "samples".into(),
                Json::Arr(self.samples.iter().map(|&s| Json::Num(s)).collect()),
            ),
        ])
    }

    pub fn from_json(j: &Json) -> Option<Self> {
        Some(KernelEntry {
            name: j.get("name")?.as_str()?.to_string(),
            unit: j.get("unit")?.as_str()?.to_string(),
            median: j.get("median")?.as_f64()?,
            p50_ns: j.get("p50_ns")?.as_u64()?,
            p90_ns: j.get("p90_ns")?.as_u64()?,
            p99_ns: j.get("p99_ns")?.as_u64()?,
            repeats: j.get("repeats")?.as_u64()?,
            samples: j
                .get("samples")?
                .as_arr()?
                .iter()
                .filter_map(|s| s.as_f64())
                .collect(),
        })
    }
}

impl HistoryRecord {
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::str(SCHEMA)),
            ("tool".into(), Json::str(&self.tool)),
            ("git_rev".into(), Json::str(&self.git_rev)),
            ("platform".into(), Json::str(&self.platform)),
            (
                "features".into(),
                Json::Arr(self.features.iter().map(Json::str).collect()),
            ),
            ("quick".into(), Json::Bool(self.quick)),
            ("unix_secs".into(), Json::u64(self.unix_secs)),
            (
                "kernels".into(),
                Json::Arr(self.kernels.iter().map(KernelEntry::to_json).collect()),
            ),
        ])
    }

    pub fn from_json(j: &Json) -> Option<Self> {
        if j.get("schema")?.as_str()? != SCHEMA {
            return None;
        }
        Some(HistoryRecord {
            tool: j.get("tool")?.as_str()?.to_string(),
            git_rev: j.get("git_rev")?.as_str()?.to_string(),
            platform: j.get("platform")?.as_str()?.to_string(),
            features: j
                .get("features")?
                .as_arr()?
                .iter()
                .filter_map(|f| f.as_str().map(str::to_string))
                .collect(),
            quick: j.get("quick")?.as_bool()?,
            unix_secs: j.get("unix_secs")?.as_u64()?,
            kernels: j
                .get("kernels")?
                .as_arr()?
                .iter()
                .filter_map(KernelEntry::from_json)
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record(rev: &str, med: f64) -> HistoryRecord {
        HistoryRecord {
            tool: "tables".into(),
            git_rev: rev.into(),
            platform: "test".into(),
            features: vec!["telemetry".into()],
            quick: true,
            unix_secs: 1_700_000_000,
            kernels: vec![KernelEntry {
                name: "AXPY/103/mf/aos".into(),
                unit: "gops".into(),
                median: med,
                p50_ns: 100,
                p90_ns: 200,
                p99_ns: 400,
                repeats: 64,
                samples: vec![med * 0.98, med, med * 1.02],
            }],
        }
    }

    #[test]
    fn record_round_trips_through_jsonl() {
        let a = sample_record("aaaa", 1.5);
        let b = sample_record("bbbb", 1.6);
        let text = format!("{}\n{}\n", a.to_json().render(), b.to_json().render());
        let back = parse_jsonl(&text);
        assert_eq!(back, vec![a, b]);
    }

    #[test]
    fn foreign_and_malformed_lines_are_skipped() {
        let good = sample_record("cccc", 2.0);
        let text = format!(
            "not json at all\n{{\"schema\":\"other/v9\"}}\n\n{}\n",
            good.to_json().render()
        );
        assert_eq!(parse_jsonl(&text), vec![good]);
    }

    #[test]
    fn median_handles_even_odd_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn measurement_recording_produces_gops_samples() {
        let m = crate::GopsMeasurement {
            gops: 2.0,
            iters: 4,
            secs: 0.1,
            mean_iter_ns: 500.0,
            stddev_iter_ns: 10.0,
            rel_stddev: 0.02,
            ops_per_iter: 1000.0,
            iter_ns: vec![500.0, 490.0, 510.0, 500.0],
        };
        // Collector is shared process state: drain around the assertion.
        drain();
        record_measurement("TEST/kernel", &m);
        let got = drain();
        assert_eq!(got.len(), 1);
        let e = &got[0];
        assert_eq!(e.name, "TEST/kernel");
        assert_eq!(e.unit, "gops");
        assert_eq!(e.samples.len(), 4);
        // 1000 ops in 500 ns == 2 Gop/s.
        assert!((e.median - 2.0).abs() < 0.1, "median {}", e.median);
        assert!(e.p50_ns >= 256 && e.p50_ns <= 512, "p50 {}", e.p50_ns);
    }

    #[test]
    fn append_and_load_round_trip() {
        let dir = std::env::temp_dir().join("mf_history_test");
        let path = dir.join("h.jsonl");
        let _ = std::fs::remove_file(&path);
        let rec = sample_record("dddd", 1.0);
        append_record(&rec, &path).unwrap();
        append_record(&rec, &path).unwrap();
        assert_eq!(load(&path), vec![rec.clone(), rec]);
        let _ = std::fs::remove_file(&path);
    }
}
