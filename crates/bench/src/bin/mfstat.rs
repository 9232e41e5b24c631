//! `mfstat` — a `top`-style live view of a running mf process.
//!
//! Polls the Prometheus exposition endpoint a bench (or future `mf-serve`)
//! process opened via `MF_METRICS_ADDR` (see `mf_telemetry::expose`) and
//! renders counters with per-interval rates, pool utilization gauges, and
//! per-section latency quantiles, refreshing in place.
//!
//! Usage:
//! ```text
//!   mfstat <host:port> [--period <secs>] [--once] [--raw] [--retries N]
//! ```
//!
//! `--period` defaults to the `MF_METRICS_PERIOD` environment variable,
//! then to 2 seconds. `--once` prints a single snapshot and exits (useful
//! in scripts and CI smoke tests); `--raw` dumps the exposition text
//! verbatim instead of the rendered view.
//!
//! Besides the metrics view, each refresh scrapes `/health` and renders
//! the numerical-health verdict (the alert rules engine's current word on
//! the process — see `mf_telemetry::alert`) as a panel at the top.
//!
//! In watch mode a scrape failure does not kill the view: the target may
//! be restarting, or may not have bound its endpoint yet. mfstat retries
//! with exponential backoff (period → 60 s cap), forever by default;
//! `--retries N` bounds the consecutive-failure budget (exit 1 when
//! exhausted). `--once` still fails fast — scripts want the error.
//!
//! Example:
//!   MF_METRICS_ADDR=127.0.0.1:9184 tables --quick &
//!   mfstat 127.0.0.1:9184
//!
//! The view needs nothing but the text format, so it also works against
//! any other Prometheus-compatible exporter.

use mf_bench::{cli, promtext};
use mf_telemetry::json::Json;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

const USAGE: &str = "<host:port> [--period <secs>] [--once] [--raw] [--retries N]";

fn scrape(addr: &str, path: &str) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_read_timeout(Some(Duration::from_secs(2))).ok();
    stream.set_write_timeout(Some(Duration::from_secs(2))).ok();
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .map_err(|e| format!("send {addr}: {e}"))?;
    let mut text = String::new();
    stream
        .read_to_string(&mut text)
        .map_err(|e| format!("read {addr}: {e}"))?;
    Ok(text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or(text))
}

/// Render the numerical-health panel from a `/health` verdict body. A
/// scrape or parse failure degrades to a one-line notice — the metrics
/// view must keep working against exporters without the route.
fn render_health(body: Result<String, String>) -> String {
    let body = match body {
        Ok(b) => b,
        Err(e) => return format!("health  unavailable ({e})\n\n"),
    };
    let v = match Json::parse(&body) {
        Ok(v) => v,
        Err(_) => return "health  unavailable (endpoint is not a health route)\n\n".into(),
    };
    let healthy = v.get("healthy").and_then(Json::as_bool).unwrap_or(false);
    let evaluations = v.get("evaluations").and_then(Json::as_u64).unwrap_or(0);
    let fired = v.get("fired_total").and_then(Json::as_u64).unwrap_or(0);
    let alerts: &[Json] = v.get("alerts").and_then(Json::as_arr).unwrap_or(&[]);
    let mut out = if healthy {
        format!("health  OK  (evaluations {evaluations}, alerts fired {fired} total)\n")
    } else {
        format!(
            "health  UNHEALTHY — {} alert(s)  (evaluations {evaluations}, fired {fired} total)\n",
            alerts.len()
        )
    };
    for a in alerts {
        let rule = a.get("rule").and_then(Json::as_str).unwrap_or("?");
        let value = a.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        out.push_str(&format!("  {rule:<52} value {value}\n"));
    }
    out.push('\n');
    out
}

/// Render one refresh of the live view. `prev` holds the previous scrape's
/// counter values for the per-interval rate column.
fn render(
    doc: &promtext::Exposition,
    prev: &BTreeMap<String, f64>,
    period: f64,
) -> (String, BTreeMap<String, f64>) {
    let mut out = String::new();
    let mut counters = BTreeMap::new();

    // Gauges first: the "what is happening right now" block.
    let gauges: Vec<_> = doc
        .samples
        .iter()
        .filter(|s| doc.types.get(&s.name).map(String::as_str) == Some("gauge"))
        .collect();
    if !gauges.is_empty() {
        out.push_str("gauges\n");
        for g in &gauges {
            out.push_str(&format!("  {:<40} {:>14}\n", g.name, g.value));
        }
    }

    let counter_samples: Vec<_> = doc
        .samples
        .iter()
        .filter(|s| doc.types.get(&s.name).map(String::as_str) == Some("counter"))
        .collect();
    if !counter_samples.is_empty() {
        out.push_str("counters                                            total        per-sec\n");
        for c in &counter_samples {
            counters.insert(c.name.clone(), c.value);
            let rate = prev
                .get(&c.name)
                .map(|p| (c.value - p).max(0.0) / period.max(1e-9));
            match rate {
                Some(r) => out.push_str(&format!("  {:<40} {:>14} {:>14.1}\n", c.name, c.value, r)),
                None => out.push_str(&format!("  {:<40} {:>14} {:>14}\n", c.name, c.value, "-")),
            }
        }
    }

    // Adaptive ladder: escalation rates derived from the engine counters
    // (cumulative, plus the per-interval rate over escalation deltas).
    let val = |name: &str| counters.get(name).copied();
    let mut adaptive = String::new();
    for (layer, ops_key, esc_key, oracle_key) in [
        (
            "core",
            "mf_core_adaptive_ops_total",
            "mf_core_adaptive_escalations_total",
            "mf_core_adaptive_oracle_falls_total",
        ),
        (
            "blas",
            "mf_blas_adaptive_chunks_total",
            "mf_blas_adaptive_escalations_total",
            "mf_blas_adaptive_oracle_falls_total",
        ),
    ] {
        if let (Some(ops), Some(esc)) = (val(ops_key), val(esc_key)) {
            if ops > 0.0 {
                let d_ops = prev.get(ops_key).map(|p| (ops - p).max(0.0));
                let d_esc = prev.get(esc_key).map(|p| (esc - p).max(0.0));
                let interval = match (d_ops, d_esc) {
                    (Some(o), Some(e)) if o > 0.0 => format!("{:.4}", e / o),
                    _ => "-".into(),
                };
                adaptive.push_str(&format!(
                    "  {:<14} {:>14} {:>14} {:>10} {:>10.4} {:>10}\n",
                    layer,
                    ops,
                    esc,
                    val(oracle_key).unwrap_or(0.0),
                    esc / ops,
                    interval,
                ));
            }
        }
    }
    if !adaptive.is_empty() {
        out.push_str(
            "adaptive                  ops/chunks    escalations     oracle       rate   interval\n",
        );
        out.push_str(&adaptive);
    }

    // Sections: group the summary quantile samples by section label.
    let mut sections: BTreeMap<String, BTreeMap<String, f64>> = BTreeMap::new();
    for s in doc.family("mf_section_seconds") {
        if let (Some(section), Some(q)) = (s.label("section"), s.label("quantile")) {
            sections
                .entry(section.to_string())
                .or_default()
                .insert(q.to_string(), s.value);
        }
    }
    let counts: BTreeMap<&str, f64> = doc
        .family("mf_section_seconds_count")
        .iter()
        .filter_map(|s| Some((s.label("section")?, s.value)))
        .collect();
    if !sections.is_empty() {
        out.push_str(
            "sections                                           calls     p50_ms     p90_ms     p99_ms\n",
        );
        for (name, qs) in &sections {
            let ms = |q: &str| {
                qs.get(q)
                    .map(|v| format!("{:.4}", v * 1e3))
                    .unwrap_or_else(|| "-".into())
            };
            out.push_str(&format!(
                "  {:<46} {:>8} {:>10} {:>10} {:>10}\n",
                name,
                counts.get(name.as_str()).copied().unwrap_or(0.0),
                ms("0.5"),
                ms("0.9"),
                ms("0.99"),
            ));
        }
    }
    (out, counters)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut addr: Option<String> = None;
    let mut period: Option<f64> = None;
    let mut once = false;
    let mut raw = false;
    let mut retries: Option<u32> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--period" => {
                let v = cli::flag_value(&args, i, "mfstat", USAGE);
                period = match v.parse::<f64>() {
                    Ok(p) if p > 0.0 => Some(p),
                    _ => cli::usage_error("mfstat", USAGE, &format!("bad --period '{v}'")),
                };
                i += 2;
            }
            "--once" => {
                once = true;
                i += 1;
            }
            "--raw" => {
                raw = true;
                i += 1;
            }
            "--retries" => {
                let v = cli::flag_value(&args, i, "mfstat", USAGE);
                retries = match v.parse::<u32>() {
                    Ok(r) if r >= 1 => Some(r),
                    _ => cli::usage_error("mfstat", USAGE, &format!("bad --retries '{v}'")),
                };
                i += 2;
            }
            other if addr.is_none() && !other.starts_with('-') => {
                addr = Some(other.to_string());
                i += 1;
            }
            other => cli::usage_error("mfstat", USAGE, &format!("unknown argument '{other}'")),
        }
    }
    let Some(addr) = addr else {
        cli::usage_error("mfstat", USAGE, "missing <host:port>");
    };
    let period = period
        .or_else(|| {
            std::env::var("MF_METRICS_PERIOD")
                .ok()
                .and_then(|v| v.parse().ok())
                .filter(|p: &f64| *p > 0.0)
        })
        .unwrap_or(2.0);

    let mut prev: BTreeMap<String, f64> = BTreeMap::new();
    let mut failures = 0u32;
    loop {
        match scrape(&addr, "/metrics") {
            Ok(text) => {
                failures = 0;
                if raw {
                    print!("{text}");
                } else {
                    let health = scrape(&addr, "/health");
                    let doc = promtext::parse(&text);
                    let (view, counters) = render(&doc, &prev, period);
                    if !once {
                        // ANSI clear + home: refresh in place, top-style.
                        print!("\x1b[2J\x1b[H");
                    }
                    println!("mfstat {addr}  (refresh {period}s, Ctrl-C to quit)\n");
                    print!("{}", render_health(health));
                    print!("{view}");
                    prev = counters;
                }
                let _ = std::io::stdout().flush();
            }
            Err(e) => {
                failures += 1;
                eprintln!("mfstat: {e}");
                if once {
                    std::process::exit(1);
                }
                // In watch mode the target may be restarting or not yet
                // bound: keep trying with exponential backoff (capped at
                // 60 s), forever unless --retries bounds the budget.
                if let Some(r) = retries {
                    if failures >= r {
                        eprintln!("mfstat: giving up after {failures} consecutive failures");
                        std::process::exit(1);
                    }
                }
                let backoff = (period * 2f64.powi(failures.saturating_sub(1).min(6) as i32))
                    .clamp(period, 60.0);
                eprintln!("mfstat: retrying in {backoff:.1}s (failure {failures})");
                std::thread::sleep(Duration::from_secs_f64(backoff));
                continue;
            }
        }
        if once {
            return;
        }
        std::thread::sleep(Duration::from_secs_f64(period));
    }
}
