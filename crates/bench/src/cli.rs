//! The run harness the bench binaries share: one flag parser, one start
//! (arm tracing, profiling and the metrics endpoint) and one finish
//! (manifest, history record, trace and profile exports).
//!
//! Each binary declares a [`Tool`]: its own flags, its positional
//! arguments and where its outputs go. [`Run::start`] parses the shared
//! flags (`--manifest`, `--trace`, `--profile`) and hands back only the
//! binary's own flags, in command-line order. Flag typos, missing values
//! and bad counts are *user errors*: they exit with status 2 and the usage
//! line on stderr — never a panic, and before anything is written.

use crate::{history, RunManifest};
use std::time::Instant;

/// One flag a binary accepts besides the shared ones.
#[derive(Debug)]
pub struct Flag {
    pub name: &'static str,
    /// The value's placeholder in the usage line (`<json>`, `N`, ...), or
    /// `None` for a switch.
    pub value: Option<&'static str>,
}

impl Flag {
    /// A flag that takes a value, shown as `[name placeholder]`.
    pub const fn value(name: &'static str, placeholder: &'static str) -> Self {
        Flag {
            name,
            value: Some(placeholder),
        }
    }

    /// A flag without a value.
    pub const fn switch(name: &'static str) -> Self {
        Flag { name, value: None }
    }
}

/// A bench binary's command-line contract and run outputs.
#[derive(Debug)]
pub struct Tool {
    /// Tool name: error prefix, manifest `tool`, history record tool.
    pub name: &'static str,
    /// The binary's own flags.
    pub flags: &'static [Flag],
    /// Usage of the positional arguments; `None` = the binary takes none.
    pub positional: Option<&'static str>,
    /// Default manifest path; `None` = the binary writes no manifest and
    /// takes no `--manifest`.
    pub manifest: Option<&'static str>,
    /// Whether the run appends a history record.
    pub history: bool,
}

/// One of the binary's own flags as given; `value` is empty for a switch.
#[derive(Debug)]
pub struct Arg {
    pub flag: &'static str,
    pub value: String,
}

/// A parsed command line.
#[derive(Debug, Default)]
pub struct Parsed {
    /// The `--manifest` value, if given.
    pub manifest: Option<String>,
    /// Trace path: the `--trace` value, else `MF_TRACE` (empty = unset).
    pub trace: Option<String>,
    /// Profile path: the `--profile` value, else `MF_PROFILE`.
    pub profile: Option<String>,
    /// The binary's own flags, in command-line order.
    pub args: Vec<Arg>,
    pub positional: Vec<String>,
}

/// The usage line: positional arguments, the binary's own flags, then the
/// shared ones.
pub fn usage(tool: &Tool) -> String {
    let own = tool.flags.iter().map(|f| match f.value {
        Some(v) => format!("[{} {v}]", f.name),
        None => format!("[{}]", f.name),
    });
    let manifest = tool.manifest.map(|_| "[--manifest <json>]".to_string());
    tool.positional
        .map(str::to_string)
        .into_iter()
        .chain(own)
        .chain(manifest)
        .chain(["[--trace <json>]".into(), "[--profile <folded>]".into()])
        .collect::<Vec<_>>()
        .join(" ")
}

/// Parse `args` (without the program name) for `tool`, reading the
/// `MF_TRACE`/`MF_PROFILE` fallbacks through `env`. A flag beats its
/// environment variable. `Err` carries the message for a usage error.
pub fn parse(
    tool: &Tool,
    args: &[String],
    env: impl Fn(&str) -> Option<String>,
) -> Result<Parsed, String> {
    let mut p = Parsed::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{a} requires a value"))
        };
        match a.as_str() {
            "--manifest" if tool.manifest.is_some() => p.manifest = Some(value()?),
            "--trace" => p.trace = Some(value()?),
            "--profile" => p.profile = Some(value()?),
            _ => match tool.flags.iter().find(|f| f.name == a) {
                Some(f) => p.args.push(Arg {
                    flag: f.name,
                    value: if f.value.is_some() {
                        value()?
                    } else {
                        String::new()
                    },
                }),
                None if tool.positional.is_some() && !a.starts_with("--") => {
                    p.positional.push(a.clone())
                }
                None => return Err(format!("unknown argument '{a}'")),
            },
        }
    }
    let env = |k: &str| env(k).filter(|v| !v.is_empty());
    p.trace = p.trace.or_else(|| env("MF_TRACE"));
    p.profile = p.profile.or_else(|| env("MF_PROFILE"));
    Ok(p)
}

/// A count flag's value: a positive integer (0 counts nothing, so it is
/// rejected like a typo).
pub fn positive_count(v: &str) -> Option<usize> {
    v.parse().ok().filter(|&n| n > 0)
}

/// A seed in decimal or in the `0x` hex form the sweeps print (hex may
/// carry `_` separators), so printed seeds can be pasted back in.
pub fn parse_seed(v: &str) -> Option<u64> {
    match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
        None => v.parse().ok(),
    }
}

/// Print `msg` plus the usage line to stderr and exit with status 2.
pub fn usage_error(tool: &str, usage: &str, msg: &str) -> ! {
    eprintln!("{tool}: error: {msg}");
    eprintln!("usage: {tool} {usage}");
    std::process::exit(2);
}

/// The value following `args[i]` (a `--flag`), or a usage error if the
/// flag is the last argument. For binaries outside the harness (`mfstat`,
/// `trend`), which write no manifest.
pub fn flag_value<'a>(args: &'a [String], i: usize, tool: &str, usage: &str) -> &'a str {
    match args.get(i + 1) {
        Some(v) => v,
        None => usage_error(tool, usage, &format!("{} requires a value", args[i])),
    }
}

/// One bench run from parsed flags to exported outputs.
#[derive(Debug)]
pub struct Run {
    name: &'static str,
    usage: String,
    default_manifest: Option<&'static str>,
    history: bool,
    /// The parsed command line, its own flags handed out by [`Run::start`].
    cmd: Parsed,
    started: Instant,
    /// Result files [`Run::write`] could not write, as error messages.
    failed_writes: Vec<String>,
}

impl Run {
    /// Parse this process's command line for `tool` (a bad flag is a usage
    /// error), arm tracing and profiling when requested, start the metrics
    /// endpoint when `MF_METRICS_ADDR` is set, and hand back the binary's
    /// own flags.
    pub fn start(tool: &Tool) -> (Run, Vec<Arg>) {
        let started = Instant::now();
        let usage = usage(tool);
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut cmd = parse(tool, &args, |k| std::env::var(k).ok())
            .unwrap_or_else(|msg| usage_error(tool.name, &usage, &msg));
        arm("trace", &cmd.trace);
        arm("profile", &cmd.profile);
        metrics_init();
        let own = std::mem::take(&mut cmd.args);
        let run = Run {
            name: tool.name,
            usage,
            default_manifest: tool.manifest,
            history: tool.history,
            cmd,
            started,
            failed_writes: Vec::new(),
        };
        (run, own)
    }

    /// Print `msg` plus the usage line to stderr and exit with status 2.
    pub fn usage_error(&self, msg: &str) -> ! {
        usage_error(self.name, &self.usage, msg)
    }

    /// The usage error for a flag value that is not what the flag `expects`.
    fn bad_value(&self, arg: &Arg, expects: &str) -> ! {
        self.usage_error(&format!(
            "{} expects {expects}, got '{}'",
            arg.flag, arg.value
        ))
    }

    /// `arg`'s value as a count: a positive integer, else a usage error.
    pub fn count(&self, arg: &Arg) -> usize {
        positive_count(&arg.value).unwrap_or_else(|| self.bad_value(arg, "a positive integer"))
    }

    /// `arg`'s value parsed as `T`, else a usage error naming what the
    /// flag `expects`.
    pub fn value<T: std::str::FromStr>(&self, arg: &Arg, expects: &str) -> T {
        arg.value
            .parse()
            .unwrap_or_else(|_| self.bad_value(arg, expects))
    }

    /// `arg`'s value as a seed (see [`parse_seed`]), else a usage error.
    pub fn seed(&self, arg: &Arg) -> u64 {
        parse_seed(&arg.value)
            .unwrap_or_else(|| self.bad_value(arg, "an integer (decimal or 0x hex)"))
    }

    /// The positional arguments, in command-line order.
    pub fn positional(&self) -> &[String] {
        &self.cmd.positional
    }

    /// Run under another tool name with another default manifest path (an
    /// explicit `--manifest` still wins).
    pub fn rename(&mut self, name: &'static str, default_manifest: &'static str) {
        self.name = name;
        self.default_manifest = Some(default_manifest);
    }

    /// Write a result file (see [`write_output`]). A failed write does not
    /// stop the run: [`Run::finish`] still writes the manifest and the
    /// history record, then reports the error and exits with status 1.
    pub fn write(&mut self, path: &str, contents: &str) {
        if let Err(msg) = write_output(path, contents) {
            self.failed_writes.push(msg);
        }
    }

    /// This run's manifest for `config` and `threads`, stamped now.
    pub fn manifest(&self, config: &str, threads: usize) -> RunManifest {
        RunManifest::collect(self.name, config, threads, self.started)
    }

    /// Finish the run: write `manifest` (for a tool that writes one), append
    /// the history record under `platform` — with a `{tool}/wall_ms` entry
    /// when the run measured no throughput kernel — and export the trace
    /// and the profile. If a [`Run::write`] failed, print its error and
    /// exit with status 1 after all that.
    pub fn finish(self, manifest: Option<RunManifest>, platform: &str) {
        let path = self
            .cmd
            .manifest
            .or(self.default_manifest.map(String::from));
        if let (Some(m), Some(path)) = (manifest, path) {
            match m.write(std::path::Path::new(&path)) {
                Ok(()) => eprintln!("wrote {path}"),
                // A read-only results directory must not kill a finished run.
                Err(e) => eprintln!("warning: could not write manifest {path}: {e}"),
            }
        }
        if self.history {
            if !history::measured_throughput() {
                let ms = self.started.elapsed().as_secs_f64() * 1e3;
                history::record_wall_ms(self.name, ms);
            }
            history::append_run(self.name, platform);
        }
        if let Some(p) = &self.cmd.trace {
            export(p, "trace", mf_telemetry::trace::export_chrome, || {
                let dropped = mf_telemetry::trace::dropped_spans();
                let events = mf_telemetry::trace::recorded_events();
                if dropped > 0 {
                    format!("{events} events, {dropped} spans dropped on full buffers")
                } else {
                    format!("{events} events")
                }
            });
        }
        if let Some(p) = &self.cmd.profile {
            export(p, "profile", mf_telemetry::profile::export_folded, || {
                format!("{} span paths", mf_telemetry::profile::aggregate().len())
            });
        }
        if !self.failed_writes.is_empty() {
            for msg in &self.failed_writes {
                eprintln!("{}: error: {msg}", self.name);
            }
            std::process::exit(1);
        }
    }
}

/// Write `contents` to the result file `path`, creating missing parent
/// directories as the manifest writer does, and note the write on stderr.
/// The error message names the path.
pub fn write_output(path: &str, contents: &str) -> Result<(), String> {
    let p = std::path::Path::new(path);
    let write = || {
        if let Some(parent) = p.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(p, contents)
    };
    write().map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("wrote {path}");
    Ok(())
}

/// Arm span collection for a requested trace or profile (the profiler
/// folds the same ring buffers tracing fills). Warns up front when the
/// binary was built without the `telemetry` feature: the run still
/// completes, it just cannot produce the file.
fn arm(what: &str, path: &Option<String>) {
    if path.is_none() {
        return;
    }
    if !mf_telemetry::ENABLED {
        eprintln!("warning: {what} requested but this binary was built without --features telemetry; no {what} will be written");
        return;
    }
    mf_telemetry::trace::arm();
}

/// Write a span export (a Chrome `trace_event` JSON for Perfetto, or
/// flamegraph folded stacks), warning rather than failing on I/O errors.
fn export(
    path: &str,
    what: &str,
    write: fn(&std::path::Path) -> std::io::Result<()>,
    summary: impl Fn() -> String,
) {
    if !mf_telemetry::ENABLED {
        return; // `arm` already warned
    }
    match write(std::path::Path::new(path)) {
        Ok(()) => eprintln!("wrote {path} ({})", summary()),
        Err(e) => eprintln!("warning: could not write {what} {path}: {e}"),
    }
}

/// Start the live metrics endpoint when `MF_METRICS_ADDR` is set (see
/// `mf_telemetry::expose`): a no-op without the env var or without the
/// `telemetry` feature (with a one-line warning for the latter so a silent
/// scrape failure is explainable).
fn metrics_init() {
    let requested = std::env::var("MF_METRICS_ADDR")
        .map(|v| !v.is_empty())
        .unwrap_or(false);
    if requested && !mf_telemetry::ENABLED {
        eprintln!("warning: MF_METRICS_ADDR set but this binary was built without --features telemetry; no metrics endpoint will be served");
        return;
    }
    mf_telemetry::expose::serve_from_env();
}
