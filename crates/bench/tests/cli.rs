//! The bench run harness's command-line contract: the parser as a pure
//! function, and every harness binary's exit status 2 on a bad command
//! line (usage line on stderr, nothing written).

use mf_bench::cli::{self, Flag, Tool};
use std::path::PathBuf;
use std::process::Command;

const TOOL: Tool = Tool {
    name: "demo",
    flags: &[Flag::value("--out", "<json>"), Flag::switch("--fast")],
    positional: None,
    manifest: Some("results/manifest_demo.json"),
    history: true,
};

fn args(a: &[&str]) -> Vec<String> {
    a.iter().map(|s| s.to_string()).collect()
}

fn no_env(_: &str) -> Option<String> {
    None
}

#[test]
fn own_flags_come_back_in_order_without_the_shared_ones() {
    let a = args(&["--fast", "--manifest", "m.json", "--out", "o.json"]);
    let p = cli::parse(&TOOL, &a, no_env).unwrap();
    assert_eq!(p.manifest.as_deref(), Some("m.json"));
    let own: Vec<(&str, &str)> = p.args.iter().map(|a| (a.flag, &*a.value)).collect();
    assert_eq!(own, [("--fast", ""), ("--out", "o.json")]);
    assert!(p.positional.is_empty());
}

#[test]
fn trace_and_profile_flags_beat_the_environment() {
    let env = |k: &str| match k {
        "MF_TRACE" => Some("env_trace.json".to_string()),
        "MF_PROFILE" => Some("env.folded".to_string()),
        _ => None,
    };
    let p = cli::parse(&TOOL, &[], env).unwrap();
    assert_eq!(p.trace.as_deref(), Some("env_trace.json"));
    assert_eq!(p.profile.as_deref(), Some("env.folded"));
    let a = args(&["--trace", "t.json", "--profile", "p.folded"]);
    let p = cli::parse(&TOOL, &a, env).unwrap();
    assert_eq!(p.trace.as_deref(), Some("t.json"));
    assert_eq!(p.profile.as_deref(), Some("p.folded"));
    // An empty variable counts as unset.
    let p = cli::parse(&TOOL, &[], |_| Some(String::new())).unwrap();
    assert_eq!((p.trace, p.profile), (None, None));
}

#[test]
fn bad_command_lines_are_errors() {
    let err = |a: &[&str]| cli::parse(&TOOL, &args(a), no_env).unwrap_err();
    assert_eq!(err(&["--bogus"]), "unknown argument '--bogus'");
    assert_eq!(err(&["stray"]), "unknown argument 'stray'");
    assert_eq!(err(&["--out"]), "--out requires a value");
    assert_eq!(err(&["--trace"]), "--trace requires a value");
    assert_eq!(
        err(&["--fast", "--manifest"]),
        "--manifest requires a value"
    );
    // A tool without a manifest takes no --manifest.
    let report = Tool {
        manifest: None,
        ..TOOL
    };
    let err = cli::parse(&report, &args(&["--manifest", "m.json"]), no_env).unwrap_err();
    assert_eq!(err, "unknown argument '--manifest'");
}

#[test]
fn positional_arguments_only_where_declared() {
    let summary = Tool {
        positional: Some("<tables.json> [...]"),
        ..TOOL
    };
    let p = cli::parse(&summary, &args(&["a.json", "--fast", "b.json"]), no_env).unwrap();
    assert_eq!(p.positional, args(&["a.json", "b.json"]));
    assert_eq!(p.args.len(), 1);
    assert!(cli::parse(&summary, &args(&["--bogus"]), no_env).is_err());
}

#[test]
fn usage_line_lists_own_then_shared_flags() {
    assert_eq!(
        cli::usage(&TOOL),
        "[--out <json>] [--fast] [--manifest <json>] [--trace <json>] [--profile <folded>]"
    );
    let summary = Tool {
        flags: &[],
        positional: Some("<tables.json> [...]"),
        manifest: None,
        ..TOOL
    };
    assert_eq!(
        cli::usage(&summary),
        "<tables.json> [...] [--trace <json>] [--profile <folded>]"
    );
}

#[test]
fn counts_are_positive_and_seeds_take_hex() {
    assert_eq!(cli::positive_count("1"), Some(1));
    assert_eq!(cli::positive_count("500"), Some(500));
    for bad in ["0", "-1", "", "abc", "1.5"] {
        assert_eq!(cli::positive_count(bad), None, "{bad:?}");
    }
    assert_eq!(cli::parse_seed("42"), Some(42));
    assert_eq!(cli::parse_seed("0x5EED_CAFE"), Some(0x5EED_CAFE));
    assert_eq!(cli::parse_seed("0Xff"), Some(255));
    assert_eq!(cli::parse_seed("0xzz"), None);
}

#[test]
fn output_writes_create_missing_directories_and_name_the_path_on_error() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("mf_bench_cli_write_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let nested = dir.join("a/b/out.json");
    let nested = nested.to_str().unwrap();
    assert_eq!(cli::write_output(nested, "{}"), Ok(()));
    assert_eq!(std::fs::read_to_string(nested).unwrap(), "{}");

    // A regular file where a parent directory must go cannot be fixed.
    let under_file = dir.join("a/b/out.json/x.json");
    let under_file = under_file.to_str().unwrap();
    let err = cli::write_output(under_file, "{}").unwrap_err();
    assert!(
        err.starts_with(&format!("cannot write {under_file}: ")),
        "{err}"
    );
    assert!(!std::path::Path::new(under_file).exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Run a bench binary in a fresh directory and return its exit code,
/// stderr, and whether it wrote anything there.
fn run_bin(bin: &str, exe: &str, case: &str, a: &[&str]) -> (Option<i32>, String, bool) {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("mf_bench_cli_{bin}_{case}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // Quick mode and no history, in case a binary wrongly runs its workload.
    let out = Command::new(exe)
        .args(a)
        .current_dir(&dir)
        .env("MF_BENCH_QUICK", "1")
        .env("MF_HISTORY", "off")
        .env_remove("MF_TRACE")
        .env_remove("MF_PROFILE")
        .output()
        .unwrap();
    let wrote = std::fs::read_dir(&dir).unwrap().next().is_some();
    let _ = std::fs::remove_dir_all(&dir);
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        wrote,
    )
}

const BINS: [(&str, &str); 11] = [
    ("adaptive", env!("CARGO_BIN_EXE_adaptive")),
    ("conformance", env!("CARGO_BIN_EXE_conformance")),
    ("faultsim", env!("CARGO_BIN_EXE_faultsim")),
    ("gpu_sim", env!("CARGO_BIN_EXE_gpu_sim")),
    ("report", env!("CARGO_BIN_EXE_report")),
    ("simd", env!("CARGO_BIN_EXE_simd")),
    ("soak", env!("CARGO_BIN_EXE_soak")),
    ("solve", env!("CARGO_BIN_EXE_solve")),
    ("summary", env!("CARGO_BIN_EXE_summary")),
    ("tables", env!("CARGO_BIN_EXE_tables")),
    ("verify_networks", env!("CARGO_BIN_EXE_verify_networks")),
];

#[test]
fn every_harness_binary_exits_2_on_a_bad_command_line() {
    let zero_counts: [(&str, &[&str]); 5] = [
        ("verify_networks", &["--trials", "0"]),
        ("conformance", &["--cases", "0"]),
        ("faultsim", &["--cases", "0"]),
        ("solve", &["--threads", "0"]),
        ("soak", &["--threads", "0"]),
    ];
    for (bin, exe) in BINS {
        let mut cases: Vec<(&str, &[&str])> =
            vec![("unknown", &["--bogus"]), ("missing", &["--trace"])];
        cases.extend(
            zero_counts
                .iter()
                .filter(|(b, _)| *b == bin)
                .map(|&(_, a)| ("zero", a)),
        );
        for (case, a) in cases {
            let (code, stderr, wrote) = run_bin(bin, exe, case, a);
            assert_eq!(code, Some(2), "{bin} {a:?}: stderr {stderr}");
            assert!(
                stderr.contains(&format!("usage: {bin} ")),
                "{bin} {a:?}: no usage line in {stderr}"
            );
            assert!(!wrote, "{bin} {a:?} wrote files");
        }
    }
}
