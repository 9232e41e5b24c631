#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the measuring binary twice from the checkout's sources (default
features, and `--features telemetry` in a target directory of its own),
clears the library's behaviour-changing environment variables, runs the
workload and prints, as the last line of stdout, one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`. The line before it
records what was measured (`run_info`). See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

# Must match PINNED_ENV in src/main.rs, which refuses to run with any set.
PINNED_ENV = [
    "MF_SIMD", "MF_BLAS_THREADS", "MF_BLAS_POOL", "MF_AUDIT_RATE", "MF_ALERT_RULES",
    "MF_METRICS_ADDR", "MF_METRICS_PERIOD", "MF_TRACE", "MF_PROFILE", "MF_TELEMETRY_LOG",
]

# Extra processes that only set up and run the warm-up unit; setup_s is the
# median over them and the measuring process.
SETUP_RUNS = 4
BUILD_TIMEOUT_S = 850
# Slack beyond --seconds for set-up, the oracle check and process exit.
RUN_SLACK_S = 120


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run(cmd, env, timeout, capture):
    """Run to completion; a timeout kills the child and waits for it."""
    try:
        return subprocess.run(cmd, env=env, timeout=timeout, cwd=ROOT, text=True,
                              stdout=subprocess.PIPE if capture else sys.stderr,
                              stderr=None if capture else sys.stderr)
    except subprocess.TimeoutExpired:
        fail(f"{cmd[0]} exceeded {timeout} s")


def build(env, target_root, telemetry):
    variant = "telemetry" if telemetry else "default"
    benv = dict(env, CARGO_TARGET_DIR=os.path.join(target_root, variant))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(BENCH, "Cargo.toml")]
    if telemetry:
        cmd += ["--features", "telemetry"]
    if run(cmd, benv, BUILD_TIMEOUT_S, capture=False).returncode != 0:
        fail(f"building the {variant} benchmark binary failed")
    return os.path.join(target_root, variant, "release", "perfbench")


def last_json(proc, what):
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{what} exited with {proc.returncode}")
    return json.loads(lines[-1])


def source_digest():
    """SHA-256 over the library and benchmark sources, naming the program
    measured where the checkout carries no git metadata."""
    h = hashlib.sha256()
    for top in ("crates", "shims", "perfbench"):
        for d, subdirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            subdirs[:] = sorted(s for s in subdirs if s != "target")
            for f in sorted(files):
                if f.endswith((".rs", ".toml")):
                    p = os.path.join(d, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def git_rev():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in (0, 600]", 2)
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        fail("the library sources (crates/) are not in this checkout", 2)

    env = dict(os.environ)
    cleared = [v for v in PINNED_ENV if env.pop(v, None) is not None]
    if cleared:
        print(f"perfbench: cleared {cleared} for this run", file=sys.stderr)
    target_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    exes = {t: build(env, target_root, t) for t in (False, True)}
    exe = exes[args.workload == "wide-kernels-telemetry"]

    base = [exe, "--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    if args.trace == 0:
        for _ in range(SETUP_RUNS):
            p = run(base + ["--seconds", "1", "--trace", "0", "--setup-only"], env, RUN_SLACK_S, True)
            setups.append(last_json(p, "set-up run")["setup_s"])
    cmd = base + ["--seconds", repr(args.seconds), "--trace", str(args.trace),
                  "--spans-dir", os.path.join(target_root, "spans")]
    res = last_json(run(cmd, env, args.seconds + RUN_SLACK_S, True), "measuring run")

    info = res.pop("info")
    metrics = res["metrics"]
    if args.trace == 0:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)
        info["setup_s_samples"] = setups
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    emitted = {name: m["unit"] for name, m in metrics.items()}
    if emitted != declared:
        fail(f"metrics and units {emitted} differ from BENCHMARK.json's {declared}")
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                env_cleared=cleared, git_rev=git_rev(), source_digest=source_digest())
    print(json.dumps({"run_info": info}))
    print(json.dumps(res))


if __name__ == "__main__":
    main()
