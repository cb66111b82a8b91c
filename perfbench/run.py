#!/usr/bin/env python3
"""Builds and runs the Califorms host benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The benchmark is the Rust package in this directory. It builds in release
mode against the repository's crates, into $CARGO_TARGET_DIR (default
`.bench_build`). A host fingerprint line is printed first. It gives CPU
count and model, rustc, git sha or a source digest, and the build profile.
Then come the benchmark's tables. The last line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. `--trace 0` gives the
`end_to_end` metrics of BENCHMARK.json. `--trace 1` gives the `per_layer`
ones. A failed build or run exits non-zero and prints no result.

`--selftest` runs every workload at its tiny size, traced and untraced,
and once on a non-default seed. It checks that each run is correct, that
none failed, and that each prints exactly the metrics BENCHMARK.json names.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880
DEFAULT_SEED = 7
SKIP_DIRS = {"target", ".bench_build", ".git"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds the benchmark binary and returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = target if os.path.isabs(target) else os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build did not finish: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return os.path.join(target, "release", "califorms-perfbench")


def command_output(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the benchmark builds from, for checkouts
    that are not git repositories."""
    h = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "third_party", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def fingerprint():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "rustc": command_output(["rustc", "-V"]),
        "git_sha": command_output(["git", "rev-parse", "HEAD"]) or "unavailable",
        "source_sha256": source_digest(),
        "profile": "release",
    }


def expected_metrics():
    """(end_to_end names, per_layer names, workload names) from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]],
            [w["name"] for w in spec["workloads"]])


def run(binary, workload, seed, seconds, trace, scale):
    """Runs one benchmark process at `scale` ("full" or the self-test's
    "tiny"); returns (stdout lines, parsed result)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--scale", scale]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{workload}: run did not finish: {e}")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        print(done.stdout, file=sys.stderr, end="")
        fail(f"{workload}: exit code {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail(f"{workload}: last line is not a JSON result")
    e2e, layers, _ = expected_metrics()
    want = layers if trace else e2e
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if list(result["metrics"]) != want:
        fail(f"{workload}: metrics {list(result['metrics'])} differ from BENCHMARK.json {want}")
    return lines, result


def selftest(binary):
    _, _, workloads = expected_metrics()
    for workload in workloads:
        for seed, trace in [(DEFAULT_SEED, 0), (DEFAULT_SEED, 1), (DEFAULT_SEED + 1, 0)]:
            _, result = run(binary, workload, seed, 1, trace, "tiny")
            ok = result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            print(f"selftest {workload} seed {seed} trace {trace}: "
                  f"{result['attempted']} runs, fail_frac "
                  f"{result['failed'] / result['attempted']:.4f}, "
                  f"{len(result['metrics'])} metrics, {'ok' if ok else 'FAILED'}")
            if not ok:
                fail(f"selftest failed on {workload}")
    print("selftest ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload or --selftest is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    binary = build()
    print("fingerprint: " + json.dumps(fingerprint()), flush=True)
    if args.selftest:
        selftest(binary)
        return
    workloads = expected_metrics()[2] if args.workload == "all" else [args.workload]
    for workload in workloads:
        lines, _ = run(binary, workload, args.seed, args.seconds, args.trace, "full")
        print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
