#!/usr/bin/env python3
"""Builds and runs the mmvc benchmark (metrics and workloads: NOTES.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

The first form builds `perfbench/` (a standalone cargo package) into
$CARGO_TARGET_DIR (default `.bench_build`), runs one workload, and passes
its output through: the last stdout line is the JSON result, and the exit
code is non-zero when any output check failed. `--self-check` runs every
workload of BENCHMARK.json at a tiny size on a second seed, asserts that
each listed metric is printed with its unit and that the error rate is 0,
and asserts that a deliberately corrupted expected output makes the
command fail.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
# One run must end within 180 s; leave room for start-up and clean-up.
RUN_TIMEOUT_S = 170
SELF_CHECK_SEED = 424242


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")


def build():
    """Builds the benchmark binary from source; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        die("run from the root of an mmvc checkout (crates/core not found)")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        die("build failed")
    return os.path.join(target_dir(), "release", "mmvc-perfbench")


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 (first 16 hex digits) of the sources the benchmark builds."""
    digest = hashlib.sha256()
    roots = ["Cargo.toml", "Cargo.lock", "crates", "vendor", os.path.relpath(HERE, ROOT)]
    files = []
    for root in roots:
        path = os.path.join(ROOT, root)
        if os.path.isfile(path):
            files.append(root)
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = [d for d in dirnames if d != "target"]
            files.extend(os.path.relpath(os.path.join(dirpath, f), ROOT) for f in filenames)
    for rel in sorted(files):
        if rel.endswith((".rs", ".toml", ".lock")):
            digest.update(rel.encode())
            with open(os.path.join(ROOT, rel), "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def run_binary(binary, args):
    """Runs the benchmark binary once; returns (exit code, stdout)."""
    workdir = os.path.join(target_dir(), "perfbench-work", str(os.getpid()))
    cmd = [binary, *args, "--workdir", workdir, "--git-commit", git_commit(),
           "--source-digest", source_digest()]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        print(out, end="")
        shutil.rmtree(workdir, ignore_errors=True)
        die(f"timed out after {RUN_TIMEOUT_S} s")
    shutil.rmtree(workdir, ignore_errors=True)
    return proc.returncode, out


def check_output(out, names, workload, trace):
    """Problems with one run's output against the metric list `names`."""
    problems = []
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return [f"{workload}/trace{trace}: last line is not JSON"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{workload}/trace{trace}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{workload}/trace{trace}: correct={result.get('correct')} failed={result.get('failed')}")
    metrics = result.get("metrics", {})
    if set(metrics) != {n for n, _ in names}:
        problems.append(f"{workload}/trace{trace}: metric set differs from BENCHMARK.json")
    for name, unit in names:
        m = metrics.get(name, {})
        if m.get("unit") != unit or not isinstance(m.get("value"), (int, float)):
            problems.append(f"{workload}/trace{trace}: {name} missing or not in {unit}")
        if not any(l.startswith(f"metric {name} = ") and f" {unit}  (" in l for l in lines):
            problems.append(f"{workload}/trace{trace}: {name} not printed with its unit")
    if not any(l.startswith("metric error_rate = 0.0 ratio") for l in lines):
        problems.append(f"{workload}/trace{trace}: error_rate is not printed as 0")
    return problems


def self_check(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    lists = {
        0: [(m["name"], m["unit"]) for m in bench["end_to_end"]],
        1: [(m["name"], m["unit"]) for m in bench["per_layer"]],
    }
    problems = []
    for w in bench["workloads"]:
        for trace in (0, 1):
            args = ["--workload", w["name"], "--seed", str(SELF_CHECK_SEED), "--seconds", "1",
                    "--trace", str(trace), "--tiny"]
            code, out = run_binary(binary, args)
            if code != 0:
                problems.append(f"{w['name']}/trace{trace}: exit code {code}")
            problems.extend(check_output(out, lists[trace], w["name"], trace))
            print(f"self-check {w['name']} trace={trace}: exit {code}")
    # A corrupted expected output must be caught and fail the command.
    code, out = run_binary(binary, ["--workload", bench["workloads"][0]["name"], "--seed",
                                    str(SELF_CHECK_SEED), "--seconds", "1", "--trace", "0",
                                    "--tiny", "--inject-fault"])
    last = json.loads(out.strip().splitlines()[-1])
    if code == 0 or last.get("correct") is not False or last.get("failed", 0) == 0:
        problems.append("an injected wrong output did not fail the command")
    print(f"self-check injected fault: exit {code}, failed {last.get('failed')}")
    for p in problems:
        print(f"self-check problem: {p}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-check", action="store_true")
    opts = parser.parse_args()
    binary = build()
    if opts.self_check:
        sys.exit(self_check(binary))
    if opts.workload is None or opts.seed is None:
        die("--workload and --seed are required")
    args = ["--workload", opts.workload, "--seed", str(opts.seed), "--seconds", str(opts.seconds),
            "--trace", opts.trace]
    code, out = run_binary(binary, args)
    print(out, end="")
    sys.exit(code)


if __name__ == "__main__":
    main()
