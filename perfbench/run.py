#!/usr/bin/env python3
"""Builds and runs the closed-loop serving benchmark for one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The Rust package in this directory is compiled (offline, release) into
$CARGO_TARGET_DIR, `.bench_build` by default, and run once in its own
process. `--trace 0` reports the end-to-end metrics, `--trace 1` the
per-layer ones; the traced run also writes its spans to
`<target dir>/perfbench-spans/`. `setup_s` is the median of the main run's
set-up and of SETUP_RUNS - 1 more fresh processes that only set up, so every
sample is a cold start. The served-answer checksum is compared
with `perfbench/checksums.json` when that file records the seed, and any
drift exits non-zero. The last line of standard output is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`.

`--record` stores the run's checksum in `perfbench/checksums.json`; use it
only when served answers change on purpose.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHECKSUMS = os.path.join(HERE, "checksums.json")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
SETUP_RUNS = 5


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def build(target_dir):
    """Compiles the benchmark and returns the path of its executable."""
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    try:
        done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build did not finish: {e}")
    if done.returncode != 0:
        fail("build failed")
    return os.path.join(target_dir, "release", "ferex-perfbench")


def run_json(cmd, deadline):
    """Runs one benchmark process and parses the JSON on its last line."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        fail(f"runs exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"benchmark exited with code {done.returncode}")
    return json.loads(lines[-1])


def load_checksums():
    if not os.path.exists(CHECKSUMS):
        return {}
    with open(CHECKSUMS) as f:
        return json.load(f)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true")
    args = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        fail("the FeReX sources (crates/core) are missing next to perfbench/", code=2)
    names = declared_metrics(args.trace)
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    exe = build(target_dir)
    deadline = time.monotonic() + RUN_TIMEOUT_S

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(target_dir, "perfbench-spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.tsv")]
    setups = [] if args.trace else [
        run_json([exe, "--workload", args.workload, "--seed", str(args.seed), "--setup-only"],
                 deadline)["setup_s"]
        for _ in range(SETUP_RUNS - 1)
    ]
    result = run_json(cmd, deadline)

    correct = bool(result["correct"])
    for problem in result["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    checksums = load_checksums()
    seed = str(args.seed)
    if args.record:
        checksums.setdefault(args.workload, {})[seed] = result["checksum"]
        ordered = {w: dict(sorted(s.items(), key=lambda kv: int(kv[0]))) for w, s in sorted(checksums.items())}
        with open(CHECKSUMS, "w") as f:
            json.dump(ordered, f, indent=2)
            f.write("\n")
    expected = checksums.get(args.workload, {}).get(seed)
    if expected is not None and expected != result["checksum"]:
        fail(f"served-answer checksum drifted on {args.workload} seed {seed}: "
             f"expected {expected}, got {result['checksum']}")

    metrics = result["metrics"]
    if setups:
        metrics["setup_s"]["value"] = statistics.median(setups + [metrics["setup_s"]["value"]])
    if sorted(metrics) != sorted(names):
        fail(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(names)}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        # A library error aborts the run before this point, so a printed
        # result never carries a failed operation.
        "failed": 0,
        "metrics": {n: metrics[n] for n in names},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
