#!/usr/bin/env python3
"""Build and run the SNICIT benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload sdgc-batch --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (which builds the library
from src/) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench;
later calls rebuild only what changed.

One run is PROCESSES runs of the benchmark binary in turn, each setting up
from scratch and measuring a share of --seconds. Run time on a shared
multi-core host shifts from process to process (thread placement, memory
layout), so every metric is the median over the processes; attempted and
failed are their sums. The reports go to stdout and end with one JSON
line: {"correct", "attempted", "failed", "metrics"}. Build output goes to
stderr. Any failure exits non-zero without a result line.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("sdgc-batch", "medium-batch", "serve-mix")
PROCESSES = 4
RUN_TIMEOUT_S = 55  # per process; a whole run stays under 180 s
BUILD_TIMEOUT_S = 850


def die(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no SNICIT sources (src/CMakeLists.txt) next to perfbench/", 2)
    out = build_dir()
    try:
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
        jobs = str(max(1, os.cpu_count() or 1))
        subprocess.run(
            ["cmake", "--build", out, "-j", jobs, "--target", *targets],
            stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        die(f"build failed: {e}")
    return out


def source_facts():
    """Commit (only inside a git checkout) and a digest of the sources."""
    commit = "none (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                capture_output=True, text=True, timeout=30,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    digest = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for d, _, names in os.walk(os.path.join(ROOT, top)):
            files += [os.path.join(d, n) for n in names]
    for path in sorted(files):
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return commit, digest.hexdigest()[:16]


def run_binary(exe, args):
    commit, digest = source_facts()
    env = dict(os.environ, PERFBENCH_COMMIT=commit,
               PERFBENCH_SOURCE_DIGEST=digest)
    try:
        proc = subprocess.run([exe, *args], stdout=subprocess.PIPE,
                              text=True, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    except OSError as e:
        die(f"cannot run {exe}: {e}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        die(f"benchmark exited with code {proc.returncode}")
    return proc.stdout


def median(values):
    values = sorted(values)
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2


def combine(results):
    """Per-metric medians over the processes; counts add up."""
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": median(values), "unit": first["unit"]}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def parse_result(stdout):
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        die("benchmark printed no result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        die("malformed result line")
    return result


def self_test():
    """Helper unit tests, same-seed count determinism, metric names."""
    out = build(["perfbench", "perfbench_selftest"])
    exe = os.path.join(out, "perfbench")
    ok = subprocess.run([os.path.join(out, "perfbench_selftest")],
                        timeout=RUN_TIMEOUT_S).returncode == 0
    for workload in ("sdgc-batch", "medium-batch"):
        args = ["--workload", workload, "--seed", "7", "--counts"]
        first = run_binary(exe, args).strip().splitlines()[-1]
        second = run_binary(exe, args).strip().splitlines()[-1]
        same = first == second
        ok &= same
        print(f"counts repeat exactly for {workload}: {same}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in WORKLOADS:
            result = parse_result(run_binary(exe, [
                "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace]))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            match = got == want and result["correct"]
            ok &= match
            print(f"{workload} --trace {trace}: metrics match "
                  f"BENCHMARK.json and outputs correct: {match}")
    print("self-test", "PASSED" if ok else "FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the benchmark's own tests")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        die("--workload is required", 2)
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        die("--seed must be >= 0 and --seconds in [1, 60]", 2)
    out = build(["perfbench"])
    results = []
    for i in range(PROCESSES):
        stdout = run_binary(os.path.join(out, "perfbench"), [
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds / PROCESSES),
            "--trace", str(args.trace)])
        results.append(parse_result(stdout))
        print(f"process {i + 1} of {PROCESSES}:")
        sys.stdout.write(stdout)
    combined = combine(results)
    print(f"median of {PROCESSES} processes:")
    for name, m in combined["metrics"].items():
        values = ", ".join(f"{r['metrics'][name]['value']:.6g}"
                           for r in results)
        print(f"  {name:30s} = {m['value']:.6g} {m['unit']} ({values})")
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
