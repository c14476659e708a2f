#!/usr/bin/env python3
"""Builds and runs the XSDF end-to-end benchmark (see README.md here).

Run from the repository root:

  python3 perfbench/run.py --workload corpus_batch --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --self-test

The benchmark program is compiled from this checkout's sources into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); build
output goes to stderr so the last stdout line stays the JSON result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(root, "perfbench"))


def build():
    """Configures (once) and builds the benchmark program; returns its path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", out, "--target", "xsdf_perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(out, "xsdf_perfbench")


def run_bench(binary, workload, seed, seconds, trace, extra=()):
    """Runs one measurement; returns (exit code, stdout lines)."""
    work = os.path.join(build_dir(), "work")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", work, *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        out = exc.stdout or ""
        if isinstance(out, bytes):
            out = out.decode(errors="replace")
        return 124, out.splitlines()
    return proc.returncode, proc.stdout.splitlines()


def parse_result(lines):
    """The JSON result on the last line, or None."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return None
    return result


def self_test(binary):
    """Checks that every metric BENCHMARK.json names is printed with its
    unit on every workload, and that the correctness gate rejects an
    altered output. Uses shrunken inputs and one-second runs."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run_bench(binary, workload, 7, 1, trace, ["--small"])
            result = parse_result(lines)
            if code != 0 or result is None or result["correct"] is not True:
                problems.append(f"{workload} trace={trace}: exit {code}, no result")
                continue
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            for name, unit in want.items():
                if got.get(name) != unit:
                    problems.append(f"{workload} trace={trace}: {name} printed "
                                    f"with unit {got.get(name)!r}, want {unit!r}")
            for name in set(got) - set(want):
                problems.append(f"{workload} trace={trace}: unexpected {name}")
            print(f"self-test: {workload} trace={trace}: "
                  f"{len(want)} metrics with units")
        code, lines = run_bench(binary, workload, 7, 1, 0, ["--small", "--corrupt"])
        if code == 0 or parse_result(lines) is not None:
            problems.append(f"{workload}: the gate accepted an altered output")
        else:
            print(f"self-test: {workload}: altered output rejected (exit {code})")
    for problem in problems:
        print(f"self-test FAILED: {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as exc:
        print(f"build failed: {exc}", file=sys.stderr)
        return 1
    if args.self_test:
        return self_test(binary)
    code, lines = run_bench(binary, args.workload, args.seed, args.seconds,
                             args.trace)
    for line in lines:
        print(line)
    if code == 0 and parse_result(lines) is None:
        print("the benchmark printed no result", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
