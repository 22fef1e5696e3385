#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from the root of a checkout.

One run:
    python3 factbench/run.py --workload serve_cold --seed 1 --seconds 25 --trace 0

The last line of standard output is the JSON result. With
--repeat K the workload runs K times (seeds seed..seed+K-1) and each
metric's median and quartiles are printed instead, with the spread
(Q3 - Q1) / median that the benchmark's bounds are checked against.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "factbench", "main.exe")
CLI = os.path.join(BUILD_DIR, "default", "bin", "fact_cli.exe")


def build():
    # build output goes to stderr: stdout carries only the result
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--display", "quiet", "./factbench/main.exe", "./bin/fact_cli.exe"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def env():
    e = dict(os.environ)
    # the program under test runs with its own defaults
    for var in ("FACT_DOMAINS", "FACT_CACHE_CAP", "FACT_CACHE_CHECK"):
        e.pop(var, None)
    return e


def declared(trace):
    """The metrics BENCHMARK.json declares for this kind of run."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def conform(result, trace, workload):
    """Check a result's metrics against BENCHMARK.json.

    An end-to-end metric that is missing, or any metric BENCHMARK.json
    does not declare, makes the run incorrect. A per-layer metric the
    workload does not exercise is reported as 0 and named on stderr.
    """
    metrics = result["metrics"]
    wanted = declared(trace)
    names = {name for name, _ in wanted}
    problems = [f"undeclared metric {n}" for n in metrics if n not in names]
    unmeasured = []
    for name, unit in wanted:
        if name in metrics:
            if metrics[name]["unit"] != unit:
                problems.append(f"{name} in {metrics[name]['unit']}, declared {unit}")
        elif trace:
            unmeasured.append(name)
            metrics[name] = {"value": 0, "unit": unit}
        else:
            problems.append(f"missing metric {name}")
    if unmeasured:
        print(f"not exercised by {workload}, reported as 0: {' '.join(unmeasured)}", file=sys.stderr)
    for p in problems:
        print(f"result check: {p}", file=sys.stderr)
    if problems:
        result["correct"] = False
    result["metrics"] = {name: metrics[name] for name, _ in wanted if name in metrics}
    return result


def once(args, seed):
    """One run: (exit code, lines before the result, result or None)."""
    cmd = [EXE, "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cli", CLI]
    p = subprocess.run(cmd, env=env(), stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return (p.returncode or 1), lines, None
    result = conform(result, args.trace == 1, args.workload)
    code = p.returncode if result["correct"] else (p.returncode or 1)
    return code, lines[:-1], result


def repeat(args):
    values = {}
    for i in range(args.repeat):
        code, lines, result = once(args, args.seed + i)
        for line in lines + [json.dumps(result)]:
            print(line, file=sys.stderr)
        if code != 0:
            print(f"run with seed {args.seed + i} failed (exit {code})")
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, (m["unit"], []))[1].append(m["value"])
    print(f"{args.workload}: {args.repeat} runs, seeds {args.seed}..{args.seed + args.repeat - 1}")
    for name, (unit, vs) in values.items():
        q1, q2, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
        spread = (q3 - q1) / q2 if q2 else float("nan")
        print(f"  {name:36s} median {q2:.6g} {unit:9s} Q1 {q1:.6g} Q3 {q3:.6g} spread {spread:.3f}")
    return 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0)
    args = ap.parse_args()
    if not build():
        print("build failed", file=sys.stderr)
        return 2
    if args.repeat > 0:
        return repeat(args)
    code, lines, result = once(args, args.seed)
    for line in lines:
        print(line)
    if result is not None:
        print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
