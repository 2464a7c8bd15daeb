#!/usr/bin/env python3
"""Build the FITS benchmark program and run one workload.

    python3 fitsbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 fitsbench/run.py --smoke

Run from the repository root. The first run configures and builds
fitsbench/ (which compiles ../src) under .bench_build/fitsbench. The
last line printed is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; with --trace 0 the metrics are BENCHMARK.json's
end_to_end list, with --trace 1 its per_layer list. --smoke runs the
benchmark's own smoke test on a small seeded workload.
"""

import argparse
import json
import math
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "fitsbench"
PROGRAM = BUILD / "fitsbench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"fitsbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure on first use, then bring the program up to date."""
    if not (BUILD / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    make = ["cmake", "--build", str(BUILD), "--target", "fitsbench",
            "-j", str(min(4, os.cpu_count() or 1))]
    if subprocess.run(make, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run_fitsbench(workload, seed, seconds, trace):
    """Run the program in a FITS_*-free environment; return its result."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("FITS_")}
    cmd = [str(PROGRAM), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(BUILD / "work")]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"fitsbench exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"fitsbench exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("fitsbench printed no result")
    return json.loads(lines[-1])


def contract_result(raw, specs):
    """Keep exactly the metrics `specs` names, with their units."""
    metrics = {}
    for spec in specs:
        value = raw["metrics"].get(spec["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"fitsbench gave no value for {spec['name']}")
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return {"correct": bool(raw["correct"]),
            "attempted": int(raw["attempted"]),
            "failed": int(raw["failed"]),
            "metrics": metrics}


def smoke(bench):
    """Every metric present, nothing failed, N-worker digest == serial.

    The smoke workload runs its timed passes on 4 workers and its
    reference pass serially; fitsbench sets `correct` only when their
    digests match.
    """
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = contract_result(run_fitsbench("smoke", 7, 1, trace), bench[key])
        if not result["correct"]:
            fail(f"smoke (trace {trace}): fitsbench reported incorrect output")
        if result["failed"] != 0:
            fail(f"smoke (trace {trace}): {result['failed']} of "
                 f"{result['attempted']} sample analyses failed")
    print("fitsbench smoke: ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    bench_json = ROOT / "BENCHMARK.json"
    if not bench_json.exists():
        fail("BENCHMARK.json not found at the repository root")
    bench = json.loads(bench_json.read_text())
    build()
    if args.smoke:
        smoke(bench)
        return
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; expected one of {names}")
    raw = run_fitsbench(args.workload, args.seed, args.seconds, args.trace)
    key = "per_layer" if args.trace else "end_to_end"
    print(json.dumps(contract_result(raw, bench[key])))


if __name__ == "__main__":
    main()
