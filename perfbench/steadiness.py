"""Run the benchmark on several seeds and report each metric's spread.

Run from the repository root::

    python3 perfbench/steadiness.py --workloads port_backlog order_autocommit \\
        --seeds 1 2 3 4 5 --seconds 10 [--trace 0]

For every workload and metric it prints the median of the runs and the
spread, the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound from ``BENCHMARK.json`` and a third of it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stdout[-2000:]}{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, seconds, args.trace))
            values = ", ".join(f"{k} {v['value']:.6g}" for k, v in runs[-1]["metrics"].items())
            print(f"{workload} seed {seed}: {values}", file=sys.stderr, flush=True)
        print(f"\n{workload}: {len(runs)} runs of {seconds} s, seeds {args.seeds}")
        print(f"  {'metric':32s} {'median':>12s} {'spread':>8s} {'bound':>6s} {'bound/3':>8s}")
        for name in runs[0]["metrics"]:
            values = [run["metrics"][name]["value"] for run in runs]
            median = statistics.median(values)
            share = spread(values) if len(values) >= 2 else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and share >= bound / 3:
                flag = "  over a third of the bound" if share < bound else "  OVER BOUND"
            print(
                f"  {name:32s} {median:12.6g} {share:8.3f} "
                f"{'' if bound is None else f'{bound:6.2f} {bound / 3:8.3f}'}{flag}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
