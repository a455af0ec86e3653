"""Repeat a workload over several seeds and print each metric's spread.

    python3 perfbench/rerun.py --workload spill-games --runs 10 --seconds 25

Each run is ``run.py`` with the next seed (``--first-seed``, +1, ...).
For every metric the tool prints the median, the quartiles and the
spread — the distance between the quartiles as a share of the median,
from ``statistics.quantiles(values, n=4)`` — which is what the bounds
in ``BENCHMARK.json`` are set against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import common

RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=str(RUN.parent.parent), capture_output=True, text=True,
        timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: run.py exited {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread_table(results) -> str:
    names = list(results[0]["metrics"])
    lines = [f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
             f"{'spread':>8}"]
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        q1, mid, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / mid if mid else 0.0
        unit = results[0]["metrics"][name]["unit"]
        lines.append(f"{name + ' (' + unit + ')':34} {mid:12.6g} {q1:12.6g} "
                     f"{q3:12.6g} {spread:8.3f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=common.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result = run_once(args.workload, seed, args.seconds, args.trace)
        if not result["correct"]:
            print(f"seed {seed}: incorrect result ({result['failed']} of "
                  f"{result['attempted']} operations failed)")
        results.append(result)
        if not args.trace:
            print(f"seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True)
    print(f"{args.workload}: {args.runs} runs of {args.seconds:g}s, "
          f"trace={args.trace}")
    print(spread_table(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
