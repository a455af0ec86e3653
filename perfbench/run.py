"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs the workload once more under the span tracer and
reports the per-layer metrics instead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

import common

WORKLOADS = ("paper-sweep", "spill-games", "bound-server", "fleet-sweep")


def _module(workload: str):
    if workload == "paper-sweep":
        import paper_sweep as mod
    elif workload == "spill-games":
        import spill_games as mod
    elif workload == "bound-server":
        import bound_server as mod
    else:
        import fleet_sweep as mod
    return mod


def environment() -> dict:
    """What the result depends on besides the code: strategy backend,
    kernel tier, cores, library versions and the commit."""
    import inspect

    import numpy
    import scipy
    from repro.pebbling import kernel, run_spill_game

    commit = "unknown"
    if (common.ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=str(common.ROOT),
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "strategy_backend":
            inspect.signature(run_spill_game).parameters["backend"].default,
        "repro_kernel": kernel.kernel_mode(),
        "numba": kernel.numba_available(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=common.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    common.require_program()
    common.import_program()
    print("env " + json.dumps(environment(), sort_keys=True))
    mod = _module(args.workload)
    run = mod.trace if args.trace else mod.measure
    units = common.PER_LAYER if args.trace else common.END_TO_END
    with common.workdir(args.workload) as work:
        outcome = run(work, args.seed, args.seconds)
    metrics = {name: 0.0 for name in units}
    metrics.update(outcome.metrics)
    missing = set(metrics) - set(units)
    if missing:
        raise RuntimeError(f"unexpected metrics {sorted(missing)}")
    for problem in outcome.problems:
        print(f"FAILED: {problem}")
    failed_frac = outcome.failed / max(outcome.attempted, 1)
    print(f"failed_frac {failed_frac:.6g} "
          f"({outcome.failed}/{outcome.attempted} operations)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
