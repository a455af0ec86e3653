#!/usr/bin/env python
"""CI bench-regression guard.

Runs the smoke-mode core benchmarks into a scratch ``BENCH_json`` (never
touching the committed ``BENCH_core.json``), then compares the freshly
measured ``ns_per_op`` of every guarded entry against the committed
value and fails on more-than-``THRESHOLD``-fold regressions.

Guarded prefixes: ``movelog/``, ``sched/``, ``strategy/`` (which
includes the ``strategy/kernel_*`` kernel-validated replay entries),
``service/`` (the artifact-store warm/cold paths and bound-server
latencies from ``bench_service.py``), ``fleet/`` (controller HTTP
latencies and the two-worker sweep overhead from ``bench_fleet.py``)
and ``optimal/`` (the exact RBW search on E7's six CDAGs, from
``bench_bound_validation.py``) — the hot-path numbers the compiled
backend, columnar log, batched strategy fast paths, kernel replay,
memoized service and bitmask optimum search exist for.  Only keys
present in both files are compared
(smoke mode measures the smallest sizes; committed entries at other
sizes are informational), but every *required group* must overlap in at
least one key — a refactor that silently stops measuring the kernel
replay (or any other group) fails the guard instead of shrinking it.
The threshold is deliberately loose (3x) because CI machines are slower
and noisier than the reference container: the guard catches algorithmic
regressions (accidental O(n) scans, dropped caches), not percent-level
noise.

The committed ``BENCH_core.json`` is a **derived view** over the bench
run store (``benchmarks/runs/``, see ``benchmarks/conftest.py``): it
carries a top-level ``view`` key naming the run directory its entries
were last derived from, which the guard prints for provenance.  The
baseline can also be read straight from a run store: point
``BENCH_BASELINE`` at either an alternate view JSON or a run-store
directory (the newest committed run's ``metrics.jsonl`` becomes the
baseline), e.g. to guard against a locally recorded trajectory instead
of the committed snapshot.

Usage::

    PYTHONPATH=src python benchmarks/check_bench.py
    BENCH_GUARD_THRESHOLD=5 PYTHONPATH=src python benchmarks/check_bench.py
    BENCH_BASELINE=benchmarks/runs PYTHONPATH=src python benchmarks/check_bench.py
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
COMMITTED = REPO / "BENCH_core.json"
GUARDED_PREFIXES = (
    "movelog/", "sched/", "strategy/", "service/", "fleet/", "optimal/"
)
#: each of these prefixes must overlap the baseline in >= 1 entry
REQUIRED_GROUPS = (
    "movelog/",
    "movelog/spill_roundtrip_",
    "sched/",
    "strategy/",
    "strategy/kernel_",
    "service/",
    "service/compiled_warm_",
    "fleet/",
    "fleet/sweep_",
    "fleet/metrics_scrape",
    "optimal/",
)
THRESHOLD = float(os.environ.get("BENCH_GUARD_THRESHOLD", "3.0"))


def run_smoke(out_json: Path) -> None:
    env = dict(os.environ)
    env["BENCH_SMOKE"] = "1"
    env["BENCH_JSON"] = str(out_json)
    # keep the guard side-effect free: its scratch measurement must not
    # append a run to the real bench run store either
    env["BENCH_RUNS"] = str(out_json.parent / "runs")
    env["PYTHONPATH"] = (
        str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    ).rstrip(os.pathsep)
    cmd = [
        sys.executable, "-m", "pytest",
        str(REPO / "benchmarks" / "bench_compiled_core.py"),
        str(REPO / "benchmarks" / "bench_service.py"),
        str(REPO / "benchmarks" / "bench_fleet.py"),
        str(REPO / "benchmarks" / "bench_bound_validation.py"),
        "-q", "-m", "not bench", "--benchmark-disable",
    ]
    print("+", " ".join(cmd), flush=True)
    subprocess.run(cmd, check=True, env=env, cwd=REPO)


def load_results(path: Path) -> dict:
    return json.loads(path.read_text()).get("results", {})


def results_from_run_store(root: Path) -> dict:
    """Baseline entries from the newest committed run directory of a
    bench run store (harness protocol: only directories with a
    ``summary.json`` commit marker count; ``metrics.jsonl`` rows are
    ``{"name": ..., "ns_per_op": ..., ...}``)."""
    runs = sorted(
        d for d in root.iterdir()
        if d.is_dir() and (d / "summary.json").exists()
    )
    if not runs:
        raise FileNotFoundError(f"no committed bench runs under {root}")
    latest = runs[-1]
    results = {}
    for line in (latest / "metrics.jsonl").read_text().splitlines():
        if not line.strip():
            continue
        row = json.loads(line)
        results[row.pop("name")] = row
    print(f"baseline: run store {root} (newest run: {latest.name})")
    return results


def load_baseline() -> dict:
    """The committed baseline — ``BENCH_core.json`` by default, or
    whatever ``BENCH_BASELINE`` points at (a view JSON or a run-store
    directory).  Prints the derived-view provenance when present."""
    override = os.environ.get("BENCH_BASELINE", "")
    path = Path(override) if override else COMMITTED
    if path.is_dir():
        return results_from_run_store(path)
    if not path.exists():
        raise FileNotFoundError(f"baseline {path} is missing")
    data = json.loads(path.read_text())
    view = data.get("view")
    if view:
        print(
            f"baseline: {path} (derived view over "
            f"{view.get('store', '?')}, run {view.get('run', '?')})"
        )
    else:
        print(f"baseline: {path}")
    return data.get("results", {})


def main() -> int:
    try:
        committed = load_baseline()
    except FileNotFoundError as exc:
        print(f"error: {exc}")
        return 2
    with tempfile.TemporaryDirectory(prefix="bench-guard-") as tmp:
        fresh_json = Path(tmp) / "BENCH_fresh.json"
        run_smoke(fresh_json)
        if not fresh_json.exists():
            print("error: smoke run recorded no benchmark results")
            return 2
        fresh = load_results(fresh_json)

    rows = []
    failures = []
    compared = []
    for name in sorted(fresh):
        if not name.startswith(GUARDED_PREFIXES):
            continue
        base = committed.get(name, {}).get("ns_per_op")
        new = fresh[name].get("ns_per_op")
        if base is None or new is None or base <= 0:
            continue
        compared.append(name)
        ratio = new / base
        verdict = "ok"
        if ratio > THRESHOLD:
            verdict = "REGRESSION"
            failures.append(name)
        rows.append(
            f"  {name:42s} {base:12.1f} -> {new:12.1f} ns/op "
            f"({ratio:5.2f}x)  {verdict}"
        )
    if not rows:
        print("error: no guarded benchmark entries overlap the baseline")
        return 2
    missing_groups = [
        prefix
        for prefix in REQUIRED_GROUPS
        if not any(name.startswith(prefix) for name in compared)
    ]
    if missing_groups:
        print(
            "error: required benchmark group(s) missing from the "
            f"smoke-vs-baseline overlap: {', '.join(missing_groups)}"
        )
        return 2

    print(f"\nBench guard (threshold {THRESHOLD:.1f}x):")
    print("\n".join(rows))
    if failures:
        print(
            f"\n{len(failures)} guarded benchmark(s) regressed more than "
            f"{THRESHOLD:.1f}x: {', '.join(failures)}"
        )
        return 1
    print("\nAll guarded benchmarks within threshold.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
