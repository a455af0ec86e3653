"""Shared helpers for the benchmark harness.

Each benchmark regenerates one table/analysis of the paper (see
``docs/experiments.md``) and *prints* the reproduced rows so that
``pytest benchmarks/ --benchmark-only | tee bench_output.txt`` leaves a
readable record of the reproduced numbers next to the timings.  The
``emit`` helper temporarily suspends pytest's output capture so the tables
are always visible regardless of the capture mode.

Machine-readable timings
------------------------
Benchmarks additionally record timings through the ``bench_record``
fixture (or :func:`record_bench` directly); at the end of the session
everything recorded is merged into ``BENCH_core.json`` at the repository
root::

    {"results": {"<bench>/<case>": {"ns_per_op": ..., ...}, ...}}

so CI and future PRs can diff hot-path performance without parsing text
output.  Timing itself goes through :func:`time_ns_per_op` (best-of-N
wall clock, GC left on — matching how the library is actually used).

The ``bench`` marker tags whole-pipeline benchmark tests; the tier-1
``pytest -x -q`` run never collects ``bench_*.py`` files (they do not
match the default test-file pattern), and an explicit benchmarks run can
still deselect the heavy ones with ``-m "not bench"``.

Smoke mode
----------
``BENCH_SMOKE=1 PYTHONPATH=src python -m pytest benchmarks -q -m "not
bench" --benchmark-disable`` (wrapped by ``make bench-smoke``, ~10 s)
runs the core hot-path benches at their smallest sizes
(``bench_compiled_core.py`` keys its size tuples off :func:`smoke_mode`)
— still completing the 10^6-move P-RBW move-log game the columnar log
exists for — while ``--benchmark-disable`` drops the per-experiment
table benches to a single untimed pass.
"""

import json
import os
import time
from pathlib import Path

import pytest


def smoke_mode() -> bool:
    """True when BENCH_SMOKE selects the fast smallest-size smoke run."""
    return os.environ.get("BENCH_SMOKE", "") not in ("", "0")

_CONFIG = None
_BENCH_RESULTS = {}
#: output path; ``BENCH_JSON=...`` redirects (the CI bench-regression
#: guard measures into a scratch file and diffs it against the committed
#: one instead of overwriting it)
_BENCH_JSON = Path(
    os.environ.get("BENCH_JSON", "")
    or Path(__file__).resolve().parent.parent / "BENCH_core.json"
)


def pytest_configure(config):
    global _CONFIG
    _CONFIG = config
    config.addinivalue_line(
        "markers",
        "bench: whole-pipeline performance benchmark (deselect with "
        '-m "not bench" to keep a benchmarks run fast)',
    )


def emit(text: str) -> None:
    """Print a reproduced table, bypassing pytest's output capture."""
    capman = (
        _CONFIG.pluginmanager.getplugin("capturemanager") if _CONFIG else None
    )
    if capman is not None:
        with capman.global_and_fixture_disabled():
            print("\n" + text, flush=True)
    else:  # pragma: no cover - plain-python fallback
        print("\n" + text, flush=True)


@pytest.fixture
def report_emitter():
    return emit


# ----------------------------------------------------------------------
# Machine-readable timing results (BENCH_core.json)
# ----------------------------------------------------------------------
def record_bench(name: str, ns_per_op=None, **extra) -> None:
    """Record one benchmark result for the end-of-session JSON dump.

    ``name`` should be ``"<bench>/<case>"`` (e.g. ``"build/grid_64"``);
    ``ns_per_op`` is the headline number; any keyword extras (sizes,
    speedups, baselines) are stored alongside it.
    """
    entry = {}
    if ns_per_op is not None:
        entry["ns_per_op"] = float(ns_per_op)
    entry.update(extra)
    _BENCH_RESULTS[name] = entry


def time_ns_per_op(fn, repeat: int = 3, number: int = 1) -> float:
    """Best-of-``repeat`` wall-clock nanoseconds per call of ``fn``."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter_ns()
        for _ in range(number):
            fn()
        elapsed = (time.perf_counter_ns() - t0) / number
        if elapsed < best:
            best = elapsed
    return best


@pytest.fixture
def bench_record():
    return record_bench


@pytest.fixture
def bench_timer():
    return time_ns_per_op


def _record_run_store():
    """Persist this session's recorded entries as one run directory in
    the bench run store (``BENCH_RUNS``, default ``benchmarks/runs/``),
    following the harness run-directory protocol (``manifest.json`` +
    ``metrics.jsonl`` + ``summary.json``) — ``BENCH_core.json`` then
    carries a ``view`` key naming the run it was derived from, so the
    committed flat dict is an auditable view over a trajectory of runs
    rather than the only record.  Returns the provenance dict, or
    ``None`` when the repro package is not importable (plain pytest
    invocation without PYTHONPATH=src)."""
    try:
        from repro.evaluation.manifest import (
            SCHEMA_VERSION,
            append_metrics_row,
            build_manifest,
            summarize_rows,
            write_manifest,
            write_summary,
        )
    except ImportError:  # pragma: no cover - bare invocation
        return None
    root = Path(
        os.environ.get("BENCH_RUNS", "")
        or Path(__file__).resolve().parent / "runs"
    )
    label = time.strftime("bench-%Y%m%dT%H%M%S", time.gmtime())
    label += f"-pid{os.getpid()}"
    run_dir = root / label
    run_dir.mkdir(parents=True, exist_ok=True)
    params = {"smoke": smoke_mode(), "entries": sorted(_BENCH_RESULTS)}
    manifest = build_manifest("bench", params, 0, label)
    write_manifest(run_dir, manifest)
    rows = [
        {"name": name, **entry}
        for name, entry in sorted(_BENCH_RESULTS.items())
    ]
    for row in rows:
        append_metrics_row(run_dir, row)
    write_summary(
        run_dir,
        {
            "schema": SCHEMA_VERSION,
            "experiment": "bench",
            "label": label,
            "seed": 0,
            "config_hash": manifest["config_hash"],
            **summarize_rows(rows),
        },
    )
    return {"schema": "bench-view/1", "run": label, "store": str(root)}


def pytest_sessionfinish(session):
    if not _BENCH_RESULTS:
        return
    merged = {}
    if _BENCH_JSON.exists():
        try:
            merged = json.loads(_BENCH_JSON.read_text()).get("results", {})
        except (ValueError, OSError):  # pragma: no cover - corrupt file
            merged = {}
    merged.update(_BENCH_RESULTS)
    payload = {"results": dict(sorted(merged.items()))}
    view = _record_run_store()
    if view is not None:
        payload["view"] = view
    _BENCH_JSON.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
