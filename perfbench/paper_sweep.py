"""``paper-sweep``: ``repro sweep --grid default`` as a subprocess.

The paper's reproduction run (E1-E9 plus the spill axes), one cell at a
time, no store, into a fresh results root per sweep.  Set-up ends at
the first ``[run]`` line.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import time
from pathlib import Path

import common
import spans
from common import BenchError, Outcome, Proc


def _sweep_cmd(out: Path, seed: int, *extra: str):
    return common.repro_cmd("sweep", "--grid", "default", "--out", str(out),
                            "--jobs", "1", "--seed", str(seed), *extra)


def check_results(root: Path, specs, outcome: Outcome) -> None:
    """Every cell committed with its config hash; every E7 row sound."""
    for spec in specs:
        run_dir = root / spec.label
        try:
            summary = json.loads((run_dir / "summary.json").read_text())
        except (OSError, ValueError):
            outcome.op(False, f"{spec.label}: no committed summary")
            continue
        ok = summary.get("config_hash") == spec.hash()
        problem = "" if ok else f"{spec.label}: config hash mismatch"
        if ok and spec.experiment == "e7":
            rows = [json.loads(line) for line in
                    (run_dir / "metrics.jsonl").read_text().splitlines()
                    if line.strip()]
            unsound = [r.get("cdag") for r in rows if r.get("sound") is not True]
            ok = bool(rows) and not unsound
            problem = f"e7: unsound rows {unsound}"
        outcome.op(ok, problem)


def _one_sweep(work: Path, index: int, seed: int, specs, outcome: Outcome):
    out = work / f"sweep{index}"
    proc = Proc(_sweep_cmd(out, seed), work, f"sweep{index}")
    try:
        code = proc.wait()
    finally:
        proc.stop()
    if code != 0:
        raise BenchError(f"sweep exited {code}: {proc.stderr_tail()}")
    ready = [t for t, line in proc.lines if line.startswith("[run]")]
    if not ready:
        raise BenchError("sweep printed no [run] line")
    check_results(out, specs, outcome)
    return proc.ended - proc.started, ready[0] - proc.started, proc.peak_mb


def _setup_probe(work: Path, index: int, seed: int) -> float:
    """Set-up of the same command and grid, cut to one cell."""
    proc = Proc(_sweep_cmd(work / f"probe{index}", seed, "--experiments",
                           "e1"), work, "setup-probe")
    try:
        stamp, _line = proc.wait_line("[run]")
        proc.wait()
    finally:
        proc.stop()
    return stamp - proc.started


def measure(work: Path, seed: int, seconds: float) -> Outcome:
    from repro.evaluation.harness import default_grid

    started = time.perf_counter()
    specs = default_grid(seed)
    outcome = Outcome()
    # Warm-up: byte-compile the tree once, as any installed copy is.
    common.import_seconds("repro.cli", work)
    setups = [_setup_probe(work, i, seed)
              for i in range(common.SETUP_SAMPLES)]
    index = itertools.count()
    sweeps = common.repeat_passes(seconds, started, lambda: _one_sweep(
        work, next(index), seed, specs, outcome))
    outcome.metrics.update(common.end_to_end(
        setups + [s[1] for s in sweeps], [s[0] for s in sweeps],
        [s[2] for s in sweeps]))
    return outcome


def grid_replay(work: Path, grid, outcome: Outcome, check: bool):
    """``replay(timed=nullcontext)``: ``grid`` through ``run_grid`` in
    this process, into a fresh root each call, timed inside
    ``timed()``; returns the seconds and checks the results."""
    from repro.evaluation.harness import run_grid

    roots = itertools.count()

    def replay(timed=contextlib.nullcontext) -> float:
        root = work / f"replay{next(roots)}"
        with timed():
            start = time.perf_counter()
            run_grid(grid, root, log=lambda _msg: None)
            elapsed = time.perf_counter() - start
        if check:
            check_results(root, grid, outcome)
        return elapsed

    return replay


def trace(work: Path, seed: int, seconds: float) -> Outcome:
    """Untraced sweep subprocesses for the end-to-end time, then the
    same grid through ``run_grid`` in this process, alternately
    untraced (the tracing-overhead baseline) and traced."""
    from repro.evaluation.harness import default_grid, smoke_grid

    specs = default_grid(seed)
    outcome = Outcome()
    import_s = common.median(
        [common.import_seconds("repro.cli", work) for _ in range(3)])
    wall = common.median([_one_sweep(work, i, seed, specs, outcome)[0]
                          for i in range(3)])
    # First-use imports happen here, not inside a compared replay.
    grid_replay(work / "warmup", smoke_grid(seed), outcome, False)()
    replay = grid_replay(work, specs, outcome, True)
    untraced, traced, metrics, covered = spans.compare(
        replay, lambda tracer: replay(tracer.root))
    metrics.update({
        "cli.import_s": import_s,
        "trace.overhead_s": traced - untraced,
        "trace.layer_sum_frac": (covered + import_s) / wall,
    })
    outcome.metrics.update(metrics)
    return outcome
