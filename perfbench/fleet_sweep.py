"""``fleet-sweep``: a controller and two workers run a ~30-cell grid.

Each pass starts ``repro fleet serve --grid-file`` on a fresh results
root, then two ``repro fleet worker --slots 1`` processes; the pass
ends when both workers exit.  The grid is the default grid without E7
plus twelve seeded ``forest`` spill cells, so per-cell lease, spawn,
report and commit overhead dominates.  Set-up is controller spawn until
it prints its listening line.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from pathlib import Path

import common
import spans
from common import BenchError, Outcome, Proc
from paper_sweep import check_results, grid_replay

WORKERS = 2
FOREST_CELLS = 12


def write_grid(path: Path, seed: int):
    """Write the seeded grid file; returns its cells as ``RunSpec``s."""
    from repro.evaluation.harness import default_grid, load_grid_file

    cells = [{"experiment": s.experiment, "params": dict(s.params),
              "seed": s.seed, "label": s.label}
             for s in default_grid(seed) if s.experiment != "e7"]
    rng = random.Random(seed)
    seeds = [s for s in rng.sample(range(1, 1 << 30), FOREST_CELLS + 1)
             if s != seed][:FOREST_CELLS]
    for i, cell_seed in enumerate(seeds):
        cells.append({
            "experiment": "spill",
            "params": {"workload": "forest", "components": 6 + i % 4,
                       "component_size": 16 + 4 * (i % 3),
                       "policy": "belady" if i % 2 else "lru"},
            "seed": cell_seed,
        })
    path.write_text(json.dumps(cells, indent=1))
    return load_grid_file(path)


def _controller(work: Path, root: Path, grid: Path, seed: int, name: str):
    return Proc(common.repro_cmd("fleet", "serve", "--root", str(root),
                                 "--port", "0", "--grid-file", str(grid),
                                 "--seed", str(seed)), work, name)


def _fleet_pass(work: Path, index: int, seed: int, grid: Path, specs,
                outcome: Outcome):
    """One fleet lifetime: returns (setup_s, wall_s, controller
    /metrics, peak RSS MB, results root)."""
    root = work / f"fleet{index}"
    controller = _controller(work, root, grid, seed, f"controller{index}")
    workers = []
    try:
        stamp, line = controller.wait_line("repro fleet controller on")
        setup = stamp - controller.started
        port = common.port_from_line(line)
        workers = [Proc(common.repro_cmd(
            "fleet", "worker", f"http://127.0.0.1:{port}", "--root",
            str(root), "--slots", "1", "--name", f"w{k}"), work, f"w{k}")
            for k in range(WORKERS)]
        for worker in workers:
            if worker.wait() != 0:
                raise BenchError(f"{worker.name} failed: "
                                 f"{worker.stderr_tail()}")
        wall = max(w.ended for w in workers) - controller.started
        _st, status = common.http_json(port, "GET", "/status")
        _st, metrics = common.http_json(port, "GET", "/metrics")
    finally:
        for proc in workers + [controller]:
            proc.stop()
    counters = metrics.get("metrics", {}).get("counters", {})
    retried = sum(counters.get(name, 0) for name in (
        "fleet.cells_requeued", "fleet.leases_expired", "fleet.cells_failed"))
    if status.get("failed") or retried or not status.get("complete"):
        raise BenchError(f"fleet sweep failed or retried cells: "
                         f"failed={status.get('failed')} retried={retried}")
    check_results(root, specs, outcome)
    peak = max(p.peak_mb for p in workers + [controller])
    return setup, wall, metrics, peak, root


def _setup_probe(work: Path, index: int, grid: Path, seed: int) -> float:
    proc = _controller(work, work / f"probe{index}", grid, seed,
                       "setup-probe")
    try:
        stamp, _line = proc.wait_line("repro fleet controller on")
    finally:
        proc.stop()
    return stamp - proc.started


def measure(work: Path, seed: int, seconds: float) -> Outcome:
    started = time.perf_counter()
    outcome = Outcome()
    grid = work / "grid.json"
    specs = write_grid(grid, seed)
    common.import_seconds("repro.cli", work)  # byte-compile once
    setups = [_setup_probe(work, i, grid, seed)
              for i in range(common.SETUP_SAMPLES)]
    index = itertools.count()
    passes = common.repeat_passes(seconds, started, lambda: _fleet_pass(
        work, next(index), seed, grid, specs, outcome))
    outcome.metrics.update(common.end_to_end(
        setups + [p[0] for p in passes], [p[1] for p in passes],
        [p[3] for p in passes]))
    return outcome


def trace(work: Path, seed: int, seconds: float) -> Outcome:
    """One fleet pass (controller histograms, cell busy time), then the
    same grid through ``run_grid`` in this process, alternately
    untraced and traced."""
    from repro.evaluation.harness import smoke_grid

    outcome = Outcome()
    grid = work / "grid.json"
    specs = write_grid(grid, seed)
    import_s = common.median(
        [common.import_seconds("repro.cli", work) for _ in range(3)])
    _setup, wall, scraped, _peak, root = _fleet_pass(
        work, 0, seed, grid, specs, outcome)
    busy = sum(json.loads((root / s.label / "timing.json").read_text())
               ["elapsed_s"] for s in specs)
    histograms = scraped.get("metrics", {}).get("histograms", {})
    grid_replay(work / "warmup", smoke_grid(seed), outcome, False)()
    replay = grid_replay(work, specs, outcome, True)
    untraced, traced, metrics, covered = spans.compare(
        replay, lambda tracer: replay(tracer.root))
    metrics.update({
        "cli.import_s": import_s,
        "fleet.lease_p50_ms": common.histogram_p50_ms(
            histograms.get("http.latency_s{POST /v1/lease}")),
        "fleet.report_p50_ms": common.histogram_p50_ms(
            histograms.get("http.latency_s{POST /v1/report}")),
        "fleet.cell_busy_s": busy,
        "fleet.overhead_s": WORKERS * wall - busy,
        "trace.overhead_s": traced - untraced,
        "trace.layer_sum_frac": covered / untraced,
    })
    outcome.metrics.update(metrics)
    return outcome
