"""``spill-games``: large cold upper-bound games, played and replayed.

Each pass builds a fresh CDAG per game, plays it with the library
defaults of ``run_spill_game`` (no backend or workers argument) and
replays the record through the game engine's rule-checked ``replay``:

* P-RBW owner-computes on the 2-D Jacobi stencil, 48x48 grid, 12 time
  steps, DFS schedule, 2 nodes x 2 cores (~0.5M moves);
* sequential LRU on ``chains_spill_setup(100, 1000)``, whose breadth-first
  schedule thrashes 4 red pebbles (~0.5M moves);
* sequential Belady on a seeded ``component_forest_cdag``.

Set-up is importing the library in a fresh interpreter.
"""

from __future__ import annotations

import contextlib
import gc
import sys
import time
from pathlib import Path

import common
import spans
from common import Outcome

#: modules a library user imports to play these games
LIBRARY = "repro.core, repro.pebbling, repro.pebbling.workloads"

#: the id(compiled)-keyed kernel memos; cleared so no game is a replay
_KERNEL_MEMOS = ("_seq_plan_cache", "_seq_decision_cache",
                 "_par_decision_cache")


def _games(seed: int):
    """``(name, setup)`` pairs; ``setup()`` builds a fresh CDAG and
    returns ``(cdag, memory, play kwargs, engine factory, closed-form
    I/O or None)``."""
    from repro.core import grid_stencil_cdag
    from repro.core.ordering import dfs_schedule
    from repro.pebbling import (
        MemoryHierarchy, ParallelRBWPebbleGame, RBWPebbleGame,
    )
    from repro.pebbling.workloads import (
        chains_spill_setup, component_forest_cdag,
    )

    def stencil():
        cdag = grid_stencil_cdag((48, 48), 12)
        memory = MemoryHierarchy.cluster(
            nodes=2, cores_per_node=2, registers_per_core=8, cache_size=64)
        return (cdag, memory, {"schedule": dfs_schedule(cdag)},
                lambda: ParallelRBWPebbleGame(cdag, memory), None)

    def chains():
        cdag, num_red = chains_spill_setup(100, 1000)
        ops = len(cdag.operations)
        # With 4 red pebbles the thrashing LRU game's I/O has the
        # closed form 2 * ops - 4.
        return (cdag, num_red, {"policy": "lru"},
                lambda: RBWPebbleGame(cdag, num_red), 2 * ops - 4)

    def forest():
        cdag = component_forest_cdag(300, 40, seed=seed)
        fan_in = max(cdag.in_degree(v) for v in cdag.operations)
        num_red = max(4, fan_in + 1)
        return (cdag, num_red,
                {"schedule": dfs_schedule(cdag), "policy": "belady"},
                lambda: RBWPebbleGame(cdag, num_red), None)

    return [("stencil-prbw", stencil), ("chains-lru", chains),
            ("forest-belady", forest)]


def _clear_memos() -> None:
    import repro.pebbling.kernel as kernel

    for name in _KERNEL_MEMOS:
        memo = getattr(kernel, name, None)
        if memo is not None:
            memo.clear()


def play_pass(seed: int, outcome: Outcome, timed=contextlib.nullcontext):
    """One pass over the game set; returns per-game seconds.  ``timed()``
    is entered around each timed game (the traced run's root span)."""
    from repro.pebbling import run_spill_game

    times = []
    for name, setup in _games(seed):
        _clear_memos()
        # Start every game from a collected heap, so the cyclic
        # collector's work on earlier games' garbage is not timed here.
        gc.collect()
        with timed():
            start = time.perf_counter()
            cdag, memory, kwargs, engine, closed_form = setup()
            played = run_spill_game(cdag, memory, **kwargs)
            replayed = engine().replay(played)
            times.append(time.perf_counter() - start)
        summary = played.summary()
        problems = []
        if replayed.summary() != summary:
            problems.append("replayed summary differs from the played one")
        if summary["computes"] != len(cdag.operations):
            problems.append(f"{summary['computes']} computes for "
                            f"{len(cdag.operations)} operations")
        if closed_form is not None and summary["io"] != closed_form:
            problems.append(f"io {summary['io']} != closed form {closed_form}")
        outcome.op(not problems, f"{name}: {'; '.join(problems)}")
        del cdag, played, replayed
    return times


def measure(work: Path, seed: int, seconds: float) -> Outcome:
    started = time.perf_counter()
    outcome = Outcome()
    probe = [sys.executable, "-c", f"import {LIBRARY}"]
    common.spawn_time_to_exit(probe, work)  # byte-compile once
    setups = [common.spawn_time_to_exit(probe, work)
              for _ in range(common.SETUP_SAMPLES)]
    passes = common.repeat_passes(seconds, started,
                                  lambda: play_pass(seed, outcome))
    outcome.metrics.update(common.end_to_end(
        setups, [sum(times) for times in passes],
        [common.peak_rss_self_mb()]))
    return outcome


def trace(work: Path, seed: int, seconds: float) -> Outcome:
    """A warm-up pass, then passes alternately untraced (the end-to-end
    baseline) and traced."""
    outcome = Outcome()
    import_s = common.median(
        [common.import_seconds("repro.cli", work) for _ in range(3)])
    play_pass(seed, outcome)
    untraced, traced, metrics, covered = spans.compare(
        lambda: sum(play_pass(seed, outcome)),
        lambda tracer: sum(play_pass(seed, outcome, timed=tracer.root)))
    metrics.update({
        "cli.import_s": import_s,
        "trace.overhead_s": traced - untraced,
        "trace.layer_sum_frac": covered / untraced,
    })
    outcome.metrics.update(metrics)
    return outcome
