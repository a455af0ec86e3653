"""Documentation and bench-smoke checks wired into the tier-1 run.

Two things ride in the plain ``pytest -x -q`` invocation:

* the **doctest run** over the documented public surface
  (``core/cdag.py``, ``core/ordering.py``, ``pebbling/state.py``,
  ``pebbling/parallel.py``,
  ``distsim/cluster.py`` with E8's traffic counts, plus the
  artifact-store/service layer: ``store/keys.py``,
  ``store/db.py``, ``store/analysis.py``, ``service/server.py``)
  — the module-level usage examples those docstrings show must execute as
  written (the same modules can be checked standalone with
  ``PYTHONPATH=src python -m pytest --doctest-modules src/repro/core/ordering.py``);
* a ~1-second **bench smoke**: a complete 10^6-move P-RBW pebble game
  through the full rule-checking engine and columnar move log.  This is
  the scale the seed's one-``Move``-object-per-transition log could not
  reach; the timed version lives in
  ``benchmarks/bench_compiled_core.py`` (``BENCH_SMOKE=1`` selects the
  benchmarks' smoke mode).
"""

import doctest

import numpy as np
import pytest

import repro.core.cdag
import repro.core.ordering
import repro.distsim.cluster
import repro.obs.dashboard
import repro.obs.events
import repro.obs.metrics
import repro.pebbling.parallel
import repro.pebbling.state
import repro.service.server
import repro.store.analysis
import repro.store.db
import repro.store.keys
from repro.pebbling.state import OP_COMPUTE, OP_DELETE, OP_LOAD
from repro.pebbling.workloads import prbw_pump_game

DOCTEST_MODULES = [
    repro.core.cdag,
    repro.core.ordering,
    repro.pebbling.state,
    repro.pebbling.parallel,
    repro.distsim.cluster,
    repro.store.keys,
    repro.store.db,
    repro.store.analysis,
    repro.service.server,
    repro.obs.metrics,
    repro.obs.events,
    repro.obs.dashboard,
]

SMOKE_MOVES = 1_000_000


@pytest.mark.parametrize(
    "module", DOCTEST_MODULES, ids=lambda m: m.__name__
)
def test_doctests_of_documented_public_surface(module):
    result = doctest.testmod(module, verbose=False)
    assert result.attempted > 0, f"{module.__name__} has no doctests"
    assert result.failed == 0


def test_bench_smoke_million_move_prbw_game_completes():
    game = prbw_pump_game(SMOKE_MOVES)
    assert game.is_complete()
    record = game.record
    assert len(record.moves) == SMOKE_MOVES
    # columnar invariants at scale: counters derive from the opcode column
    kinds = record.log.kinds()
    bins = np.bincount(kinds, minlength=7)
    assert int(bins[OP_LOAD]) == record.load_count == SMOKE_MOVES // 2 - 3
    assert int(bins[OP_DELETE]) == (SMOKE_MOVES - 8) // 2
    assert int(bins[OP_COMPUTE]) == record.compute_count == 2
    assert record.summary()["moves"] == SMOKE_MOVES
    # a 10^6-move log should occupy numpy blocks, not a Python list
    assert len(record.log._blocks) == SMOKE_MOVES // record.log.block_size
