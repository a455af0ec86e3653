"""The unified spill-strategy entry point, :func:`run_spill_game`.

The module keeps its historical name because callers import
``run_spill_game`` from here: the harness's spill cells, and tracing
and benchmark tools that wrap ``repro.pebbling.sharded.run_spill_game``
and read its ``backend`` default.

Usage::

    from repro.pebbling import run_spill_game
    record = run_spill_game(cdag, hierarchy)            # P-RBW
    record = run_spill_game(cdag, 8, engine="redblue")  # red-blue, S=8
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..core.cdag import CDAG, Vertex
from .hierarchy import MemoryHierarchy
from .state import GameRecord
from .strategies import _validate_policy
from .strategies import parallel_spill_game, spill_game_rbw, spill_game_redblue

__all__ = ["run_spill_game"]


def run_spill_game(
    cdag: CDAG,
    memory,
    schedule: Optional[Sequence[Vertex]] = None,
    assignment: Optional[Dict[Vertex, int]] = None,
    policy: str = "lru",
    backend: str = "batched",
    engine: str = "rbw",
    spill=False,
) -> GameRecord:
    """Play a complete spill-strategy game.

    ``memory`` selects the model: an ``int`` plays a sequential game
    with that many red pebbles (``engine="rbw"`` or ``"redblue"``), a
    :class:`~repro.pebbling.hierarchy.MemoryHierarchy` plays the P-RBW
    owner-computes strategy.  A thin dispatcher over
    :func:`~repro.pebbling.strategies.spill_game_rbw`,
    :func:`~repro.pebbling.strategies.spill_game_redblue` and
    :func:`~repro.pebbling.strategies.parallel_spill_game`.  ``policy``
    is validated for every model, but the P-RBW strategy always evicts
    LRU, so a hierarchy game plays the same under either policy.
    """
    _validate_policy(policy)
    if isinstance(memory, MemoryHierarchy):
        return parallel_spill_game(
            cdag,
            memory,
            assignment=assignment,
            schedule=schedule,
            backend=backend,
            spill=spill,
        )
    if engine not in ("rbw", "redblue"):
        raise ValueError(f"engine must be 'rbw' or 'redblue', got {engine!r}")
    runner = spill_game_redblue if engine == "redblue" else spill_game_rbw
    return runner(
        cdag,
        memory,
        schedule=schedule,
        policy=policy,
        backend=backend,
        spill=spill,
    )
