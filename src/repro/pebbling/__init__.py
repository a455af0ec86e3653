"""Pebble-game engines and strategies.

* :class:`RedBluePebbleGame` — the Hong-Kung red-blue game (Definition 2).
* :class:`RBWPebbleGame` — the Red-Blue-White game (Definition 4), the
  paper's sequential model: no recomputation, flexible input/output tags.
* :class:`ParallelRBWPebbleGame` — the P-RBW game (Definition 6) over a
  :class:`MemoryHierarchy` (Figure 1), distinguishing vertical and
  horizontal data movement.
* Strategies (:mod:`repro.pebbling.strategies`) produce complete games —
  upper bounds on I/O — from schedules and owner-computes assignments.
* :func:`run_spill_game` is the unified strategy entry point; with
  ``workers=N`` it shards independent per-processor subgames across a
  process pool (:class:`ShardedStrategyRunner`) and merges the shard
  logs into one canonical, move-for-move-faithful record.
* :func:`optimal_rbw_io` finds the exact optimum on small CDAGs by a
  bitmask A* search (0-1 BFS), used to validate the bounds.
"""

from .hierarchy import LevelSpec, MemoryHierarchy
from .optimal import OptimalSearchResult, SearchBudgetExceeded, optimal_rbw_io
from .parallel import ParallelRBWPebbleGame
from .rbw import RBWPebbleGame
from .redblue import RedBluePebbleGame
from .sharded import (
    ShardedStrategyRunner,
    ShardPlan,
    ShardSpec,
    run_spill_game,
)
from .state import GameError, GameRecord, Move, MoveKind, MoveLog
from .strategies import (
    contiguous_block_assignment,
    parallel_spill_game,
    spill_game_rbw,
    spill_game_redblue,
)

__all__ = [
    "LevelSpec",
    "MemoryHierarchy",
    "OptimalSearchResult",
    "SearchBudgetExceeded",
    "optimal_rbw_io",
    "ParallelRBWPebbleGame",
    "RBWPebbleGame",
    "RedBluePebbleGame",
    "ShardedStrategyRunner",
    "ShardPlan",
    "ShardSpec",
    "run_spill_game",
    "GameError",
    "GameRecord",
    "Move",
    "MoveKind",
    "MoveLog",
    "contiguous_block_assignment",
    "parallel_spill_game",
    "spill_game_rbw",
    "spill_game_redblue",
]
