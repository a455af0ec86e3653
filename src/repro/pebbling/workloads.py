"""Synthetic pebble-game drivers shared by benchmarks and smoke tests.

Pump games
----------
:func:`prbw_pump_game` / :func:`redblue_pump_game` are not strategies —
they do not model a memory policy.  They exist to exercise the engines'
move-recording hot path at a *chosen* move count: a rule-checked
load/delete pump on a tiny chain CDAG, finished with a short hand-written
tail so the game ends complete.  The move-log benchmarks
(``benchmarks/bench_compiled_core.py``) time them per move, and the
tier-1 bench smoke (``tests/test_docs_and_bench_smoke.py``) asserts the
10^6-move P-RBW acceptance bar on the same shape.

Strategy workloads
------------------
:func:`star_spill_setup` and :func:`chains_spill_setup` size *real spill
games* (driven by :func:`~repro.pebbling.strategies.parallel_spill_game`
and the sequential spill strategies) to a target operation count, for the
``strategy/*`` benchmarks at 10^6-10^7 moves:

* the **star** shape — independent ``degree``-ary operations over fresh
  inputs — stresses the owner-computes hierarchy walk (load, 2x move-up
  per operand, bulk retire) with registers sized so every operand set
  just fits;
* the **interleaved chains** shape — the BFS-order schedule of
  ``independent_chains_cdag`` with far fewer red pebbles than chains —
  makes the LRU working set thrash, so roughly every operation both
  loads and spills (an I/O-bound game, the worst case for the
  eviction bookkeeping the batched backend accelerates).

Bulk log synthesis
------------------
:func:`synthesize_redblue_pump_log` writes the red-blue pump's column
pattern straight into a :class:`~repro.pebbling.state.MoveLog` via
vectorized block appends — the way to build a 10^8-move (disk-spilled)
log in seconds so the *reader* side (engine replay, chunk paging) can be
benchmarked independently of Python-speed appends.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from ..core.builders import chain_cdag, independent_chains_cdag
from ..core.cdag import CDAG
from .hierarchy import MemoryHierarchy
from .parallel import ParallelRBWPebbleGame
from .redblue import RedBluePebbleGame
from .state import OP_COMPUTE, OP_DELETE, OP_LOAD, OP_STORE, MoveLog

__all__ = [
    "prbw_pump_game",
    "redblue_pump_game",
    "star_spill_cdag",
    "star_spill_setup",
    "chains_spill_setup",
    "component_forest_cdag",
    "synthesize_redblue_pump_log",
]

#: moves in the completing tail of :func:`prbw_pump_game`
PRBW_TAIL = 8
#: moves in the completing tail of :func:`redblue_pump_game`
REDBLUE_TAIL = 5


def prbw_pump_game(target_moves: int) -> ParallelRBWPebbleGame:
    """A complete P-RBW game with exactly ``target_moves`` moves.

    The bulk is a load/delete pump on the input vertex of a 2-op chain
    over a 2-node cluster hierarchy (every move rule-checked and logged);
    the final 8 moves pull the chain through the hierarchy and store the
    output, so the game ends complete.  ``target_moves`` must be even and
    at least 8.
    """
    if target_moves < PRBW_TAIL or (target_moves - PRBW_TAIL) % 2:
        raise ValueError(
            f"target_moves must be even and >= {PRBW_TAIL}"
        )
    cdag = chain_cdag(2)
    hierarchy = MemoryHierarchy.cluster(
        nodes=2, cores_per_node=1, registers_per_core=4, cache_size=8
    )
    game = ParallelRBWPebbleGame(cdag, hierarchy)
    i0 = int(cdag.compiled().input_ids[0])
    L = hierarchy.num_levels
    load, delete = game.load_id, game.delete_id
    for _ in range((target_moves - PRBW_TAIL) // 2):
        load(i0, 0)
        delete(i0, L, 0)
    game.load(("chain", 0), node=0)
    game.move_up(("chain", 0), 2, 0)
    game.move_up(("chain", 0), 1, 0)
    game.compute(("chain", 1), processor=0)
    game.compute(("chain", 2), processor=0)
    game.move_down(("chain", 2), 2, 0)
    game.move_down(("chain", 2), 3, 0)
    game.store(("chain", 2), node=0)
    return game


def star_spill_cdag(num_ops: int, degree: int = 8) -> CDAG:
    """``num_ops`` independent operations, each consuming ``degree`` fresh
    input vertices (no sharing, sinks untagged under flexible RBW
    labels).  The owner-computes P-RBW strategy turns every operation
    into ``degree`` loads, ``2 * degree`` move-ups (three-level
    hierarchy), a compute, and ``3 * degree + 1`` retiring deletes —
    ``6 * degree + 2`` rule-checked moves per operation.

    Operation ``k`` owns ids ``k * (degree + 1) + j``: its inputs
    ``("in", k, j)`` at ``j < degree``, then ``("op", k)``."""
    if num_ops < 1 or degree < 1:
        raise ValueError("num_ops and degree must be >= 1")
    width = degree + 1
    ids = np.arange(num_ops * width).reshape(num_ops, width)
    vertices = [None] * ids.size
    for j in range(degree):
        vertices[j::width] = product(("in",), range(num_ops), (j,))
    vertices[degree::width] = product(("op",), range(num_ops))
    src = ids[:, :degree].ravel()
    return CDAG.from_ids(vertices, src, np.repeat(ids[:, degree], degree),
                         src, name="star")


def star_spill_setup(num_ops: int, degree: int = 8):
    """A ``(cdag, hierarchy)`` pair for the P-RBW ``strategy/*`` benches.

    The register file and per-node cache hold exactly one operand set
    plus the result (``degree + 1`` words): the hierarchy walk runs on
    every operand.  A ``num_ops``-operation game has ``(6*degree + 2) *
    num_ops`` moves — size ``num_ops`` accordingly (e.g. 200_000 ops at
    the default degree is a 10^7-move game).
    """
    cdag = star_spill_cdag(num_ops, degree)
    hierarchy = MemoryHierarchy.cluster(
        nodes=1,
        cores_per_node=1,
        registers_per_core=degree + 1,
        cache_size=degree + 1,
    )
    return cdag, hierarchy


def chains_spill_setup(num_chains: int, length: int, num_red: int = 4):
    """A ``(cdag, num_red)`` pair for the sequential ``strategy/*`` benches.

    The default topological schedule of ``independent_chains_cdag``
    interleaves the chains breadth-first, so with ``num_red`` far below
    ``num_chains`` the LRU working set thrashes: almost every operation
    loads its operand back from slow memory and spills another chain's
    head (~5 moves and ~2 I/Os per operation) — an I/O-bound spill game
    whose eviction bookkeeping is exactly what the batched backend
    accelerates.  A ``(2000, 1000)`` chain grid is a 10^7-move game.
    """
    return independent_chains_cdag(num_chains, length), num_red


def component_forest_cdag(
    num_components: int,
    component_size: int,
    seed: int = 0,
    extra_edge_prob: float = 0.15,
) -> CDAG:
    """A disjoint union of seeded random connected DAGs — the seeded
    multi-component workload of the spill experiments.

    Component ``k`` is a random connected DAG on ``component_size``
    vertices ``("c", k, i)`` drawn from ``default_rng(seed + k)`` (every
    vertex past the first gets one backbone edge from an earlier vertex,
    plus Bernoulli extras); sources are tagged input and sinks are tagged
    output, valid under flexible RBW labels.  Vertices are inserted
    component-major, so :func:`~repro.core.ordering.dfs_schedule` yields
    a component-contiguous schedule, while the plain BFS topological
    order interleaves components.
    """
    if num_components < 1 or component_size < 1:
        raise ValueError("need at least one component of one vertex")
    n = component_size
    # One draw per pair i < j, row-major: the order a nested i / j loop
    # of scalar draws would take.
    rows, cols = np.triu_indices(n, 1)
    heads = np.arange(1, n)
    src, dst, inputs, outputs = [], [], [], []
    for k in range(num_components):
        rng = np.random.default_rng(seed + k)
        # One backbone draw per vertex past the first, in vertex order
        # (the stream scalar ``rng.integers(0, j)`` calls consume).
        backbone = rng.integers(0, heads) * n + heads
        extra = rng.random(rows.size) < extra_edge_prob
        # Edge (i, j) is the key i * n + j: the keys present, in
        # ascending order, are the sorted edge set.
        present = np.zeros(n * n, dtype=bool)
        present[backbone] = True
        present[rows[extra] * n + cols[extra]] = True
        tail, head = np.divmod(np.flatnonzero(present), n)
        has_pred = np.bincount(head, minlength=n) > 0
        has_succ = np.bincount(tail, minlength=n) > 0
        base = k * n
        src.append(tail + base)
        dst.append(head + base)
        inputs.append(np.flatnonzero(~has_pred) + base)
        outputs.append(np.flatnonzero(has_pred & ~has_succ) + base)
    return CDAG.from_ids(
        product(("c",), range(num_components), range(n)),
        np.concatenate(src), np.concatenate(dst),
        np.concatenate(inputs), np.concatenate(outputs),
        name=f"forest{num_components}x{component_size}",
    )


def synthesize_redblue_pump_log(
    target_moves: int, cdag=None, spill=False, block_rows: int = 1_000_000
) -> MoveLog:
    """Build the exact column pattern of :func:`redblue_pump_game` with
    vectorized block appends (no per-move Python work).

    The result is a :class:`~repro.pebbling.state.MoveLog` bound to the
    2-op chain CDAG (pass ``cdag`` to reuse one) that replays green
    through ``RedBluePebbleGame.replay`` — with ``spill=True`` the
    columns land in on-disk block files, which is how the 10^8-move
    flat-memory round-trip benchmark builds its input in seconds.
    ``target_moves`` must be odd and at least 5, like the pump's.
    """
    if target_moves < REDBLUE_TAIL or (target_moves - REDBLUE_TAIL) % 2:
        raise ValueError(f"target_moves must be odd and >= {REDBLUE_TAIL}")
    if block_rows < 2:
        raise ValueError("block_rows must be >= 2 (one load/delete pair)")
    if cdag is None:
        cdag = chain_cdag(2)
    c = cdag.compiled()
    i0 = int(c.input_ids[0])
    i1 = c.id(("chain", 1))
    i2 = c.id(("chain", 2))
    log = MoveLog(compiled=c, spill=spill)
    pump_pairs = (target_moves - REDBLUE_TAIL) // 2
    pair = np.array([OP_LOAD, OP_DELETE], dtype=np.int8)
    rows = block_rows - block_rows % 2
    while pump_pairs > 0:
        take = min(pump_pairs, rows // 2)
        log.extend_block(
            np.tile(pair, take),
            np.full(2 * take, i0, dtype=np.int32),
        )
        pump_pairs -= take
    for code, vid in (
        (OP_LOAD, i0),
        (OP_COMPUTE, i1),
        (OP_COMPUTE, i2),
        (OP_STORE, i2),
        (OP_DELETE, i0),
    ):
        log.append_ids(code, vid)
    return log


def redblue_pump_game(target_moves: int) -> RedBluePebbleGame:
    """A complete red-blue game with exactly ``target_moves`` moves
    (load/delete pump, then a load-compute-compute-store-delete tail).
    ``target_moves`` must be odd and at least 5."""
    if target_moves < REDBLUE_TAIL or (target_moves - REDBLUE_TAIL) % 2:
        raise ValueError(
            f"target_moves must be odd and >= {REDBLUE_TAIL}"
        )
    cdag = chain_cdag(2)
    game = RedBluePebbleGame(cdag, num_red=4)
    i0 = int(cdag.compiled().input_ids[0])
    load, delete = game.load_id, game.delete_id
    for _ in range((target_moves - REDBLUE_TAIL) // 2):
        load(i0)
        delete(i0)
    game.load(("chain", 0))
    game.compute(("chain", 1))
    game.compute(("chain", 2))
    game.store(("chain", 2))
    game.delete(("chain", 0))
    return game
