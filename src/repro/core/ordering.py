"""Execution orders (schedules) for CDAGs.

A *schedule* is a total order of the CDAG vertices consistent with the
edge partial order.  Schedules matter in two ways for the paper's
framework:

* every pebble game induces a schedule (the order in which compute rule
  R3/R6 fires), and conversely a schedule plus a spilling policy induces a
  game — this is how upper bounds are produced;
* the *schedule wavefront* (Section 3.3) of a schedule at a firing is the
  live-set size, whose minimum over schedules relates to the min-cut
  lower bound of Lemma 2.

This module provides several schedule generators with different
memory-pressure characteristics:

* plain Kahn topological order (insertion-order tie-break);
* depth-first post-order-ish scheduling, which tends to retire values
  quickly (good for chains/trees);
* a greedy *minimum-live-set* heuristic that at each step fires the ready
  vertex minimizing the resulting live-value count — a practical
  approximation of a memory-optimal order;
* priority scheduling with a user-supplied key (used by the tiled /
  blocked schedules of the algorithm modules).

The DFS and min-live-set generators run on the compiled integer-indexed
snapshot (:meth:`CDAG.compiled`): :func:`dfs_schedule_ids` and
:func:`min_liveset_schedule_ids` walk plain-``int`` adjacency lists and
the vertex-space wrappers convert ids back to names once at the end.
Their dict-of-names reference implementations live in the test suite
(``tests/core/reference_graph.py``), and the equivalence tests pin both
to identical schedules on randomized CDAGs.  :func:`validate_schedule`
checks the edge partial order vectorized over the compiled CSR arrays.

Usage example (doctest)::

    >>> from repro.core.builders import diamond_cdag
    >>> from repro.core.ordering import (
    ...     dfs_schedule, min_liveset_schedule, validate_schedule)
    >>> cdag = diamond_cdag(3, 2)       # 3-wide, 2-row stencil diamond
    >>> sched = min_liveset_schedule(cdag)
    >>> validate_schedule(cdag, sched)  # raises CDAGError if not a valid order
    >>> sched[:3]
    [('dmd', 0, 0), ('dmd', 0, 1), ('dmd', 1, 0)]
    >>> c = cdag.compiled()             # the id-space variants
    >>> from repro.core.ordering import dfs_schedule_ids
    >>> c.vertices_of(dfs_schedule_ids(c)) == dfs_schedule(cdag)
    True
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .cdag import CDAG, CDAGError, Vertex
from .compiled import CompiledCDAG

__all__ = [
    "topological_schedule",
    "dfs_schedule",
    "dfs_schedule_ids",
    "min_liveset_schedule",
    "min_liveset_schedule_ids",
    "priority_schedule",
    "validate_schedule",
]


def validate_schedule(cdag: CDAG, schedule: Sequence[Vertex]) -> None:
    """Raise :class:`CDAGError` unless ``schedule`` is a valid total order.

    Runs on the compiled backend: the schedule is converted to ids once
    and the dependence check compares the position arrays of every CSR
    edge in a single vectorized pass.
    """
    c = cdag.compiled()
    try:
        ids = c.ids_of(schedule)
    except KeyError as exc:
        raise CDAGError(
            f"schedule contains unknown vertex {exc.args[0]!r}"
        ) from None
    if len(set(ids)) != len(ids):
        raise CDAGError("schedule contains duplicate vertices")
    if len(ids) != c.n:
        raise CDAGError("schedule must contain every vertex exactly once")
    if c.m == 0:
        return
    pos = np.empty(c.n, dtype=np.int64)
    pos[ids] = np.arange(c.n, dtype=np.int64)
    head_pos = np.repeat(pos, np.diff(c.succ_indptr))
    bad = np.flatnonzero(head_pos > pos[c.succ_indices])
    if bad.size:
        k = int(bad[0])
        u = int(np.searchsorted(c.succ_indptr, k, side="right") - 1)
        v = int(c.succ_indices[k])
        raise CDAGError(
            f"schedule violates dependence {c.vertex(u)!r} -> {c.vertex(v)!r}"
        )


def topological_schedule(cdag: CDAG) -> List[Vertex]:
    """Kahn topological order with deterministic insertion-order tie-break."""
    return cdag.topological_order()


# ======================================================================
# Depth-first schedule
# ======================================================================
def dfs_schedule_ids(
    c: CompiledCDAG, reverse_roots: bool = False
) -> List[int]:
    """Depth-first schedule in id space (see :func:`dfs_schedule`).

    Takes a :class:`~repro.core.compiled.CompiledCDAG` and returns vertex
    ids; this is the hot path the vertex-space wrapper converts from.
    """
    remaining = c.in_degree.tolist()
    succ_lists = c.succ_lists
    emitted = bytearray(c.n)
    roots = [i for i in range(c.n) if remaining[i] == 0]
    if reverse_roots:
        roots.reverse()
    stack = roots[::-1]
    schedule: List[int] = []
    append = schedule.append
    while stack:
        v = stack.pop()
        if emitted[v] or remaining[v] > 0:
            # Already emitted, or re-pushed before its last predecessor
            # fired; it will be pushed again when it becomes ready.
            continue
        emitted[v] = 1
        append(v)
        for w in reversed(succ_lists[v]):
            remaining[w] -= 1
            if remaining[w] == 0 and not emitted[w]:
                stack.append(w)
    if len(schedule) != c.n:
        raise CDAGError("graph contains a directed cycle")
    return schedule


def dfs_schedule(cdag: CDAG, reverse_roots: bool = False) -> List[Vertex]:
    """Depth-first schedule.

    Performs an iterative DFS from the source vertices, emitting a vertex
    as soon as all its predecessors have been emitted.  For tree- and
    chain-like CDAGs this tends to keep the live set small because whole
    subtrees are finished before moving on.  Runs
    :func:`dfs_schedule_ids` on the compiled snapshot.
    """
    c = cdag.compiled()
    return c.vertices_of(dfs_schedule_ids(c, reverse_roots))


# ======================================================================
# Greedy minimum-live-set schedule
# ======================================================================
def min_liveset_schedule_ids(c: CompiledCDAG) -> List[int]:
    """Greedy minimum-live-set schedule in id space (see
    :func:`min_liveset_schedule`).

    Same greedy rule as the test reference: among ready vertices fire the
    one minimizing the live-set delta, ties broken by insertion order —
    which in id space is simply the id itself.

    Selection is identical to the reference but far cheaper: the
    reference re-derives every candidate's delta each step (a predecessor
    walk per candidate per step).  Here deltas are maintained
    *incrementally* — an unfired vertex's delta only ever changes when one
    of its predecessors drops to a single unfired successor, which
    happens once per predecessor — and ready vertices sit in a
    lazy-deletion heap keyed by ``(delta, id)``: stale entries (fired, or
    pushed with an outdated delta) are discarded on pop.  The key is a
    strict total order and every ready vertex always has an entry with
    its current delta, so the fired sequence matches the reference
    exactly, at ``O((V + E) log V)`` instead of per-step ready-list
    walks.
    """
    out_degree = c.out_degree.tolist()
    remaining_succ = c.out_degree.tolist()
    remaining_pred = c.in_degree.tolist()
    pred_lists = c.pred_lists
    succ_lists = c.succ_lists
    fired = bytearray(c.n)
    # delta[v] = net live-set change of firing v *now*; kept current for
    # every unfired vertex.
    delta = [0] * c.n
    for v in range(c.n):
        d = 1 if out_degree[v] > 0 else 0
        for p in pred_lists[v]:
            if out_degree[p] == 1:  # v is p's only successor
                d -= 1
        delta[v] = d
    heap = [(delta[i], i) for i in range(c.n) if remaining_pred[i] == 0]
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    schedule: List[int] = []
    append = schedule.append
    while heap:
        d, v = pop(heap)
        if fired[v] or d != delta[v]:
            continue  # stale entry; the current one is still queued
        append(v)
        fired[v] = 1
        for p in pred_lists[v]:
            remaining_succ[p] -= 1
            if remaining_succ[p] == 1:
                # p now has exactly one unfired successor: that successor
                # would retire p by firing, so its delta drops by one.
                for w in succ_lists[p]:
                    if not fired[w]:
                        delta[w] -= 1
                        if remaining_pred[w] == 0:
                            push(heap, (delta[w], w))
                        break
        for w in succ_lists[v]:
            remaining_pred[w] -= 1
            if remaining_pred[w] == 0:
                push(heap, (delta[w], w))
    if len(schedule) != c.n:
        raise CDAGError("graph contains a directed cycle")
    return schedule


def min_liveset_schedule(cdag: CDAG) -> List[Vertex]:
    """Greedy minimum-live-set schedule.

    At each step, among ready vertices, fire the one whose firing leads to
    the smallest live-value count: firing ``v`` adds 1 to the live set if
    ``v`` has unfired successors and retires every predecessor whose last
    unfired successor was ``v``.  Ties are broken by insertion order.

    This is a heuristic (the problem of minimizing the peak live set is
    NP-hard in general — it is equivalent to one-shot pebbling), but it
    gives good upper bounds on ``w_max`` for the structured CDAGs used in
    the evaluation and drives the spill-based upper-bound games.  Runs
    :func:`min_liveset_schedule_ids` on the compiled snapshot.
    """
    c = cdag.compiled()
    return c.vertices_of(min_liveset_schedule_ids(c))


# ======================================================================
# Priority schedule
# ======================================================================
def priority_schedule(
    cdag: CDAG, key: Callable[[Vertex], Tuple]
) -> List[Vertex]:
    """List scheduling with an arbitrary priority ``key`` (lower = earlier).

    Ready vertices are kept in a heap ordered by ``key``; this is how the
    blocked/tiled schedules of the algorithm modules (e.g. tile-by-tile
    Jacobi) are expressed: the key encodes the tile index so that a whole
    tile is finished before the next one starts.  (The key runs on vertex
    *names* by design — tiling keys are name-structured — so this walks
    the CDAG's own name adjacency.)
    """
    counter = 0
    remaining_pred: Dict[Vertex, int] = {
        v: cdag.in_degree(v) for v in cdag.vertices
    }
    heap: List[Tuple[Tuple, int, Vertex]] = []
    for v in cdag.vertices:
        if remaining_pred[v] == 0:
            heapq.heappush(heap, (key(v), counter, v))
            counter += 1
    schedule: List[Vertex] = []
    while heap:
        _, _, v = heapq.heappop(heap)
        schedule.append(v)
        for w in cdag.successors(v):
            remaining_pred[w] -= 1
            if remaining_pred[w] == 0:
                heapq.heappush(heap, (key(w), counter, w))
                counter += 1
    if len(schedule) != cdag.num_vertices():
        raise CDAGError("graph contains a directed cycle")
    return schedule
