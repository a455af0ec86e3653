"""Reference oracles for the CDAG graph queries: plain loops over the
dict-of-names adjacency of :class:`repro.core.cdag.CDAG`.

The library answers every order and traversal query on the compiled
integer-indexed snapshot (:mod:`repro.core.compiled`) and the id-space
schedulers (:mod:`repro.core.ordering`).  These are the earlier
name-space implementations, kept so that the differential suites
(``test_compiled.py``, ``test_ordering.py``, ``test_graph_differential.py``,
``tests/pebbling/test_movelog.py``) can pin the runtime path to them on
randomized CDAGs.  They are not part of the library.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Sequence, Set

from repro.core.cdag import CDAG, CDAGError, CycleError, Vertex, _Stats
from repro.pebbling.state import MoveKind

__all__ = [
    "topological_order",
    "ancestors",
    "descendants",
    "depth",
    "stats",
    "dfs_schedule",
    "min_liveset_schedule",
    "schedule_wavefronts",
    "partition_from_moves",
]


# ----------------------------------------------------------------------
# Orders and traversal
# ----------------------------------------------------------------------
def topological_order(cdag: CDAG) -> List[Vertex]:
    """Kahn's algorithm: a FIFO ready queue seeded in insertion order."""
    order_index = {v: i for i, v in enumerate(cdag.vertices)}
    indeg = {v: cdag.in_degree(v) for v in cdag.vertices}
    ready = deque(sorted((v for v, d in indeg.items() if d == 0),
                         key=order_index.__getitem__))
    order: List[Vertex] = []
    while ready:
        v = ready.popleft()
        order.append(v)
        for w in cdag.successors(v):
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    if len(order) != cdag.num_vertices():
        raise CycleError("graph contains a directed cycle")
    return order


def ancestors(cdag: CDAG, v: Vertex) -> Set[Vertex]:
    """All strict ancestors of ``v`` (vertices with a path to ``v``)."""
    seen: Set[Vertex] = set()
    stack = cdag.predecessors(v)
    while stack:
        u = stack.pop()
        if u not in seen:
            seen.add(u)
            stack.extend(cdag.predecessors(u))
    return seen


def descendants(cdag: CDAG, v: Vertex) -> Set[Vertex]:
    """All strict descendants of ``v``."""
    seen: Set[Vertex] = set()
    stack = cdag.successors(v)
    while stack:
        u = stack.pop()
        if u not in seen:
            seen.add(u)
            stack.extend(cdag.successors(u))
    return seen


def depth(cdag: CDAG) -> int:
    """Length (number of vertices) of the longest path in the CDAG."""
    longest = {v: 1 for v in cdag.vertices}
    for v in topological_order(cdag):
        for w in cdag.successors(v):
            if longest[v] + 1 > longest[w]:
                longest[w] = longest[v] + 1
    return max(longest.values()) if longest else 0


def stats(cdag: CDAG) -> _Stats:
    """Summary statistics, field for field as :meth:`CDAG.stats`."""
    verts = cdag.vertices
    return _Stats(
        num_vertices=cdag.num_vertices(),
        num_edges=cdag.num_edges(),
        num_inputs=len(cdag.inputs),
        num_outputs=len(cdag.outputs),
        num_operations=cdag.num_vertices() - len(cdag.inputs),
        max_in_degree=max((cdag.in_degree(v) for v in verts), default=0),
        max_out_degree=max((cdag.out_degree(v) for v in verts), default=0),
        num_sources=len(cdag.sources()),
        num_sinks=len(cdag.sinks()),
        depth=depth(cdag),
    )


# ----------------------------------------------------------------------
# Schedulers
# ----------------------------------------------------------------------
def dfs_schedule(cdag: CDAG, reverse_roots: bool = False) -> List[Vertex]:
    """Depth-first schedule over vertex names."""
    emitted: Set[Vertex] = set()
    remaining_preds: Dict[Vertex, int] = {
        v: cdag.in_degree(v) for v in cdag.vertices
    }
    roots = [v for v in cdag.vertices if remaining_preds[v] == 0]
    if reverse_roots:
        roots = list(reversed(roots))
    schedule: List[Vertex] = []
    stack: List[Vertex] = list(reversed(roots))
    queued: Set[Vertex] = set(roots)
    while stack:
        v = stack.pop()
        if v in emitted:
            continue
        if remaining_preds[v] > 0:
            # Not ready yet; it will be re-pushed when its last
            # predecessor fires.
            queued.discard(v)
            continue
        emitted.add(v)
        schedule.append(v)
        for w in reversed(cdag.successors(v)):
            remaining_preds[w] -= 1
            if remaining_preds[w] == 0 and w not in emitted:
                stack.append(w)
                queued.add(w)
    if len(schedule) != cdag.num_vertices():
        raise CDAGError("graph contains a directed cycle")
    return schedule


def min_liveset_schedule(cdag: CDAG) -> List[Vertex]:
    """Greedy minimum-live-set schedule, re-deriving every ready
    vertex's delta at every step."""
    remaining_succ: Dict[Vertex, int] = {
        v: cdag.out_degree(v) for v in cdag.vertices
    }
    remaining_pred: Dict[Vertex, int] = {
        v: cdag.in_degree(v) for v in cdag.vertices
    }
    order_index = {v: i for i, v in enumerate(cdag.vertices)}
    ready: List[Vertex] = [v for v in cdag.vertices if remaining_pred[v] == 0]
    fired: Set[Vertex] = set()
    schedule: List[Vertex] = []

    def delta(v: Vertex) -> int:
        """Net change in live-set size caused by firing v."""
        d = 1 if remaining_succ[v] > 0 else 0
        for p in cdag.predecessors(v):
            if remaining_succ[p] == 1:  # v is p's last unfired successor
                d -= 1
        return d

    while ready:
        ready.sort(key=lambda v: (delta(v), order_index[v]))
        v = ready.pop(0)
        fired.add(v)
        schedule.append(v)
        for p in cdag.predecessors(v):
            remaining_succ[p] -= 1
        for w in cdag.successors(v):
            remaining_pred[w] -= 1
            if remaining_pred[w] == 0:
                ready.append(w)
    if len(schedule) != cdag.num_vertices():
        raise CDAGError("graph contains a directed cycle")
    return schedule


def schedule_wavefronts(
    cdag: CDAG, schedule: Sequence[Vertex]
) -> List[int]:
    """Live-value count at each firing of ``schedule``, as a set of
    vertex names."""
    position = {v: i for i, v in enumerate(schedule)}
    if len(position) != cdag.num_vertices():
        raise CDAGError("schedule must contain every vertex exactly once")
    for u, v in cdag.edges():
        if position[u] > position[v]:
            raise CDAGError(
                f"schedule violates dependence {u!r} -> {v!r}"
            )
    remaining = {v: cdag.out_degree(v) for v in cdag.vertices}
    live: Set[Vertex] = set()
    sizes: List[int] = []
    for v in schedule:
        # v has just fired; it is live if it has any unfired successor.
        if remaining[v] > 0:
            live.add(v)
        # firing v may retire some predecessors
        for p in cdag.predecessors(v):
            remaining[p] -= 1
            if remaining[p] == 0:
                live.discard(p)
        # the wavefront at the instant v fires includes v itself
        sizes.append(len(live | {v}))
    return sizes


# ----------------------------------------------------------------------
# Theorem 1 partition
# ----------------------------------------------------------------------
def partition_from_moves(moves, s: int) -> List[Set[Vertex]]:
    """The subsets of the ``2S``-partition of a game, sliced one
    :class:`~repro.pebbling.state.Move` at a time: a phase closes before
    its ``(S+1)``-th I/O move, and its computed vertices form a subset."""
    subsets: List[Set[Vertex]] = []
    current: Set[Vertex] = set()
    io_in_phase = 0
    for move in moves:
        if move.kind in (MoveKind.LOAD, MoveKind.STORE):
            if io_in_phase >= s:
                # close the phase before admitting the (S+1)-th I/O
                if current:
                    subsets.append(current)
                    current = set()
                io_in_phase = 0
            io_in_phase += 1
        elif move.kind == MoveKind.COMPUTE:
            current.add(move.vertex)
    if current:
        subsets.append(current)
    return subsets
