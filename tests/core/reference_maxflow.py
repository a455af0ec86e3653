"""Reference oracle for the vertex-splitting max-flow: Edmonds-Karp over
a dict graph.

A deliberately simple max-flow, independent of scipy, that the cached
network of :class:`repro.core.properties.WavefrontSolver` is pinned to
(``test_compiled.py``, ``test_flow_differential.py``).  It is not part
of the library.

Every CDAG vertex ``v`` becomes an arc ``("in", v) -> ("out", v)`` of
capacity 1 (unbounded when ``v`` is uncuttable), and every CDAG edge
``u -> v`` an unbounded arc ``("out", u) -> ("in", v)``.  A super-source
feeds ``("in", s)`` for each source vertex ``s``; each target ``t``
drains ``("out", t)`` into a super-sink.  The maximum flow is then the
fewest vertices whose removal cuts every source-to-target path and, by
Menger's theorem, the most pairwise vertex-disjoint such paths.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, Iterable

from repro.core.cdag import CDAG, Vertex

__all__ = ["max_flow", "vertex_cut", "min_wavefront"]

INF = float("inf")
SOURCE, SINK = ("__source__",), ("__sink__",)

Network = Dict[Hashable, Dict[Hashable, float]]


def max_flow(capacity: Network, source: Hashable, sink: Hashable) -> int:
    """Edmonds-Karp: augment along a shortest residual path until none
    is left.  Every source-to-sink path must cross a finite arc."""
    residual: Network = {u: dict(arcs) for u, arcs in capacity.items()}
    for u, arcs in capacity.items():
        for v in arcs:
            residual.setdefault(v, {}).setdefault(u, 0)
    flow = 0
    while True:
        parent = {source: None}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v, cap in residual[u].items():
                if cap > 0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            return flow
        path = []
        v = sink
        while parent[v] is not None:
            path.append((parent[v], v))
            v = parent[v]
        push = min(residual[u][v] for u, v in path)
        for u, v in path:
            residual[u][v] -= push
            residual[v][u] += push
        flow += int(push)


def vertex_cut(
    cdag: CDAG,
    sources: Iterable[Vertex],
    targets: Iterable[Vertex],
    uncuttable: Iterable[Vertex] = (),
) -> int:
    """Fewest cuttable vertices separating ``sources`` from ``targets``
    (a source or target may itself be cut)."""
    fixed = set(uncuttable)
    capacity: Network = {}
    for v in cdag.vertices:
        capacity[("in", v)] = {("out", v): INF if v in fixed else 1}
    for u, v in cdag.edges():
        capacity.setdefault(("out", u), {})[("in", v)] = INF
    capacity[SOURCE] = {("in", s): INF for s in sources}
    for t in targets:
        capacity.setdefault(("out", t), {})[SINK] = INF
    return max_flow(capacity, SOURCE, SINK)


def min_wavefront(cdag: CDAG, x: Vertex) -> int:
    """``|W^min_G(x)|``: the smallest wavefront of a convex cut with
    ``x`` and its ancestors on the S side and its descendants on the T
    side (descendants are never wavefront members)."""
    desc = cdag.descendants(x)
    if not desc:
        return 1
    return vertex_cut(cdag, cdag.ancestors(x) | {x}, desc, uncuttable=desc)
