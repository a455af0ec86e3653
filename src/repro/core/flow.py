"""Reachability and unit-vertex-capacity max-flow over adjacency lists.

Both work on the plain-``int`` lists of a compiled CDAG
(:attr:`~repro.core.compiled.CompiledCDAG.succ_lists` /
:attr:`~repro.core.compiled.CompiledCDAG.pred_lists`); ids are list
indices.

:func:`max_vertex_flow` finds the most vertex-disjoint paths from a
source set to a target set, i.e. (Menger) the fewest vertices whose
removal cuts every such path.  It runs on the implicit vertex-split
network: every vertex ``v`` is an arc ``in(v) -> out(v)`` of capacity
1, every edge ``u -> w`` an unbounded arc ``out(u) -> in(w)``, the
super-source feeds every ``in(s)`` and every ``out(t)`` drains into the
super-sink.  A vertex then carries at most one unit, so the flow is
stored per vertex as its flow predecessor ``fpred`` and successor
``fsucc`` (:data:`UNUSED` when it carries none, :data:`TERMINAL` for
the super-source / super-sink).  A greedy pass first routes paths
through unused vertices; Dinic phases (a level BFS over the residual
network, then a DFS with current-arc pointers) finish the flow.

In ``absorb`` mode the targets have unbounded capacity: reaching any
target ends a path, and targets never join the cut.  That is the
wavefront min-cut, whose targets are the descendants of a vertex.  A
``live`` mask leaves out the vertices that reach no target: they lie on
no source-to-target path, so the value stays, and the search never
wanders into them.

The independent test oracle is ``tests/core/reference_maxflow.py``.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

__all__ = ["reach", "max_vertex_flow", "flow_paths"]

#: ``fpred``/``fsucc`` of a vertex that carries no flow
UNUSED = -1
#: ``fpred`` of a vertex fed by the super-source, ``fsucc`` of a vertex
#: drained into the super-sink
TERMINAL = -2

Adjacency = Sequence[Sequence[int]]


def reach(adj: Adjacency, starts: Iterable[int]) -> Tuple[List[int], bytearray]:
    """``(order, mask)``: the ids reachable from ``starts`` along ``adj``
    in breadth-first order, ``starts`` first, and their membership mask
    (``starts`` included)."""
    mask = bytearray(len(adj))
    order = []
    append = order.append
    for s in starts:
        if not mask[s]:
            mask[s] = 1
            append(s)
    for v in order:  # the list grows under the loop: a FIFO queue
        for w in adj[v]:
            if not mask[w]:
                mask[w] = 1
                append(w)
    return order, mask


def max_vertex_flow(
    succ: Adjacency,
    sources: Iterable[int],
    is_target: bytearray,
    absorb: bool = False,
    limit: Optional[int] = None,
    live: Optional[bytearray] = None,
) -> Tuple[int, List[int], List[int]]:
    """``(value, fpred, fsucc)``: a maximum flow from ``sources`` to the
    vertices ``t`` with ``is_target[t]``.

    Without ``absorb`` a target is cut like any vertex, and a vertex
    that is both source and target is a one-vertex path.  ``limit`` is a
    known upper bound on the value: the search stops once it is met.
    Only the vertices ``v`` with ``live[v]`` (default: all) carry flow;
    a ``live`` mask that keeps every vertex reaching a target (and the
    targets) keeps the value.
    """
    n = len(succ)
    if live is None:
        live = bytearray(b"\x01") * n
    fpred = [UNUSED] * n
    fsucc = [UNUSED] * n
    sources = [s for s in dict.fromkeys(sources) if live[s]]
    if limit is None or limit > len(sources):
        limit = len(sources)
    value = _greedy(succ, sources, is_target, absorb, live, fpred, fsucc,
                    limit)
    while value < limit:
        gained = _phase(succ, sources, is_target, absorb, live, fpred, fsucc,
                        limit - value)
        if not gained:
            break
        value += gained
    return value, fpred, fsucc


def flow_paths(
    sources: Iterable[int], fpred: List[int], fsucc: List[int]
) -> List[List[int]]:
    """The paths of a flow without ``absorb``, in order of their first
    vertex."""
    paths = []
    for s in sorted(set(sources)):
        if fpred[s] == TERMINAL:
            path = [s]
            while fsucc[path[-1]] != TERMINAL:
                path.append(fsucc[path[-1]])
            paths.append(path)
    return paths


def _record(path: List[int], absorb: bool, fpred, fsucc) -> None:
    """Route one unit along ``path`` (a path of unused vertices)."""
    fpred[path[0]] = TERMINAL
    for u, w in zip(path, path[1:]):
        fsucc[u] = w
        fpred[w] = u
    if not absorb:
        fsucc[path[-1]] = TERMINAL


def _greedy(succ, sources, is_target, absorb, live, fpred, fsucc,
            limit) -> int:
    """Route paths by a forward DFS through unused vertices.  A vertex
    the search has left once leads to no free target later either (the
    used set only grows), so one mark per vertex serves the whole pass."""
    seen = bytearray(len(succ))
    value = 0
    for s in sources:
        if value >= limit:
            break
        if seen[s] or fpred[s] != UNUSED:
            continue
        seen[s] = 1
        path = [s]
        if not is_target[s]:
            stack = [iter(succ[s])]
            while stack:
                for w in stack[-1]:
                    if is_target[w]:
                        if absorb or fpred[w] == UNUSED:
                            path.append(w)
                            stack = None
                            break
                    elif not seen[w]:
                        seen[w] = 1
                        if live[w]:
                            path.append(w)
                            stack.append(iter(succ[w]))
                            break
                else:
                    stack.pop()
                    path.pop()
            if not path:
                continue
        _record(path, absorb, fpred, fsucc)
        value += 1
    return value


def _phase(succ, sources, is_target, absorb, live, fpred, fsucc,
           limit) -> int:
    """One Dinic phase: the number of shortest augmenting paths routed.

    In the residual network ``in(v)`` has one arc out: forward to
    ``out(v)`` if ``v`` is unused, else backward to ``out(fpred[v])``.
    ``out(v)`` has the edge arcs to every ``in(w)``, plus, if ``v`` is
    used, the backward arc to ``in(v)``.  Arcs alternate between in- and
    out-nodes, so in-nodes sit at odd levels and out-nodes at even ones;
    a path prefix of length ``k`` ends at level ``k``.  Every node on an
    augmenting path spends its one unit arc, so the phase drops it.
    """
    n = len(succ)
    lin = [0] * n  # level of in(v); 0: unreached or dropped; -1: not live
    lout = [0] * n
    ins = []
    found = False
    for s in sources:
        if not lin[s] and fpred[s] != TERMINAL:
            lin[s] = 1
            ins.append(s)
            found = found or (is_target[s] and (absorb or fpred[s] == UNUSED))
    level = 1
    while ins and not found:
        outs = []
        for v in ins:
            u = fpred[v]
            if u == UNUSED:
                u = v
            elif u < 0:
                continue  # fed by the super-source: no way on
            if not lout[u]:
                lout[u] = level + 1
                outs.append(u)
        level += 2
        ins = []
        for v in outs:
            for w in succ[v]:
                if not lin[w]:
                    if not live[w]:
                        lin[w] = -1
                        continue
                    lin[w] = level
                    ins.append(w)
                    if is_target[w] and (absorb or fpred[w] == UNUSED):
                        found = True
            if fpred[v] != UNUSED and not lin[v]:
                lin[v] = level
                ins.append(v)
    if not found:
        return 0

    ptr = [0] * n  # current arc of out(v); len(succ[v]) is the back arc
    gained = 0
    for s in sources:
        if gained >= limit:
            break
        if lin[s] != 1:
            continue
        path = [s]
        while path:
            k = len(path)
            v = path[-1]
            if k & 1:  # in(v)
                if k == level:
                    if is_target[v] and (absorb or fpred[v] == UNUSED):
                        _augment(path, absorb, fpred, fsucc)
                        for x in path[0:-1:2]:
                            lin[x] = 0
                        for x in path[1::2]:
                            lout[x] = 0
                        gained += 1
                        break
                    u = -1
                else:
                    u = fpred[v]
                    if u == UNUSED:
                        u = v
                if u >= 0 and lout[u] == k + 1:
                    path.append(u)
                else:
                    lin[v] = 0
                    path.pop()
            else:  # out(v)
                arcs = succ[v]
                i = ptr[v]
                end = len(arcs)
                while i < end and lin[arcs[i]] != k + 1:
                    i += 1
                ptr[v] = i
                if i < end:
                    path.append(arcs[i])
                elif fpred[v] != UNUSED and lin[v] == k + 1:
                    path.append(v)
                else:
                    lout[v] = 0
                    path.pop()
    return gained


def _augment(path: List[int], absorb: bool, fpred, fsucc) -> None:
    """Push one unit along an augmenting path ``in(s), out(.), in(.),
    ..., in(t)``.  Each flow field is written by the one path arc that
    sets it: an edge arc ``out(a) -> in(b)`` routes ``a`` into ``b``, and
    the back arc ``out(a) -> in(a)`` frees ``a``.  A backward edge arc
    ``in(b) -> out(a)`` writes nothing: the arcs entering ``in(b)`` and
    leaving ``out(a)`` overwrite the cancelled unit."""
    fpred[path[0]] = TERMINAL
    for j in range(1, len(path) - 1, 2):
        a, b = path[j], path[j + 1]
        if a == b:
            fpred[a] = fsucc[a] = UNUSED
        else:
            fsucc[a] = b
            fpred[b] = a
    if not absorb:
        fsucc[path[-1]] = TERMINAL
