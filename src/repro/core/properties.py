"""Structural properties of CDAGs used by the lower-bound machinery.

This module implements the graph-theoretic notions that the paper's
partitioning and min-cut lower bounds rely on:

* **Dominator sets** (Definition 3, P3): a set ``D`` *dominates* a vertex
  set ``V_i`` if every path from the input set ``I`` to a vertex of
  ``V_i`` passes through some vertex of ``D``.  The Hong-Kung
  2S-partition condition requires a dominator of size at most ``S``.
* **Minimum sets** (Definition 3, P4): ``Min(V_i)`` is the set of
  vertices of ``V_i`` all of whose successors lie outside ``V_i``.
* **In/Out sets** (Definition 5, the RBW variant): ``In(V_i)`` is the set
  of vertices outside ``V_i`` with a successor inside; ``Out(V_i)`` is
  the set of vertices of ``V_i`` that are outputs or have a successor
  outside ``V_i``.
* **Convex cuts and wavefronts** (Section 3.3): for a vertex ``x``, the
  convex cut ``(S_x, T_x)`` puts ``x`` and its ancestors in ``S_x``, the
  descendants in ``T_x``, with no edge from ``T_x`` to ``S_x``.  The
  *wavefront* induced by the cut is the set of vertices of ``S_x`` with
  an outgoing edge into ``T_x``; its minimum cardinality over valid cuts,
  ``|W^min_G(x)|``, is a vertex min-cut and feeds Lemma 2.
* **Schedule wavefronts**: the memory footprint of a concrete execution
  order at each firing (used both for validating the min-cut bound and
  for the upper-bound schedulers).

The vertex min-cut is the max-flow of the classic vertex-splitting
network, run in plain Python over the compiled adjacency lists
(:mod:`repro.core.flow`, behind :class:`WavefrontSolver`).  The same
flow answers dominator sizes and, split into its paths, gives the
vertex-disjoint input-to-output paths of the Hong-Kung lines bound
(:func:`repro.bounds.lines.find_lines`).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set, Tuple

from .cdag import CDAG, CDAGError, Vertex
from .compiled import CompiledCDAG
from .flow import flow_paths, max_vertex_flow, reach
from .ordering import validate_schedule

__all__ = [
    "in_set",
    "out_set",
    "minimum_set",
    "is_dominator",
    "minimal_dominator_size",
    "has_circuit_between",
    "convex_cut_for_vertex",
    "is_convex_cut",
    "wavefront_of_cut",
    "WavefrontSolver",
    "min_wavefront",
    "max_min_wavefront",
    "schedule_wavefronts",
    "max_schedule_wavefront",
]


# ----------------------------------------------------------------------
# In / Out / Min sets (Definitions 3 and 5)
# ----------------------------------------------------------------------
def in_set(cdag: CDAG, vertex_set: Iterable[Vertex]) -> Set[Vertex]:
    """``In(V_i)``: vertices of ``V \\ V_i`` with at least one successor in ``V_i``.

    This is the RBW-game notion used in Definition 5 (P3).  Values of
    ``In(V_i)`` must be brought into fast memory (or already be there)
    before the vertices of ``V_i`` can fire.
    """
    vset = set(vertex_set)
    result: Set[Vertex] = set()
    for v in vset:
        for p in cdag.predecessors(v):
            if p not in vset:
                result.add(p)
    return result


def out_set(cdag: CDAG, vertex_set: Iterable[Vertex]) -> Set[Vertex]:
    """``Out(V_i)``: vertices of ``V_i`` that are outputs of the CDAG or
    have at least one successor outside ``V_i`` (Definition 5, P4)."""
    vset = set(vertex_set)
    result: Set[Vertex] = set()
    for v in vset:
        if cdag.is_output(v):
            result.add(v)
            continue
        for s in cdag.successors(v):
            if s not in vset:
                result.add(v)
                break
    return result


def minimum_set(cdag: CDAG, vertex_set: Iterable[Vertex]) -> Set[Vertex]:
    """``Min(V_i)``: vertices of ``V_i`` all of whose successors are outside ``V_i``.

    This is the Hong-Kung notion from Definition 3 (P4).  Note the subtle
    difference with :func:`out_set`: ``Min`` requires *all* successors
    outside, ``Out`` requires *at least one* (or being a CDAG output).
    Sink vertices (no successors at all) belong to ``Min(V_i)``
    vacuously.
    """
    vset = set(vertex_set)
    result: Set[Vertex] = set()
    for v in vset:
        succs = cdag.successors(v)
        if all(s not in vset for s in succs):
            result.add(v)
    return result


def is_dominator(
    cdag: CDAG,
    candidate: Iterable[Vertex],
    vertex_set: Iterable[Vertex],
    sources: Optional[Iterable[Vertex]] = None,
) -> bool:
    """Check whether ``candidate`` dominates ``vertex_set``.

    ``candidate ∈ Dom(V_i)`` iff every path from the input set ``I``
    (or ``sources`` if given) to a vertex in ``V_i`` contains a vertex of
    ``candidate``.  Implemented by removing ``candidate`` and testing
    reachability.
    """
    dom = set(candidate)
    targets = set(vertex_set) - dom
    if not targets:
        return True
    starts = set(sources) if sources is not None else set(cdag.inputs)
    starts -= dom
    # BFS from the sources avoiding dominator vertices.
    seen: Set[Vertex] = set()
    stack = [s for s in starts if s in cdag]
    while stack:
        u = stack.pop()
        if u in seen:
            continue
        seen.add(u)
        if u in targets:
            return False
        for w in cdag.successors(u):
            if w not in dom and w not in seen:
                stack.append(w)
    return True


def minimal_dominator_size(
    cdag: CDAG,
    vertex_set: Iterable[Vertex],
    sources: Optional[Iterable[Vertex]] = None,
) -> int:
    """Size of a minimum dominator set of ``vertex_set`` w.r.t. the inputs.

    Computed exactly as a vertex min-cut between a super-source connected
    to the CDAG inputs and a super-sink connected *from* the target set,
    where every ordinary vertex may be "cut".  Vertices of the target set
    itself are allowed in the dominator (a vertex trivially dominates
    itself), which matches the paper's definition of ``Dom``.
    """
    vset = set(vertex_set)
    if not vset:
        return 0
    starts = set(sources) if sources is not None else set(cdag.inputs)
    starts = {s for s in starts if s in cdag}
    if not starts:
        return 0
    # If an input is itself in the target set, it must be in any dominator
    # (the trivial path of length 0 ends at it): the flow counts a vertex
    # that is both source and target as a one-vertex path.
    c = cdag.compiled()
    return c.wavefront_solver().vertex_cut_ids(
        c.ids_of(starts), c.ids_of(vset)
    )


def has_circuit_between(
    cdag: CDAG, set_a: Iterable[Vertex], set_b: Iterable[Vertex]
) -> bool:
    """True if there are edges both from ``set_a`` to ``set_b`` and back.

    Definition 3 / Definition 5 (P2) forbid such "circuits" between the
    subsets of an S-partition.
    """
    a, b = set(set_a), set(set_b)
    a_to_b = b_to_a = False
    for u, v in cdag.edges():
        if u in a and v in b:
            a_to_b = True
        elif u in b and v in a:
            b_to_a = True
        if a_to_b and b_to_a:
            return True
    return False


# ----------------------------------------------------------------------
# Convex cuts and wavefronts (Section 3.3)
# ----------------------------------------------------------------------
def convex_cut_for_vertex(
    cdag: CDAG, x: Vertex, extra_in_s: Iterable[Vertex] = ()
) -> Tuple[Set[Vertex], Set[Vertex]]:
    """A canonical convex cut ``(S_x, T_x)`` associated with ``x``.

    ``S_x`` contains ``x`` and all its ancestors (plus ``extra_in_s`` and
    their ancestors), ``T_x`` contains everything else; because ancestors
    are closed under predecessors there can be no edge from ``T_x`` to
    ``S_x``, so the cut is convex.  Descendants of ``x`` are guaranteed to
    be in ``T_x``.
    """
    if x not in cdag:
        raise CDAGError(f"unknown vertex {x!r}")
    s_side: Set[Vertex] = {x} | cdag.ancestors(x)
    below_x = cdag.descendants(x)
    for v in extra_in_s:
        if v in below_x:
            raise CDAGError(
                f"cannot place descendant {v!r} of {x!r} on the S side"
            )
        s_side.add(v)
        s_side |= cdag.ancestors(v)
    t_side = set(cdag.vertices) - s_side
    return s_side, t_side


def is_convex_cut(
    cdag: CDAG, s_side: Iterable[Vertex], t_side: Iterable[Vertex]
) -> bool:
    """Check the convexity condition: no edge from ``T`` to ``S``."""
    s, t = set(s_side), set(t_side)
    for u, v in cdag.edges():
        if u in t and v in s:
            return False
    return True


def wavefront_of_cut(cdag: CDAG, s_side: Iterable[Vertex]) -> Set[Vertex]:
    """Vertices of ``S`` with at least one outgoing edge into ``V - S``."""
    s = set(s_side)
    wf: Set[Vertex] = set()
    for v in s:
        for w in cdag.successors(v):
            if w not in s:
                wf.add(v)
                break
    return wf


class WavefrontSolver:
    """Reusable ``|W^min_G(x)|`` solver over a compiled CDAG.

    It holds the package's only max-flow calls: wavefront cuts,
    dominator sizes and Hong-Kung lines all go through it.  Each query
    runs :func:`~repro.core.flow.max_vertex_flow` on the compiled
    successor lists, so nothing is built per CDAG beyond those lists.

    Obtain instances via ``cdag.compiled().wavefront_solver()`` — they
    are cached alongside the compiled snapshot.
    """

    def __init__(self, compiled: CompiledCDAG) -> None:
        self._c = compiled
        self._succ = compiled.succ_lists
        self._pred = compiled.pred_lists

    def _flow(self, sources: Sequence[int], targets: Sequence[int]):
        is_target = bytearray(self._c.n)
        for t in targets:
            is_target[t] = 1
        return max_vertex_flow(self._succ, sources, is_target)

    def vertex_cut_ids(
        self, forced_s: Sequence[int], forced_t: Sequence[int]
    ) -> int:
        """Minimum vertex cut separating the ids ``forced_s`` from the
        ids ``forced_t`` (either may be cut; a vertex in both is a
        one-vertex path)."""
        if not len(forced_s) or not len(forced_t):
            return 0  # no source/sink side: nothing to separate
        return self._flow(forced_s, forced_t)[0]

    def disjoint_paths_ids(
        self, starts: Sequence[int], ends: Sequence[int]
    ) -> List[List[int]]:
        """A maximum family of vertex-disjoint paths from ``starts`` to
        ``ends``, as id lists in order of their first vertex (Menger:
        the flow of :meth:`vertex_cut_ids`, split into its paths)."""
        _value, fpred, fsucc = self._flow(starts, ends)
        return flow_paths(starts, fpred, fsucc)

    def max_min_wavefront_ids(
        self, ids: Iterable[int]
    ) -> Tuple[int, Optional[int]]:
        """``(max |W^min_G(x)|, first x attaining it)`` over the ids in
        the order given (``(0, None)`` for no ids).

        The two extreme convex cuts of ``x`` bound its min-cut from
        above: ``S = {x} ∪ Anc(x)`` has the wavefront ``B`` (the
        vertices of ``S`` with a successor outside ``S``), and
        ``V \\ Desc(x)`` has the wavefront ``P`` (the vertices outside
        ``Desc(x)`` with a successor inside).  A candidate with
        ``min(|B|, |P|) <= best`` cannot beat the incumbent, so its flow
        is skipped.  Otherwise the flow runs from ``B`` only, since every
        path out of ``S`` leaves it through ``B``, into the descendants,
        which absorb it and are never cut, over the vertices that reach
        a descendant.
        """
        succ, pred = self._succ, self._pred
        best, best_id = 0, None
        for x in ids:
            if not succ[x]:
                w = 1  # a sink: the minimum over valid cuts is {x}
            else:
                desc, in_t = reach(succ, [x])
                in_t[x] = 0
                desc = desc[1:]  # T = Desc(x)
                p = {u for t in desc for u in pred[t] if not in_t[u]}
                if len(p) <= best:
                    continue
                anc, in_s = reach(pred, [x])  # S = {x} ∪ Anc(x)
                b = []
                for v in anc:
                    for y in succ[v]:
                        if not in_s[y]:
                            b.append(v)
                            break
                if len(b) <= best:
                    continue
                # T and what reaches it: the rest is on no S -> T path
                live = reach(pred, desc)[1]
                w = max_vertex_flow(succ, b, in_t, absorb=True,
                                    limit=min(len(b), len(p)),
                                    live=live)[0]
            if w > best:
                best, best_id = w, x
        return best, best_id

    def min_wavefront_id(self, x: int) -> int:
        """``|W^min_G(x)|`` for the vertex with id ``x``."""
        return self.max_min_wavefront_ids([x])[0]

    def min_wavefront(self, x: Vertex) -> int:
        """``|W^min_G(x)|`` for a vertex given by name."""
        return self.min_wavefront_id(self._c.id(x))


def min_wavefront(cdag: CDAG, x: Vertex) -> int:
    """``|W^min_G(x)|``: the minimum-cardinality wavefront induced by ``x``.

    This is a vertex min-cut between the (mandatory) ``S``-side —
    ``{x} ∪ Anc(x)`` — and the (mandatory) ``T``-side — ``Desc(x)`` —
    where the "cut vertices" are the S-side vertices with an edge into
    the T-side, computed with the standard vertex-splitting max-flow
    construction (see :class:`WavefrontSolver`).
    """
    if x not in cdag:
        raise CDAGError(f"unknown vertex {x!r}")
    return cdag.compiled().wavefront_solver().min_wavefront(x)


def max_min_wavefront(
    cdag: CDAG, candidates: Optional[Iterable[Vertex]] = None
) -> Tuple[int, Optional[Vertex]]:
    """``w^max_G = max_x |W^min_G(x)|`` and an attaining vertex.

    Computing the min-cut for every vertex is O(|V|) max-flow runs; the
    paper uses hand-picked vertices (the dot-product results in CG/GMRES)
    for its closed-form bounds and mentions an automated heuristic.  Here
    the caller can restrict the candidate set (e.g. to reduction vertices)
    to keep the cost reasonable; with ``candidates=None`` all vertices are
    tried (fine for the small CDAGs used in tests and validation benches).
    Candidates that two convex cuts show cannot beat the incumbent run no
    max-flow (:meth:`WavefrontSolver.max_min_wavefront_ids`).
    """
    c = cdag.compiled()
    pool = c.ids_of(candidates) if candidates is not None else range(c.n)
    best, best_id = c.wavefront_solver().max_min_wavefront_ids(pool)
    return best, None if best_id is None else c.vertex(best_id)


# ----------------------------------------------------------------------
# Schedule wavefronts
# ----------------------------------------------------------------------
def schedule_wavefronts(
    cdag: CDAG, schedule: Sequence[Vertex]
) -> List[int]:
    """Wavefront sizes of a concrete schedule.

    Given a topological execution order ``schedule`` of all the vertices,
    return, for each position ``k``, the size of the schedule wavefront
    ``W_P(x_k)``: the number of already-fired vertices (including ``x_k``)
    that still have an unfired successor.  This is the live-value count —
    the minimum fast-memory footprint of that schedule at that instant.

    Runs in ``O(|V| + |E|)`` using remaining-successor counters, after
    :func:`~repro.core.ordering.validate_schedule` checks the order.
    """
    validate_schedule(cdag, schedule)
    c = cdag.compiled()
    remaining = c.out_degree.tolist()
    pred_lists = c.pred_lists
    live = 0
    sizes: List[int] = []
    for v in c.ids_of(schedule):
        # v has just fired; it is live if it has any unfired successor.
        v_live = remaining[v] > 0
        live += v_live
        # firing v may retire some predecessors
        for p in pred_lists[v]:
            remaining[p] -= 1
            if remaining[p] == 0:
                live -= 1
        # the wavefront at the instant v fires includes v itself
        sizes.append(live if v_live else live + 1)
    return sizes


def max_schedule_wavefront(cdag: CDAG, schedule: Sequence[Vertex]) -> int:
    """Maximum wavefront size over a schedule (its peak live-value count)."""
    sizes = schedule_wavefronts(cdag, schedule)
    return max(sizes) if sizes else 0
