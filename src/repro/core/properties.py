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

The vertex min-cut is computed by the classic vertex-splitting reduction
to edge min-cut / max-flow, using scipy's sparse maximum-flow on one
network per compiled CDAG (:class:`WavefrontSolver`).  The same network
answers dominator sizes and, by decomposing its flow, the vertex-disjoint
input-to-output paths of the Hong-Kung lines bound
(:func:`repro.bounds.lines.find_lines`).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from .cdag import CDAG, CDAGError, Vertex
from .compiled import CompiledCDAG
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
    # (the trivial path of length 0 ends at it); vertex-splitting handles
    # this naturally because the path source->...->target passes through
    # the split node.  The split graph is shared with the wavefront
    # machinery via the cached solver — repeated dominator queries on the
    # same CDAG (e.g. one per partition subset) only toggle terminal arcs.
    c = cdag.compiled()
    return c.wavefront_solver().vertex_cut_ids(
        np.asarray(c.ids_of(starts), dtype=np.int64),
        np.asarray(c.ids_of(vset), dtype=np.int64),
    )


def _split_graph_csr(c: CompiledCDAG, internal_caps: np.ndarray):
    """CSR arrays of the vertex-splitting flow network of ``c``.

    Every row is emitted in sorted-column order:

    * row ``2v`` (= ``in(v)``): the single internal arc to ``2v+1``;
    * row ``2v+1`` (= ``out(v)``): one INF arc per CDAG successor plus a
      zero-capacity arc to the sink (activated per query);
    * row ``2n`` (source): a zero-capacity arc to every ``in(v)``
      (activated per query);
    * row ``2n+1`` (sink): empty.

    Returns ``(indptr, indices, data, src_pos, sink_pos, internal_pos)``
    where the three position arrays index ``data`` slots of the
    source->in(v), out(v)->sink and in(v)->out(v) arcs of each vertex.
    """
    n = c.n
    m = c.m
    inf = n + 1
    nnz = 2 * n + m + n  # internal + sink arcs + edge arcs + source arcs

    out_deg = c.out_degree
    row_len = np.empty(2 * n + 2, dtype=np.int64)
    row_len[0 : 2 * n : 2] = 1  # in(v) rows
    row_len[1 : 2 * n : 2] = out_deg + 1  # out(v) rows (+ sink arc)
    row_len[2 * n] = n  # source row
    row_len[2 * n + 1] = 0  # sink row
    indptr = np.concatenate(([0], np.cumsum(row_len)))

    indices = np.empty(nnz, dtype=np.int32)
    data = np.zeros(nnz, dtype=np.int64)

    internal_pos = indptr[0 : 2 * n : 2]  # row 2v has exactly one slot
    indices[internal_pos] = 2 * np.arange(n, dtype=np.int32) + 1
    data[internal_pos] = internal_caps

    # out(v) rows: successors (sorted ids -> sorted columns) then the sink.
    sink_pos = indptr[2 : 2 * n + 2 : 2] - 1  # last slot of each out-row
    for v in range(n):
        start = indptr[2 * v + 1]
        succ = np.sort(c.successors_ids(v))
        indices[start : start + succ.size] = 2 * succ
        data[start : start + succ.size] = inf
    indices[sink_pos] = 2 * n + 1
    # data[sink_pos] stays 0 until a query activates it.

    # Source row: in(v) for every v, ascending.
    src_start = indptr[2 * n]
    src_pos = src_start + np.arange(n, dtype=np.int64)
    indices[src_pos] = 2 * np.arange(n, dtype=np.int32)
    # data[src_pos] stays 0 until a query activates it.

    return indptr, indices, data, src_pos, sink_pos, internal_pos


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

    The vertex-splitting flow network (``in(v) -> out(v)`` capacity 1,
    CDAG edges INF) is structurally identical for every candidate vertex
    — only which vertices are forced onto the S/T sides changes.  This
    solver builds the split graph **once** (a scipy CSR network) and per
    query only toggles the capacities of the pre-allocated source/sink
    arcs.  It holds the package's only max-flow call: wavefront cuts,
    dominator sizes and Hong-Kung lines all go through it.

    Obtain instances via ``cdag.compiled().wavefront_solver()`` — they
    are cached alongside the compiled snapshot, so repeated
    :func:`min_wavefront` calls on an unmutated CDAG share one network.

    scipy is imported in ``__init__`` and :meth:`_max_flow`, not at
    module top, so only a process that computes a min-cut loads it.
    """

    def __init__(self, compiled: CompiledCDAG) -> None:
        from scipy.sparse import csr_matrix

        self._c = compiled
        n = compiled.n
        self._inf = n + 1
        self._source = 2 * n
        self._sink = 2 * n + 1
        (
            indptr,
            indices,
            self._data,
            self._src_pos,
            self._sink_pos,
            self._internal_pos,
        ) = _split_graph_csr(compiled, np.ones(n, dtype=np.int64))
        self._graph = csr_matrix(
            (self._data, indices, indptr), shape=(2 * n + 2, 2 * n + 2)
        )

    def _max_flow(
        self,
        forced_s: np.ndarray,
        forced_t: np.ndarray,
        uncuttable: Optional[np.ndarray] = None,
    ):
        """scipy's maximum flow from the source, feeding ``forced_s``, to
        the sink, drained by ``forced_t``.

        ``uncuttable`` vertices get INF internal capacity (they may lie on
        a path but can never be cut).  All per-query capacity changes are
        rolled back before returning, so the shared network stays clean.
        """
        from scipy.sparse.csgraph import maximum_flow

        data = self._data
        inf = self._inf
        int_pos = (
            self._internal_pos[uncuttable]
            if uncuttable is not None and uncuttable.size
            else None
        )
        snk_pos = self._sink_pos[forced_t]
        src_pos = self._src_pos[forced_s]
        try:
            if int_pos is not None:
                data[int_pos] = inf
            data[snk_pos] = inf
            data[src_pos] = inf
            return maximum_flow(self._graph, self._source, self._sink)
        finally:
            # The network is cached and shared across queries: restore
            # capacities even if max-flow (or an interrupt) blew up.
            if int_pos is not None:
                data[int_pos] = 1
            data[snk_pos] = 0
            data[src_pos] = 0

    def vertex_cut_ids(
        self,
        forced_s: np.ndarray,
        forced_t: np.ndarray,
        uncuttable: Optional[np.ndarray] = None,
    ) -> int:
        """Minimum vertex cut separating ``forced_s`` from ``forced_t``
        (``uncuttable`` vertices never join the cut)."""
        if len(forced_s) == 0 or len(forced_t) == 0:
            return 0  # no source/sink side: nothing to separate
        return int(self._max_flow(forced_s, forced_t, uncuttable).flow_value)

    def disjoint_paths_ids(
        self, starts: np.ndarray, ends: np.ndarray
    ) -> List[List[int]]:
        """A maximum family of vertex-disjoint paths from ``starts`` to
        ``ends``, as id lists in order of their first vertex.

        By Menger's theorem the unit-capacity flow of
        :meth:`vertex_cut_ids` decomposes into that many such paths.  A
        vertex passes at most one unit, so the out(v) row ``2v+1`` of the
        flow carries at most one positive arc: to in(w) (column ``2w``)
        or to the sink.  Each unit leaving the source row is followed
        along those arcs to the sink.
        """
        flow = self._max_flow(starts, ends).flow
        positive = flow.data > 0
        rows = np.repeat(np.arange(flow.shape[0]), np.diff(flow.indptr))
        succ = np.full(flow.shape[0], -1, dtype=np.int64)
        succ[rows[positive]] = flow.indices[positive]
        lo, hi = flow.indptr[self._source], flow.indptr[self._source + 1]
        fed = np.sort(flow.indices[lo:hi][flow.data[lo:hi] > 0]) // 2
        paths: List[List[int]] = []
        for v in fed.tolist():
            path = [v]
            nxt = succ[2 * v + 1]
            while nxt != self._sink:
                path.append(int(nxt) // 2)
                nxt = succ[nxt + 1]
            paths.append(path)
        return paths

    def min_wavefront_id(
        self,
        x: int,
        anc: Optional[np.ndarray] = None,
        desc: Optional[np.ndarray] = None,
    ) -> int:
        """``|W^min_G(x)|`` for the vertex with id ``x``.

        ``anc``/``desc`` accept precomputed ``ancestors_ids(x)`` /
        ``descendants_ids(x)`` arrays so callers that already ran the
        reachability pass (e.g. for candidate pruning) don't repeat it.
        """
        c = self._c
        if desc is None:
            desc = c.descendants_ids(x)
        if desc.size == 0:
            # x is a sink: the minimum over valid cuts is just {x}.
            return 1
        if anc is None:
            anc = c.ancestors_ids(x)
        forced_s = np.append(anc, np.int32(x))
        # Descendants of x can never be wavefront members, so their
        # internal arcs must not be cuttable.
        return self.vertex_cut_ids(forced_s, desc, uncuttable=desc)

    def min_wavefront(self, x: Vertex) -> int:
        """``|W^min_G(x)|`` for a vertex given by name."""
        return self.min_wavefront_id(self._c.id(x))


def min_wavefront(cdag: CDAG, x: Vertex) -> int:
    """``|W^min_G(x)|``: the minimum-cardinality wavefront induced by ``x``.

    This is a vertex min-cut between the (mandatory) ``S``-side —
    ``{x} ∪ Anc(x)`` — and the (mandatory) ``T``-side — ``Desc(x)`` —
    where the "cut vertices" are the S-side vertices with an edge into
    the T-side, computed with the standard vertex-splitting max-flow
    construction (see :class:`WavefrontSolver`).  The split graph is
    cached on the compiled CDAG, so evaluating many candidate vertices of
    the same CDAG reuses one network.
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
    All candidates share one :class:`WavefrontSolver` network.
    """
    best = 0
    best_vertex: Optional[Vertex] = None
    c = cdag.compiled()
    solver = c.wavefront_solver()
    pool = c.ids_of(candidates) if candidates is not None else range(c.n)
    for i in pool:
        w = solver.min_wavefront_id(i)
        if w > best:
            best = w
            best_vertex = c.vertex(i)
    return best, best_vertex


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
