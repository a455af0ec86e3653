"""Compiled integer-indexed CDAG backend.

The dict-of-tuples representation of :class:`~repro.core.cdag.CDAG` is
convenient for construction and for readable error messages, but every
traversal pays Python tuple-hashing per neighbour.  On the problem sizes
of the paper's evaluation (Jacobi/CG/GMRES grids where ``|V|`` reaches
10^5-10^6), that hashing dominates the pebble games, the 2S-partition
construction and the wavefront min-cuts.

:class:`CompiledCDAG` is a frozen snapshot of a CDAG in integer-id space:

* vertices are numbered ``0..n-1`` in insertion order (so ids double as
  the deterministic tie-break used everywhere else);
* successor and predecessor adjacency are stored as CSR arrays
  (``indptr``/``indices``, numpy int32), with plain-``int`` list-of-list
  mirrors for hot Python loops (hashing a small ``int`` is several times
  cheaper than hashing a name tuple);
* input/output tags are boolean masks plus id arrays;
* the topological order is computed once and cached;
* an ``id <-> vertex`` table converts at the API boundary only.

It is the one runtime implementation of the CDAG's order and traversal
queries: :class:`~repro.core.cdag.CDAG`'s ``topological_order``,
``is_acyclic``, ``validate`` cycle check, ``ancestors``,
``descendants``, ``depth`` and ``stats`` delegate here.

Instances are obtained via the cached :meth:`repro.core.cdag.CDAG.compiled`
accessor; any mutation of the source CDAG (new vertex/edge, re-tagging)
invalidates the cache, so holding on to a compiled view across mutations
is safe — you simply get a fresh snapshot next time.

The snapshot is *immutable by convention*: none of its methods mutate it,
and consumers (pebble engines, partitioners, the wavefront solver) treat
the arrays as read-only.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, Iterable, List, Optional

import numpy as np

from .flow import reach

Vertex = Hashable

__all__ = ["CompiledCDAG"]


class CompiledCDAG:
    """An immutable, integer-indexed snapshot of a CDAG.

    Parameters
    ----------
    cdag:
        The source :class:`~repro.core.cdag.CDAG`.  Construction is
        ``O(|V| + |E|)`` and is the *only* place tuple hashing happens;
        afterwards all traversal is id arithmetic.
    """

    __slots__ = (
        "name",
        "n",
        "m",
        "_verts",
        "_index",
        "succ_indptr",
        "succ_indices",
        "pred_indptr",
        "pred_indices",
        "in_degree",
        "out_degree",
        "is_input_mask",
        "is_output_mask",
        "input_ids",
        "output_ids",
        "_succ_lists",
        "_pred_lists",
        "_topo_ids",
        "_wavefront_solver",
    )

    def __init__(self, cdag) -> None:
        succ: Dict[Vertex, List[Vertex]] = cdag._succ
        pred: Dict[Vertex, List[Vertex]] = cdag._pred
        verts: List[Vertex] = list(succ)
        n = len(verts)
        index: Dict[Vertex, int] = {v: i for i, v in enumerate(verts)}

        out_degree = np.fromiter(
            (len(succ[v]) for v in verts), dtype=np.int64, count=n
        )
        in_degree = np.fromiter(
            (len(pred[v]) for v in verts), dtype=np.int64, count=n
        )
        m = int(out_degree.sum())

        succ_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(out_degree, out=succ_indptr[1:])
        succ_indices = np.fromiter(
            (index[w] for v in verts for w in succ[v]),
            dtype=np.int32,
            count=m,
        )
        pred_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(in_degree, out=pred_indptr[1:])
        pred_indices = np.fromiter(
            (index[u] for v in verts for u in pred[v]),
            dtype=np.int32,
            count=m,
        )

        is_input = np.zeros(n, dtype=bool)
        for v in cdag._inputs:
            is_input[index[v]] = True
        is_output = np.zeros(n, dtype=bool)
        for v in cdag._outputs:
            is_output[index[v]] = True

        self.name = cdag.name
        self.n = n
        self.m = m
        self._verts = verts
        self._index = index
        self.succ_indptr = succ_indptr
        self.succ_indices = succ_indices
        self.pred_indptr = pred_indptr
        self.pred_indices = pred_indices
        self.in_degree = in_degree
        self.out_degree = out_degree
        self.is_input_mask = is_input
        self.is_output_mask = is_output
        self.input_ids = np.flatnonzero(is_input).astype(np.int32)
        self.output_ids = np.flatnonzero(is_output).astype(np.int32)
        self._succ_lists: Optional[List[List[int]]] = None
        self._pred_lists: Optional[List[List[int]]] = None
        self._topo_ids: Optional[np.ndarray] = None
        self._wavefront_solver = None

    # ------------------------------------------------------------------
    # id <-> vertex conversion (the API boundary)
    # ------------------------------------------------------------------
    def id(self, v: Vertex) -> int:
        """Integer id of ``v`` (raises ``KeyError`` for unknown vertices)."""
        return self._index[v]

    def vertex(self, i: int) -> Vertex:
        """The vertex named by id ``i``."""
        return self._verts[i]

    def ids_of(self, vertices: Iterable[Vertex]) -> List[int]:
        index = self._index
        return [index[v] for v in vertices]

    def vertices_of(self, ids: Iterable[int]) -> List[Vertex]:
        verts = self._verts
        return [verts[i] for i in ids]

    def has_vertex(self, v: Vertex) -> bool:
        return v in self._index

    @property
    def vertices(self) -> List[Vertex]:
        return list(self._verts)

    def num_vertices(self) -> int:
        return self.n

    def num_edges(self) -> int:
        return self.m

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------
    def successors_ids(self, i: int) -> np.ndarray:
        return self.succ_indices[self.succ_indptr[i] : self.succ_indptr[i + 1]]

    def predecessors_ids(self, i: int) -> np.ndarray:
        return self.pred_indices[self.pred_indptr[i] : self.pred_indptr[i + 1]]

    @property
    def succ_lists(self) -> List[List[int]]:
        """Successor ids as plain-``int`` lists (built once, for hot loops)."""
        if self._succ_lists is None:
            flat = self.succ_indices.tolist()
            ptr = self.succ_indptr.tolist()
            self._succ_lists = [
                flat[ptr[i] : ptr[i + 1]] for i in range(self.n)
            ]
        return self._succ_lists

    @property
    def pred_lists(self) -> List[List[int]]:
        """Predecessor ids as plain-``int`` lists (built once, for hot loops)."""
        if self._pred_lists is None:
            flat = self.pred_indices.tolist()
            ptr = self.pred_indptr.tolist()
            self._pred_lists = [
                flat[ptr[i] : ptr[i + 1]] for i in range(self.n)
            ]
        return self._pred_lists

    # ------------------------------------------------------------------
    # Topological order (cached)
    # ------------------------------------------------------------------
    def topological_order_ids(self) -> np.ndarray:
        """One topological order of vertex ids (Kahn, id tie-break).

        Ids are insertion order and the ready queue is FIFO-seeded in
        ascending id, so the order matches the insertion-order Kahn sort
        kept as the test reference (``tests/core/reference_graph.py``).
        Walks the flat CSR lists rather than :attr:`succ_lists`, so
        engine validation does not build the per-vertex list mirror.
        """
        if self._topo_ids is not None:
            return self._topo_ids
        indeg = self.in_degree.tolist()
        flat = self.succ_indices.tolist()
        ptr = self.succ_indptr.tolist()
        ready = deque(i for i in range(self.n) if indeg[i] == 0)
        order: List[int] = []
        append = order.append
        while ready:
            i = ready.popleft()
            append(i)
            for w in flat[ptr[i] : ptr[i + 1]]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    ready.append(w)
        if len(order) != self.n:
            from .cdag import CycleError  # deferred: avoid import cycle

            raise CycleError("graph contains a directed cycle")
        self._topo_ids = np.asarray(order, dtype=np.int32)
        return self._topo_ids

    def topological_order(self) -> List[Vertex]:
        verts = self._verts
        return [verts[i] for i in self.topological_order_ids().tolist()]

    # ------------------------------------------------------------------
    # Reachability
    # ------------------------------------------------------------------
    def ancestors_ids(self, i: int) -> np.ndarray:
        """Ids of all strict ancestors of vertex id ``i``."""
        return np.asarray(reach(self.pred_lists, [i])[0][1:], dtype=np.int32)

    def descendants_ids(self, i: int) -> np.ndarray:
        """Ids of all strict descendants of vertex id ``i``."""
        return np.asarray(reach(self.succ_lists, [i])[0][1:], dtype=np.int32)

    # ------------------------------------------------------------------
    # Aggregate queries
    # ------------------------------------------------------------------
    def depth(self) -> int:
        """Number of vertices on the longest path."""
        return int(self.layers().max()) + 1 if self.n else 0

    def layers(self) -> np.ndarray:
        """Longest-path layer (distance from the sources) of every vertex."""
        layer = [0] * self.n
        succ_lists = self.succ_lists
        for i in self.topological_order_ids().tolist():
            li = layer[i] + 1
            for w in succ_lists[i]:
                if li > layer[w]:
                    layer[w] = li
        return np.asarray(layer, dtype=np.int64)

    def stats(self):
        """Summary statistics (returned by :meth:`CDAG.stats`)."""
        from .cdag import _Stats  # deferred: avoid import cycle

        return _Stats(
            num_vertices=self.n,
            num_edges=self.m,
            num_inputs=int(self.is_input_mask.sum()),
            num_outputs=int(self.is_output_mask.sum()),
            num_operations=self.n - int(self.is_input_mask.sum()),
            max_in_degree=int(self.in_degree.max()) if self.n else 0,
            max_out_degree=int(self.out_degree.max()) if self.n else 0,
            num_sources=int((self.in_degree == 0).sum()),
            num_sinks=int((self.out_degree == 0).sum()),
            depth=self.depth(),
        )

    def wavefront_solver(self):
        """The cached :class:`~repro.core.properties.WavefrontSolver`."""
        if self._wavefront_solver is None:
            from .properties import WavefrontSolver  # deferred import

            self._wavefront_solver = WavefrontSolver(self)
        return self._wavefront_solver

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledCDAG(name={self.name!r}, |V|={self.n}, |E|={self.m})"
        )
