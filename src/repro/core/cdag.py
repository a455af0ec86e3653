"""Computational DAG (CDAG) data structure.

The CDAG is the computational model of the paper (Definition 1, "CDAG-HK"
following Bilardi & Peserico's notation): a 4-tuple ``C = (I, V, E, O)``
where

* ``V`` is the set of vertices, each representing one computational
  operation (or one input value),
* ``E ⊆ V × V`` is the set of data-flow edges,
* ``I ⊆ V`` is the *input set* (vertices whose values initially reside in
  slow memory -- they carry a blue pebble at the start of a pebble game),
* ``O ⊆ V`` is the *output set* (vertices whose values must reside in slow
  memory at the end -- they must carry a blue pebble when a game ends).

Two properties make the CDAG a convenient abstraction for data-movement
analysis (Section 2.1 of the paper):

1. no particular execution order is specified -- only the partial order
   induced by the edges;
2. no memory locations are associated with operands or results.

The :class:`CDAG` class in this module is a light-weight, hashable-vertex
DAG with explicit input/output *tagging*.  Tagging is deliberately kept
separate from graph structure because the Red-Blue-White game (Section 3)
allows relabelling vertices as inputs/outputs without changing the graph
(Theorem 3, "Input/Output (Un)Tagging").

The class is the authoring surface, and it stores the graph in integer-id
space: vertex ``i`` is the ``i``-th vertex inserted, ``_verts[i]`` is its
name and ``_index`` maps names back to ids, so each name is hashed once,
when it gets its id.  Adjacency is one list of successor ids and one of
predecessor ids per vertex, and the input/output tags are id sets.
:meth:`CDAG.from_ids` fills that storage from id arrays in bulk (the
structured builders compute their edges as numpy arrays);
:meth:`CDAG.from_edge_list` and the incremental ``add_edge`` look each
endpoint name up once.  Every order and traversal query (topological
order, acyclicity, ancestors, descendants, depth, statistics) is answered
by the CSR snapshot, :meth:`CDAG.compiled` (:mod:`repro.core.compiled`),
which shares the id lists rather than re-indexing names, as are the array
algorithms (dominators, min-cuts, max-flow).

Usage example (doctest)::

    >>> from repro.core.cdag import CDAG
    >>> cdag = CDAG.from_ids(["a", "b", "c"], src=[0, 1], dst=[2, 2],
    ...                      input_ids=[0, 1], output_ids=[2], name="add")
    >>> cdag.predecessors("c"), sorted(cdag.inputs)
    (['a', 'b'], ['a', 'b'])
    >>> CDAG.from_ids(["a", "b"], src=[0], dst=[2])
    Traceback (most recent call last):
    ...
    repro.core.cdag.CDAGError: edge id 2 is out of range for 2 vertices
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

import numpy as np

Vertex = Hashable

__all__ = [
    "Vertex",
    "CDAGError",
    "CycleError",
    "CDAG",
]


class CDAGError(ValueError):
    """Raised when a CDAG violates a structural invariant."""


class CycleError(CDAGError):
    """Raised when the proposed edge set contains a directed cycle."""


@contextmanager
def gc_paused():
    """Pause the cyclic GC around a bulk allocation loop.

    Building a CDAG's id lists and playing a batched game allocate many
    small lists, sets and tuples but create no reference cycles, so
    generational collections only *scan* the growing structures — at
    10^7 moves the gen-2 sweeps more than double the per-move cost.  The
    pause is process-wide; the GC is restored to its previous state on
    exit (including on error).
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _group(keys: np.ndarray, values: np.ndarray, n: int) -> List[List[int]]:
    """``values`` split into one list per key ``0..n-1``, each list in the
    order its values appear (a stable sort by key)."""
    if keys.size > 1 and (keys[1:] < keys[:-1]).any():
        values = values[np.argsort(keys, kind="stable")]
    bounds = [0]
    bounds.extend(np.cumsum(np.bincount(keys, minlength=n)).tolist())
    flat = values.tolist()
    return [flat[a:b] for a, b in zip(bounds, bounds[1:])]


def _dedup(src: np.ndarray, dst: np.ndarray, n: int):
    """The edge arrays with repeated ``(src, dst)`` pairs dropped; the
    first occurrence of each pair keeps its place.  (A stable sort, not
    ``np.unique``, whose first call imports ``numpy.ma``.)"""
    if src.size < 2:
        return src, dst
    key = src * n + dst
    order = np.argsort(key, kind="stable")
    ranked = key[order]
    first = order[np.concatenate(([True], ranked[1:] != ranked[:-1]))]
    if first.size == src.size:
        return src, dst
    first.sort()
    return src[first], dst[first]


def _id_array(ids, n: int, what: str) -> np.ndarray:
    out = np.asarray(ids, dtype=np.int64).reshape(-1)
    if out.size and (int(out.min()) < 0 or int(out.max()) >= n):
        bad = int(out[(out < 0) | (out >= n)][0])
        raise CDAGError(f"{what} id {bad} is out of range for {n} vertices")
    return out


@dataclass(frozen=True)
class _Stats:
    """Summary statistics of a CDAG, returned by :meth:`CDAG.stats`."""

    num_vertices: int
    num_edges: int
    num_inputs: int
    num_outputs: int
    num_operations: int
    max_in_degree: int
    max_out_degree: int
    num_sources: int
    num_sinks: int
    depth: int


class CDAG:
    """A computational directed acyclic graph ``C = (I, V, E, O)``.

    Parameters
    ----------
    vertices:
        Iterable of hashable vertex identifiers.  Order of first
        appearance is preserved and used as a deterministic tie-break in
        iteration (important for reproducible games and partitions).
    edges:
        Iterable of ``(u, v)`` pairs, meaning *the value produced at u is
        consumed by v*.
    inputs:
        Vertices tagged as inputs (``I``).  Under the Hong-Kung convention
        every source vertex is an input; under the RBW convention tagging
        is free (Section 3, "Flexible input/output vertex labeling").
    outputs:
        Vertices tagged as outputs (``O``).

    Notes
    -----
    * The graph must be acyclic; a :class:`CycleError` is raised otherwise.
    * Inputs are allowed to have incoming edges only if
      ``allow_nonsource_inputs`` is set (this never happens for CDAGs
      built by this library but is permitted by the general definition
      when retagging).
    * A compiled snapshot shares the id storage; the first structural
      change after :meth:`compiled` copies it, so the snapshot keeps
      describing the graph it was taken from.
    """

    __slots__ = (
        "_verts",
        "_index",
        "_succ_ids",
        "_pred_ids",
        "_succ_sets",
        "_inputs",
        "_outputs",
        "_compiled",
        "_shared",
        "name",
    )

    def __init__(
        self,
        vertices: Iterable[Vertex] = (),
        edges: Iterable[Tuple[Vertex, Vertex]] = (),
        inputs: Iterable[Vertex] = (),
        outputs: Iterable[Vertex] = (),
        name: str = "cdag",
        validate: bool = True,
    ) -> None:
        self._verts: List[Vertex] = []
        self._index: Dict[Vertex, int] = {}
        self._succ_ids: List[List[int]] = []
        self._pred_ids: List[List[int]] = []
        # Membership sets parallel to the successor lists, so that the
        # duplicate check in add_edge is O(1) instead of a linear scan.
        # ``None`` means "not built yet" (bulk-constructed CDAGs defer it
        # until the first incremental add_edge).
        self._succ_sets: Optional[List[Set[int]]] = []
        self._inputs: Set[int] = set()
        self._outputs: Set[int] = set()
        self._compiled = None
        self._shared = False
        self.name = name

        for v in vertices:
            self._id_or_add(v)
        for u, v in edges:
            self.add_edge(u, v)
        for v in inputs:
            self.tag_input(v)
        for v in outputs:
            self.tag_output(v)

        if validate:
            self.validate()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _unshare(self) -> None:
        """Copy the storage a compiled snapshot holds before changing it."""
        if self._shared:
            self._verts = list(self._verts)
            self._index = dict(self._index)
            self._succ_ids = [list(s) for s in self._succ_ids]
            self._pred_ids = [list(p) for p in self._pred_ids]
            self._shared = False

    def _id_or_add(self, v: Vertex) -> int:
        """The id of ``v``, which becomes a new vertex if unknown."""
        i = self._index.get(v)
        if i is None:
            self._unshare()
            i = len(self._verts)
            self._index[v] = i
            self._verts.append(v)
            self._succ_ids.append([])
            self._pred_ids.append([])
            if self._succ_sets is not None:
                self._succ_sets.append(set())
            self._compiled = None
        return i

    def _tag_id(self, v: Vertex, what: str) -> int:
        i = self._index.get(v)
        if i is None:
            raise CDAGError(f"cannot tag unknown vertex {v!r} as {what}")
        return i

    def add_vertex(self, v: Vertex) -> Vertex:
        """Add a vertex (no-op if it already exists) and return it."""
        self._id_or_add(v)
        return v

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        """Add the data-flow edge ``u -> v``, creating missing endpoints.

        O(1) amortized: duplicate detection uses a membership set kept in
        parallel with the ordered adjacency list.
        """
        if u == v:
            raise CycleError(f"self loop on vertex {u!r}")
        iu = self._id_or_add(u)
        iv = self._id_or_add(v)
        if self._succ_sets is None:
            # Bulk-constructed CDAG switching to incremental mutation:
            # materialize the membership sets once.
            self._succ_sets = [set(s) for s in self._succ_ids]
        uset = self._succ_sets[iu]
        if iv not in uset:
            self._unshare()
            uset.add(iv)
            self._succ_ids[iu].append(iv)
            self._pred_ids[iv].append(iu)
            self._compiled = None

    def tag_input(self, v: Vertex) -> None:
        """Tag ``v`` as a member of the input set ``I``."""
        self._inputs.add(self._tag_id(v, "input"))
        self._compiled = None

    def tag_output(self, v: Vertex) -> None:
        """Tag ``v`` as a member of the output set ``O``."""
        self._outputs.add(self._tag_id(v, "output"))
        self._compiled = None

    def untag_input(self, v: Vertex) -> None:
        """Remove ``v`` from the input set (Theorem 3 style relabelling)."""
        self._inputs.discard(self._index.get(v))
        self._compiled = None

    def untag_output(self, v: Vertex) -> None:
        """Remove ``v`` from the output set."""
        self._outputs.discard(self._index.get(v))
        self._compiled = None

    @classmethod
    def from_ids(
        cls,
        vertices: Iterable[Vertex],
        src,
        dst,
        input_ids=(),
        output_ids=(),
        name: str = "cdag",
    ) -> "CDAG":
        """Bulk-construct a CDAG whose edges are given as vertex ids.

        ``vertices`` (any iterable) are the distinct names of ids
        ``0..n-1`` in order; edge ``k`` runs from id ``src[k]`` to id
        ``dst[k]`` (equal-length integer sequences or numpy arrays).  The
        ids in ``input_ids``/``output_ids`` are tagged.  Each vertex's
        successors and predecessors keep the order of its edges in
        ``src``/``dst``, as :meth:`from_edge_list` would give for the
        same edges by name.  The edges must be duplicate-free (not
        checked) and acyclic (checked by :meth:`validate`, not here).
        Raises :class:`CDAGError` for a repeated name or an id out of
        range and :class:`CycleError` for a self loop.
        """
        with gc_paused():  # ``vertices`` may generate its names here
            verts = list(vertices)
            index = dict(zip(verts, range(len(verts))))
        if len(index) != len(verts):
            seen: Set[Vertex] = set()
            dup = next(v for v in verts if v in seen or seen.add(v))
            raise CDAGError(f"duplicate vertex {dup!r}")
        return cls._from_ids(verts, index, src, dst, input_ids, output_ids,
                             name)

    @classmethod
    def _from_ids(cls, verts, index, src, dst, input_ids, output_ids, name):
        """:meth:`from_ids` on names already indexed (``index`` maps each
        of ``verts`` to its position); takes ownership of both."""
        n = len(verts)
        src = _id_array(src, n, "edge")
        dst = _id_array(dst, n, "edge")
        if src.shape != dst.shape:
            raise CDAGError(
                f"{src.size} edge sources but {dst.size} edge targets"
            )
        loops = np.flatnonzero(src == dst)
        if loops.size:
            u = verts[int(src[loops[0]])]
            raise CycleError(f"self loop on vertex {u!r}")
        inputs = _id_array(input_ids, n, "input")
        outputs = _id_array(output_ids, n, "output")
        self = cls.__new__(cls)
        with gc_paused():
            self._succ_ids = _group(src, dst, n)
            self._pred_ids = _group(dst, src, n)
        self._verts = verts
        self._index = index
        self._succ_sets = None
        self._inputs = set(inputs.tolist())
        self._outputs = set(outputs.tolist())
        self._compiled = None
        self._shared = False
        self.name = name
        return self

    @classmethod
    def from_edge_list(
        cls,
        vertices: Iterable[Vertex],
        edges: Iterable[Tuple[Vertex, Vertex]],
        inputs: Iterable[Vertex] = (),
        outputs: Iterable[Vertex] = (),
        name: str = "cdag",
        validate: bool = False,
        dedup: bool = False,
    ) -> "CDAG":
        """Bulk-construct a CDAG from pre-assembled vertex/edge lists.

        The fast path for CDAG constructors that generate duplicate-free
        edge lists by name: each endpoint is looked up (or given the next
        id) once, then :meth:`from_ids` fills the id lists, skipping the
        per-edge duplicate check and the per-call indirection of
        :meth:`add_edge`.  Membership sets for incremental mutation are
        built lazily on the first post-construction ``add_edge``.

        Parameters
        ----------
        dedup:
            Set True when ``edges`` may contain duplicates; they are then
            filtered (the first of each repeated edge is kept).
        validate:
            Run :meth:`validate` after construction (acyclicity + tags).
            Off by default — the builders guarantee acyclicity by
            construction.
        """
        with gc_paused():
            verts = list(vertices)
            index: Dict[Vertex, int] = dict(zip(verts, range(len(verts))))
            if len(index) != len(verts):  # a repeated name keeps its first id
                index = {}
                for v in verts:
                    index.setdefault(v, len(index))
            edges = list(edges)
            tails, heads = zip(*edges) if edges else ((), ())

            def ids(names) -> np.ndarray:
                return np.fromiter(map(index.__getitem__, names), np.int64,
                                   len(edges))

            try:
                src, dst = ids(tails), ids(heads)
            except KeyError:
                # Endpoints missing from ``vertices`` join in edge order.
                for u, v in edges:
                    index.setdefault(u, len(index))
                    index.setdefault(v, len(index))
                src, dst = ids(tails), ids(heads)
            verts = list(index)
        if dedup:
            src, dst = _dedup(src, dst, len(verts))
        self = cls._from_ids(verts, index, src, dst, (), (), name)
        self._inputs = {self._tag_id(v, "input") for v in inputs}
        self._outputs = {self._tag_id(v, "output") for v in outputs}
        if validate:
            self.validate()
        return self

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def vertices(self) -> List[Vertex]:
        """All vertices, in insertion order."""
        return list(self._verts)

    @property
    def inputs(self) -> FrozenSet[Vertex]:
        """The input set ``I``."""
        verts = self._verts
        return frozenset(verts[i] for i in self._inputs)

    @property
    def outputs(self) -> FrozenSet[Vertex]:
        """The output set ``O``."""
        verts = self._verts
        return frozenset(verts[i] for i in self._outputs)

    @property
    def operations(self) -> List[Vertex]:
        """The operation set ``V - I`` (vertices that must be computed)."""
        inputs = self._inputs
        return [v for i, v in enumerate(self._verts) if i not in inputs]

    def edges(self) -> Iterator[Tuple[Vertex, Vertex]]:
        """Iterate over all edges as ``(u, v)`` pairs."""
        verts = self._verts
        for u, ws in zip(verts, self._succ_ids):
            for w in ws:
                yield (u, verts[w])

    def successors(self, v: Vertex) -> List[Vertex]:
        """Immediate successors (consumers) of ``v``."""
        verts = self._verts
        return [verts[w] for w in self._succ_ids[self._index[v]]]

    def predecessors(self, v: Vertex) -> List[Vertex]:
        """Immediate predecessors (operands) of ``v``."""
        verts = self._verts
        return [verts[u] for u in self._pred_ids[self._index[v]]]

    def in_degree(self, v: Vertex) -> int:
        return len(self._pred_ids[self._index[v]])

    def out_degree(self, v: Vertex) -> int:
        return len(self._succ_ids[self._index[v]])

    def has_vertex(self, v: Vertex) -> bool:
        return v in self._index

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        iu = self._index.get(u)
        iv = self._index.get(v)
        if iu is None or iv is None:
            return False
        if self._succ_sets is not None:
            return iv in self._succ_sets[iu]
        return iv in self._succ_ids[iu]

    def is_input(self, v: Vertex) -> bool:
        return self._index.get(v) in self._inputs

    def is_output(self, v: Vertex) -> bool:
        return self._index.get(v) in self._outputs

    def num_vertices(self) -> int:
        return len(self._verts)

    def num_edges(self) -> int:
        return sum(map(len, self._succ_ids))

    def sources(self) -> List[Vertex]:
        """Vertices with no incoming edges."""
        return [v for v, p in zip(self._verts, self._pred_ids) if not p]

    def sinks(self) -> List[Vertex]:
        """Vertices with no outgoing edges."""
        return [v for v, s in zip(self._verts, self._succ_ids) if not s]

    def __len__(self) -> int:
        return len(self._verts)

    def __contains__(self, v: Vertex) -> bool:
        return v in self._index

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._verts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CDAG(name={self.name!r}, |V|={self.num_vertices()}, "
            f"|E|={self.num_edges()}, |I|={len(self._inputs)}, "
            f"|O|={len(self._outputs)})"
        )

    # ------------------------------------------------------------------
    # Orders and traversal
    # ------------------------------------------------------------------
    def topological_order(self) -> List[Vertex]:
        """One topological order (Kahn's algorithm, insertion-order
        tie-break), from the compiled snapshot's cached order."""
        return self.compiled().topological_order()

    def is_acyclic(self) -> bool:
        """True if the edge set is acyclic."""
        try:
            self.compiled().topological_order_ids()
            return True
        except CycleError:
            return False

    def ancestors(self, v: Vertex) -> Set[Vertex]:
        """All strict ancestors of ``v`` (vertices with a path to ``v``)."""
        c = self.compiled()
        return set(c.vertices_of(c.ancestors_ids(c.id(v)).tolist()))

    def descendants(self, v: Vertex) -> Set[Vertex]:
        """All strict descendants of ``v``."""
        c = self.compiled()
        return set(c.vertices_of(c.descendants_ids(c.id(v)).tolist()))

    def depth(self) -> int:
        """Length (number of vertices) of the longest path in the CDAG."""
        return self.compiled().depth()

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self, hong_kung: bool = False) -> None:
        """Check structural invariants; raise :class:`CDAGError` on failure.

        Tags are vertex ids, so every tagged vertex exists by
        construction; this checks acyclicity.

        Parameters
        ----------
        hong_kung:
            When True, additionally enforce the Hong-Kung convention of
            Definition 2: every source vertex must be an input and every
            sink vertex must be an output.
        """
        self.compiled().topological_order_ids()  # CycleError on cycles
        if hong_kung:
            for i, p in enumerate(self._pred_ids):
                if not p and i not in self._inputs:
                    raise CDAGError(
                        f"Hong-Kung convention violated: source "
                        f"{self._verts[i]!r} is not tagged as input"
                    )
            for i, s in enumerate(self._succ_ids):
                if not s and i not in self._outputs:
                    raise CDAGError(
                        f"Hong-Kung convention violated: sink "
                        f"{self._verts[i]!r} is not tagged as output"
                    )

    def stats(self) -> _Stats:
        """Return summary statistics for reports and sanity checks."""
        return self.compiled().stats()

    # ------------------------------------------------------------------
    # Derived CDAGs
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "CDAG":
        """Deep copy of the CDAG (graph structure and tags)."""
        return CDAG(
            vertices=self._verts,
            edges=self.edges(),
            inputs=self.inputs,
            outputs=self.outputs,
            name=name or self.name,
            validate=False,
        )

    def induced_subgraph(
        self,
        vertices: Iterable[Vertex],
        name: Optional[str] = None,
        keep_tags: bool = True,
    ) -> "CDAG":
        """The sub-CDAG induced by ``vertices``.

        Edges with an endpoint outside the vertex set are dropped.  Input
        and output tags are restricted to the retained vertices
        (``I_i = I ∩ V_i``, ``O_i = O ∩ V_i`` as in Theorem 2).
        """
        vset = set(vertices)
        unknown = vset.difference(self._index)
        if unknown:
            raise CDAGError(
                "unknown vertices in subgraph request: "
                f"{sorted(map(repr, unknown))[:5]}"
            )
        sub_edges = [(u, v) for u, v in self.edges() if u in vset and v in vset]
        ordered = [v for v in self._verts if v in vset]
        return CDAG(
            vertices=ordered,
            edges=sub_edges,
            inputs=(self.inputs & vset) if keep_tags else (),
            outputs=(self.outputs & vset) if keep_tags else (),
            name=name or f"{self.name}[{len(vset)}]",
            validate=False,
        )

    def retagged(
        self,
        add_inputs: Iterable[Vertex] = (),
        add_outputs: Iterable[Vertex] = (),
        remove_inputs: Iterable[Vertex] = (),
        remove_outputs: Iterable[Vertex] = (),
        name: Optional[str] = None,
    ) -> "CDAG":
        """Return a copy with modified input/output tags (Theorem 3).

        The graph ``G = (V, E)`` is unchanged; only the labelling of
        vertices as inputs/outputs changes.  This is the operation used
        when comparing ``IO(C)`` and ``IO(C')`` in the (un)tagging
        theorem.
        """
        new_inputs = (self.inputs | set(add_inputs)) - set(remove_inputs)
        new_outputs = (self.outputs | set(add_outputs)) - set(remove_outputs)
        return CDAG(
            vertices=self._verts,
            edges=self.edges(),
            inputs=new_inputs,
            outputs=new_outputs,
            name=name or f"{self.name}:retagged",
            validate=False,
        )

    def without_io_vertices(self, name: Optional[str] = None) -> "CDAG":
        """Drop input and output *vertices* entirely (Corollary 2 set-up).

        Corollary 2 (Input/Output Deletion) relates ``IO(C')`` of a CDAG
        with dedicated input/output vertices to ``IO(C) + |dI| + |dO|`` of
        the CDAG with those vertices removed.  This helper produces ``C``
        from ``C'``.
        """
        tagged = self._inputs | self._outputs
        keep = [v for i, v in enumerate(self._verts) if i not in tagged]
        return self.induced_subgraph(keep, name=name or f"{self.name}:core",
                                     keep_tags=False)

    # ------------------------------------------------------------------
    # Interop
    # ------------------------------------------------------------------
    def compiled(self) -> "CompiledCDAG":
        """The integer-indexed compiled view of this CDAG (cached).

        The snapshot is rebuilt lazily after any mutation (vertex/edge
        addition, input/output re-tagging); repeated calls between
        mutations return the same object, so engines and solvers that
        derive further caches from it (topological order, adjacency
        matrices, the wavefront split graph) share them automatically.
        """
        if self._compiled is None:
            from .compiled import CompiledCDAG  # deferred: avoid cycle

            self._compiled = CompiledCDAG(self)
        return self._compiled
