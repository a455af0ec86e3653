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

The class is the authoring surface: it stores the graph as plain
adjacency dictionaries (successors / predecessors) and handles
construction, tagging, derived sub-CDAGs and adjacency lookups.  Every
order and traversal query (topological order, acyclicity, ancestors,
descendants, depth, statistics) is answered by its integer-indexed
snapshot, :meth:`CDAG.compiled` (:mod:`repro.core.compiled`), as are the
array algorithms (dominators, min-cuts, max-flow).
"""

from __future__ import annotations

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
    """

    __slots__ = (
        "_succ",
        "_pred",
        "_succ_sets",
        "_inputs",
        "_outputs",
        "_compiled",
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
        self._succ: Dict[Vertex, List[Vertex]] = {}
        self._pred: Dict[Vertex, List[Vertex]] = {}
        # Parallel membership sets per adjacency list so that the duplicate
        # check in add_edge is O(1) instead of a linear scan.  ``None``
        # means "not built yet" (bulk-constructed CDAGs defer it until the
        # first incremental add_edge).
        self._succ_sets: Optional[Dict[Vertex, Set[Vertex]]] = {}
        self._compiled = None
        self.name = name

        for v in vertices:
            self._add_vertex(v)
        for u, v in edges:
            self.add_edge(u, v)

        self._inputs: Set[Vertex] = set()
        self._outputs: Set[Vertex] = set()
        for v in inputs:
            self.tag_input(v)
        for v in outputs:
            self.tag_output(v)

        if validate:
            self.validate()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _add_vertex(self, v: Vertex) -> None:
        if v not in self._succ:
            self._succ[v] = []
            self._pred[v] = []
            if self._succ_sets is not None:
                self._succ_sets[v] = set()
            self._compiled = None

    def add_vertex(self, v: Vertex) -> Vertex:
        """Add a vertex (no-op if it already exists) and return it."""
        self._add_vertex(v)
        return v

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        """Add the data-flow edge ``u -> v``, creating missing endpoints.

        O(1) amortized: duplicate detection uses a membership set kept in
        parallel with the ordered adjacency list.
        """
        if u == v:
            raise CycleError(f"self loop on vertex {u!r}")
        self._add_vertex(u)
        self._add_vertex(v)
        if self._succ_sets is None:
            # Bulk-constructed CDAG switching to incremental mutation:
            # materialize the membership sets once.
            self._succ_sets = {w: set(vs) for w, vs in self._succ.items()}
        uset = self._succ_sets[u]
        if v not in uset:
            uset.add(v)
            self._succ[u].append(v)
            self._pred[v].append(u)
            self._compiled = None

    def tag_input(self, v: Vertex) -> None:
        """Tag ``v`` as a member of the input set ``I``."""
        if v not in self._succ:
            raise CDAGError(f"cannot tag unknown vertex {v!r} as input")
        self._inputs.add(v)
        self._compiled = None

    def tag_output(self, v: Vertex) -> None:
        """Tag ``v`` as a member of the output set ``O``."""
        if v not in self._succ:
            raise CDAGError(f"cannot tag unknown vertex {v!r} as output")
        self._outputs.add(v)
        self._compiled = None

    def untag_input(self, v: Vertex) -> None:
        """Remove ``v`` from the input set (Theorem 3 style relabelling)."""
        self._inputs.discard(v)
        self._compiled = None

    def untag_output(self, v: Vertex) -> None:
        """Remove ``v`` from the output set."""
        self._outputs.discard(v)
        self._compiled = None

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

        This is the fast path for the structured builders and algorithm
        CDAG constructors, which generate duplicate-free edge lists: it
        fills the adjacency dictionaries directly, skipping the per-edge
        duplicate check and the per-call indirection of :meth:`add_edge`.
        Membership sets for incremental mutation are built lazily on the
        first post-construction ``add_edge``.

        Parameters
        ----------
        dedup:
            Set True when ``edges`` may contain duplicates; they are then
            filtered (at the cost of one set per source vertex).
        validate:
            Run :meth:`validate` after construction (acyclicity + tags).
            Off by default — the builders guarantee acyclicity by
            construction.
        """
        self = cls.__new__(cls)
        succ: Dict[Vertex, List[Vertex]] = {}
        pred: Dict[Vertex, List[Vertex]] = {}
        for v in vertices:
            if v not in succ:
                succ[v] = []
                pred[v] = []
        if dedup:
            seen: Set[Tuple[Vertex, Vertex]] = set()
            for u, v in edges:
                if u == v:
                    raise CycleError(f"self loop on vertex {u!r}")
                if (u, v) in seen:
                    continue
                seen.add((u, v))
                if u not in succ:
                    succ[u] = []
                    pred[u] = []
                if v not in succ:
                    succ[v] = []
                    pred[v] = []
                succ[u].append(v)
                pred[v].append(u)
        else:
            for u, v in edges:
                if u == v:
                    raise CycleError(f"self loop on vertex {u!r}")
                if u not in succ:
                    succ[u] = []
                    pred[u] = []
                if v not in succ:
                    succ[v] = []
                    pred[v] = []
                succ[u].append(v)
                pred[v].append(u)
        self._succ = succ
        self._pred = pred
        self._succ_sets = None
        self._compiled = None
        self.name = name
        self._inputs = set()
        self._outputs = set()
        for v in inputs:
            if v not in succ:
                raise CDAGError(f"cannot tag unknown vertex {v!r} as input")
            self._inputs.add(v)
        for v in outputs:
            if v not in succ:
                raise CDAGError(f"cannot tag unknown vertex {v!r} as output")
            self._outputs.add(v)
        if validate:
            self.validate()
        return self

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def vertices(self) -> List[Vertex]:
        """All vertices, in insertion order."""
        return list(self._succ)

    @property
    def inputs(self) -> FrozenSet[Vertex]:
        """The input set ``I``."""
        return frozenset(self._inputs)

    @property
    def outputs(self) -> FrozenSet[Vertex]:
        """The output set ``O``."""
        return frozenset(self._outputs)

    @property
    def operations(self) -> List[Vertex]:
        """The operation set ``V - I`` (vertices that must be computed)."""
        return [v for v in self._succ if v not in self._inputs]

    def edges(self) -> Iterator[Tuple[Vertex, Vertex]]:
        """Iterate over all edges as ``(u, v)`` pairs."""
        for u, vs in self._succ.items():
            for v in vs:
                yield (u, v)

    def successors(self, v: Vertex) -> List[Vertex]:
        """Immediate successors (consumers) of ``v``."""
        return list(self._succ[v])

    def predecessors(self, v: Vertex) -> List[Vertex]:
        """Immediate predecessors (operands) of ``v``."""
        return list(self._pred[v])

    def in_degree(self, v: Vertex) -> int:
        return len(self._pred[v])

    def out_degree(self, v: Vertex) -> int:
        return len(self._succ[v])

    def has_vertex(self, v: Vertex) -> bool:
        return v in self._succ

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        if self._succ_sets is not None:
            return v in self._succ_sets.get(u, ())
        return v in self._succ.get(u, ())

    def is_input(self, v: Vertex) -> bool:
        return v in self._inputs

    def is_output(self, v: Vertex) -> bool:
        return v in self._outputs

    def num_vertices(self) -> int:
        return len(self._succ)

    def num_edges(self) -> int:
        return sum(len(vs) for vs in self._succ.values())

    def sources(self) -> List[Vertex]:
        """Vertices with no incoming edges."""
        return [v for v in self._succ if not self._pred[v]]

    def sinks(self) -> List[Vertex]:
        """Vertices with no outgoing edges."""
        return [v for v in self._succ if not self._succ[v]]

    def __len__(self) -> int:
        return len(self._succ)

    def __contains__(self, v: Vertex) -> bool:
        return v in self._succ

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._succ)

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

        Parameters
        ----------
        hong_kung:
            When True, additionally enforce the Hong-Kung convention of
            Definition 2: every source vertex must be an input and every
            sink vertex must be an output.
        """
        for v in self._inputs:
            if v not in self._succ:
                raise CDAGError(f"input {v!r} is not a vertex")
        for v in self._outputs:
            if v not in self._succ:
                raise CDAGError(f"output {v!r} is not a vertex")
        self.compiled().topological_order_ids()  # CycleError on cycles
        if hong_kung:
            for v in self.sources():
                if v not in self._inputs:
                    raise CDAGError(
                        f"Hong-Kung convention violated: source {v!r} is "
                        "not tagged as input"
                    )
            for v in self.sinks():
                if v not in self._outputs:
                    raise CDAGError(
                        f"Hong-Kung convention violated: sink {v!r} is "
                        "not tagged as output"
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
            vertices=self.vertices,
            edges=self.edges(),
            inputs=self._inputs,
            outputs=self._outputs,
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
        unknown = vset.difference(self._succ)
        if unknown:
            raise CDAGError(
                "unknown vertices in subgraph request: "
                f"{sorted(map(repr, unknown))[:5]}"
            )
        sub_edges = [(u, v) for u, v in self.edges() if u in vset and v in vset]
        ordered = [v for v in self._succ if v in vset]
        return CDAG(
            vertices=ordered,
            edges=sub_edges,
            inputs=(self._inputs & vset) if keep_tags else (),
            outputs=(self._outputs & vset) if keep_tags else (),
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
        new_inputs = (self._inputs | set(add_inputs)) - set(remove_inputs)
        new_outputs = (self._outputs | set(add_outputs)) - set(remove_outputs)
        return CDAG(
            vertices=self.vertices,
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
        keep = [v for v in self._succ
                if v not in self._inputs and v not in self._outputs]
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
