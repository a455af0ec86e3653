"""The parallel Red-Blue-White (P-RBW) pebble game (Definition 6).

The P-RBW game plays on a :class:`~repro.pebbling.hierarchy.MemoryHierarchy`
with ``L`` levels.  Each level-``l`` storage instance ``i`` owns its own
*shade* of red pebble ``R^i_l``; at most ``S_l`` of them may be in use at
a time.  Blue and white pebbles are unlimited.  The rules:

* **R1 (Input)** — a level-L pebble may be placed on any vertex holding a
  blue pebble (plus a white pebble if absent).
* **R2 (Output)** — a blue pebble may be placed on any vertex holding a
  level-L pebble.
* **R3 (Remote get)** — a level-L pebble ``R^i_L`` may be placed on any
  vertex holding a *different* level-L shade ``R^j_L`` (horizontal data
  movement across the interconnect).
* **R4 (Move up)** — for ``1 <= l < L``, a level-l pebble ``R^i_l`` may be
  placed on a vertex holding a level-(l+1) pebble ``R^j_{l+1}``, provided
  instance ``i`` is a child of instance ``j`` (data moves *toward* the
  processor).
* **R5 (Move down)** — for ``1 < l <= L``, a level-l pebble ``R^j_l`` may
  be placed on a vertex holding a level-(l-1) pebble ``R^i_{l-1}`` of a
  child instance (data moves *away from* the processor, e.g. a writeback).
* **R6 (Compute)** — a vertex with no white pebble, all of whose
  predecessors hold level-1 pebbles of processor ``p``'s register file,
  may be fired: a level-1 pebble ``R^p_1`` and a white pebble are placed.
* **R7 (Delete)** — any red pebble of any shade may be removed.

Cost accounting
---------------
* ``vertical_io[(l, i)]`` counts the words crossing the link between
  storage instance ``(l, i)`` and its children: R4 moves whose *source*
  is ``(l, i)`` plus R5 moves whose *target* is ``(l, i)``.  This is the
  quantity ``IO^i_l`` of Section 5 that Theorems 5 and 6 bound from below.
* ``horizontal_io[i]`` counts R3 remote gets *received by* node ``i``
  (the quantity bounded by Theorem 7), plus R1 loads from blue storage.
* ``compute_per_processor[p]`` counts R6 firings by processor ``p``,
  needed to identify the maximally loaded processor group.

Like the sequential engines, the P-RBW engine runs on the compiled
integer-indexed backend: pebble shade sets are keyed by vertex id, and
the ``*_id`` rule methods let the owner-computes strategy skip vertex
hashing.  ``pebbles``/``blue``/``white``/``occupancy`` remain available
as vertex-space views.  Each transition appends one row of integers —
opcode, vertex id, packed ``(level, index)`` location/source — to the
columnar :class:`~repro.pebbling.state.MoveLog`, which is what lets games
reach 10^6+ moves; :meth:`replay` re-validates a recorded log straight
off those columns.

Usage example (doctest)::

    >>> from repro.core.builders import chain_cdag
    >>> from repro.pebbling import MemoryHierarchy, ParallelRBWPebbleGame
    >>> h = MemoryHierarchy.cluster(nodes=2, cores_per_node=1,
    ...                             registers_per_core=4, cache_size=8)
    >>> game = ParallelRBWPebbleGame(chain_cdag(2), h)
    >>> game.load(("chain", 0), node=0)          # R1 into node 0 (level 3)
    >>> game.move_up(("chain", 0), 2, 0)         # R4 toward the processor
    >>> game.move_up(("chain", 0), 1, 0)
    >>> game.compute(("chain", 1), processor=0)  # R6 on processor 0
    >>> game.compute(("chain", 2), processor=0)
    >>> game.move_down(("chain", 2), 2, 0); game.move_down(("chain", 2), 3, 0)
    >>> game.store(("chain", 2), node=0)         # R2: blue on the output
    >>> game.is_complete()
    True
    >>> game.record.summary()["moves"], game.record.total_vertical_io
    (8, 4)
    >>> replayed = ParallelRBWPebbleGame(chain_cdag(2), h).replay(game.record)
    >>> replayed.summary() == game.record.summary()
    True
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from ..core.cdag import CDAG, Vertex
from .hierarchy import MemoryHierarchy
from .kernel import replay_parallel_kernel
from .state import (
    _INST_MASK,
    _INST_SHIFT,
    OP_COMPUTE,
    OP_DELETE,
    OP_LOAD,
    OP_MOVE_DOWN,
    OP_MOVE_UP,
    OP_REMOTE_GET,
    OP_STORE,
    CompiledEngineMixin,
    GameError,
    GameRecord,
    MoveKind,
    MoveLog,
    VertexSetView,
)

__all__ = ["ParallelRBWPebbleGame"]

Instance = Tuple[int, int]  # (level, index)

_EMPTY: frozenset = frozenset()


class _PebbleMapView:
    """Vertex-space mapping view of the id-keyed pebble shade sets."""

    __slots__ = ("_pebbles", "_c")

    def __init__(self, pebbles: Dict[int, Set[Instance]], compiled) -> None:
        self._pebbles = pebbles
        self._c = compiled

    def __getitem__(self, v: Vertex) -> Set[Instance]:
        i = self._c._index[v]  # unknown vertex -> KeyError
        got = self._pebbles.get(i)
        # Empty shade sets are pruned from the id map (GC pressure at
        # 10^7-move scale); a known vertex without pebbles is empty here.
        return got if got is not None else set()

    def get(self, v: Vertex, default=None):
        i = self._c._index.get(v)
        if i is None:
            return default
        got = self._pebbles.get(i)
        return got if got is not None else default

    def __contains__(self, v: Vertex) -> bool:
        i = self._c._index.get(v)
        return i is not None and i in self._pebbles

    def __iter__(self):
        verts = self._c._verts
        return iter([verts[i] for i in self._pebbles])

    def __len__(self) -> int:
        return len(self._pebbles)


class _OccupancyMapView:
    """Vertex-space view of per-instance occupancy (ids -> vertex names)."""

    __slots__ = ("_occupancy", "_c")

    def __init__(self, occupancy: Dict[Instance, Set[int]], compiled) -> None:
        self._occupancy = occupancy
        self._c = compiled

    def __getitem__(self, inst: Instance) -> Set[Vertex]:
        verts = self._c._verts
        return {verts[i] for i in self._occupancy[inst]}

    def get(self, inst: Instance, default=None):
        got = self._occupancy.get(inst)
        if got is None:
            return default
        verts = self._c._verts
        return {verts[i] for i in got}

    def __contains__(self, inst: Instance) -> bool:
        return inst in self._occupancy

    def __iter__(self):
        return iter(self._occupancy)

    def __len__(self) -> int:
        return len(self._occupancy)


class ParallelRBWPebbleGame(CompiledEngineMixin):
    """Stateful engine for the parallel RBW pebble game."""

    def __init__(
        self,
        cdag: CDAG,
        hierarchy: MemoryHierarchy,
        spill=False,
        log_block_size: int = 65536,
    ) -> None:
        cdag.validate()
        self.cdag = cdag
        self.hierarchy = hierarchy
        #: spill the move log to disk (see :class:`MoveLog`'s ``spill``)
        self.log_spill = spill
        self.log_block_size = log_block_size
        self._bind()
        self.reset()

    def _bind_extra(self) -> None:
        # Immutable hierarchy shape tables: the rule methods fire once per
        # move at 10^7-move scale, so no per-move method calls on the
        # MemoryHierarchy (same checks, same error messages).
        h = self.hierarchy
        self._L = h.num_levels
        self._num_procs = h.num_processors
        levels = range(1, self._L + 1)
        self._inst_counts = [h.instances(lvl) for lvl in levels]
        self._inst_caps = [h.capacity(lvl) for lvl in levels]
        self._parent_of = {
            (level, index): h.parent_instance(level, index)
            for level in range(1, self._L)
            for index in range(h.instances(level))
        }
        self._children_of = {
            (level, index): h.child_instances(level, index)
            for level in range(2, self._L + 1)
            for index in range(h.instances(level))
        }

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Restore the initial state (refreshing id caches if the CDAG
        was mutated since the last bind; mid-game mutation is not
        supported — call :meth:`reset` after mutating)."""
        self._rebind_if_stale()
        #: vertex id -> set of (level, index) shades currently on it
        self.pebbles_ids: Dict[int, Set[Instance]] = {}
        #: (level, index) -> set of vertex ids currently holding that shade
        self.occupancy_ids: Dict[Instance, Set[int]] = {}
        self.blue_ids: Set[int] = set(self._input_ids)
        self.white_ids: Set[int] = set()
        self.record = self._new_record()

    # ------------------------------------------------------------------
    # Vertex-space views (API compatibility; not used on hot paths)
    # ------------------------------------------------------------------
    @property
    def pebbles(self) -> _PebbleMapView:
        """Mapping view: vertex -> set of shades currently on it."""
        return _PebbleMapView(self.pebbles_ids, self._c)

    @property
    def occupancy(self) -> _OccupancyMapView:
        """Mapping view: storage instance -> set of resident vertices."""
        return _OccupancyMapView(self.occupancy_ids, self._c)

    @property
    def blue(self) -> VertexSetView:
        return VertexSetView(self.blue_ids, self._c)

    @property
    def white(self) -> VertexSetView:
        return VertexSetView(self.white_ids, self._c)

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def shades_ids(self, i: int):
        """The shade set of vertex id ``i`` (live set; possibly empty)."""
        got = self.pebbles_ids.get(i)
        return got if got is not None else _EMPTY

    def _place(self, i: int, inst: Instance) -> None:
        level, index = inst
        if not 1 <= level <= self._L:
            self.hierarchy._check_level(level)  # raises with the level range
        if not 0 <= index < self._inst_counts[level - 1]:
            raise GameError(f"no instance {index} at level {level}")
        shades = self.pebbles_ids.get(i)
        if shades is not None and inst in shades:
            raise GameError(
                f"vertex {self._c.vertex(i)!r} already holds a pebble of "
                f"shade {inst}"
            )
        cap = self._inst_caps[level - 1]
        occ = self.occupancy_ids
        used = occ.get(inst)
        if used is None:
            used = occ[inst] = set()
        if cap is not None and len(used) >= cap:
            raise GameError(
                f"storage {inst} is full (capacity {cap}); delete first"
            )
        used.add(i)
        if shades is None:
            self.pebbles_ids[i] = {inst}
        else:
            shades.add(inst)

    # ------------------------------------------------------------------
    # Moves
    # ------------------------------------------------------------------
    def load(self, v: Vertex, node: int) -> None:
        """R1: place the level-L pebble of node ``node`` on a blue vertex."""
        self.load_id(self._id(v), node)

    def load_id(self, i: int, node: int) -> None:
        """R1 in id space."""
        if i not in self.blue_ids:
            raise GameError(
                f"R1 violated: {self._c.vertex(i)!r} has no blue pebble"
            )
        L = self._L
        inst = (L, node)
        self._place(i, inst)
        self.white_ids.add(i)
        self._log_append(OP_LOAD, i, (L << _INST_SHIFT) | node)
        horizontal = self.record.horizontal_io
        horizontal[node] = horizontal.get(node, 0) + 1

    def store(self, v: Vertex, node: int) -> None:
        """R2: place a blue pebble on a vertex holding node ``node``'s
        level-L pebble."""
        self.store_id(self._id(v), node)

    def store_id(self, i: int, node: int) -> None:
        """R2 in id space."""
        L = self._L
        inst = (L, node)
        if inst not in (self.pebbles_ids.get(i) or _EMPTY):
            raise GameError(
                f"R2 violated: {self._c.vertex(i)!r} does not hold the "
                f"level-{L} pebble of node {node}"
            )
        self.blue_ids.add(i)
        self._log_append(OP_STORE, i, (L << _INST_SHIFT) | node)

    def remote_get(self, v: Vertex, dst_node: int, src_node: int) -> None:
        """R3: copy a value between two level-L memories (horizontal)."""
        self.remote_get_id(self._id(v), dst_node, src_node)

    def remote_get_id(self, i: int, dst_node: int, src_node: int) -> None:
        """R3 in id space."""
        if dst_node == src_node:
            raise GameError("R3 violated: source and destination coincide")
        L = self._L
        src = (L, src_node)
        dst = (L, dst_node)
        if src not in (self.pebbles_ids.get(i) or _EMPTY):
            raise GameError(
                f"R3 violated: {self._c.vertex(i)!r} does not hold the "
                f"level-{L} pebble of node {src_node}"
            )
        self._place(i, dst)
        self._log_append(
            OP_REMOTE_GET,
            i,
            (L << _INST_SHIFT) | dst_node,
            (L << _INST_SHIFT) | src_node,
        )
        horizontal = self.record.horizontal_io
        horizontal[dst_node] = horizontal.get(dst_node, 0) + 1

    def move_up(self, v: Vertex, level: int, index: int) -> None:
        """R4: copy from the parent instance into child ``(level, index)``.

        ``level`` must satisfy ``1 <= level < L`` and the vertex must hold
        the pebble of the parent of ``(level, index)``.
        """
        self.move_up_id(self._id(v), level, index)

    def move_up_id(self, i: int, level: int, index: int) -> None:
        """R4 in id space."""
        L = self._L
        if not 1 <= level < L:
            raise GameError(f"R4 violated: level must be in 1..{L-1}")
        inst = (level, index)
        parent = self._parent_of.get(inst)
        if parent is None:
            parent = self.hierarchy.parent_instance(level, index)
        if parent not in (self.pebbles_ids.get(i) or _EMPTY):
            raise GameError(
                f"R4 violated: {self._c.vertex(i)!r} does not hold the pebble "
                f"of parent {parent} of ({level}, {index})"
            )
        self._place(i, inst)
        self._log_append(
            OP_MOVE_UP,
            i,
            (level << _INST_SHIFT) | index,
            (parent[0] << _INST_SHIFT) | parent[1],
        )
        # Traffic crosses the link between `parent` and its children.
        vertical = self.record.vertical_io
        vertical[parent] = vertical.get(parent, 0) + 1

    def move_down(self, v: Vertex, level: int, index: int) -> None:
        """R5: copy from a child instance into its parent ``(level, index)``.

        ``level`` must satisfy ``1 < level <= L`` and the vertex must hold
        the pebble of one of the children of ``(level, index)``.
        """
        self.move_down_id(self._id(v), level, index)

    def move_down_id(self, i: int, level: int, index: int) -> None:
        """R5 in id space."""
        L = self._L
        if not 1 < level <= L:
            raise GameError(f"R5 violated: level must be in 2..{L}")
        children = self._children_of.get((level, index))
        if children is None:
            children = self.hierarchy.child_instances(level, index)
        shades = self.pebbles_ids.get(i) or _EMPTY
        src = None
        for child in children:
            if child in shades:
                src = child
                break
        if src is None:
            raise GameError(
                f"R5 violated: {self._c.vertex(i)!r} holds no pebble of a "
                f"child of ({level}, {index})"
            )
        self._place(i, (level, index))
        self._log_append(
            OP_MOVE_DOWN,
            i,
            (level << _INST_SHIFT) | index,
            (src[0] << _INST_SHIFT) | src[1],
        )
        vertical = self.record.vertical_io
        vertical[(level, index)] = vertical.get((level, index), 0) + 1

    def compute(self, v: Vertex, processor: int) -> None:
        """R6: fire ``v`` on ``processor``; predecessors must hold that
        processor's level-1 pebbles."""
        self.compute_id(self._id(v), processor)

    def compute_id(self, i: int, processor: int) -> None:
        """R6 in id space."""
        if i in self.white_ids:
            raise GameError(
                f"R6 violated: {self._c.vertex(i)!r} already has a white "
                "pebble (recomputation is prohibited)"
            )
        if self._is_input[i]:
            raise GameError(
                f"R6 violated: input vertex {self._c.vertex(i)!r} must be "
                "loaded, not computed"
            )
        if not 0 <= processor < self._num_procs:
            raise GameError(f"unknown processor {processor}")
        reg = (1, processor)
        pebbles_get = self.pebbles_ids.get
        preds = self._pred_lists[i]
        for p in preds:
            shades = pebbles_get(p)
            if shades is None or reg not in shades:
                names = [
                    self._c.vertex(q)
                    for q in preds
                    if reg not in self.shades_ids(q)
                ]
                raise GameError(
                    f"R6 violated: predecessors of {self._c.vertex(i)!r} "
                    f"without level-1 pebbles of processor {processor}: "
                    f"{names[:3]}"
                )
        self._place(i, reg)
        self.white_ids.add(i)
        self._log_append(OP_COMPUTE, i, (1 << _INST_SHIFT) | processor)
        computes = self.record.compute_per_processor
        computes[processor] = computes.get(processor, 0) + 1

    def delete(self, v: Vertex, level: int, index: int) -> None:
        """R7: remove the ``(level, index)`` pebble from ``v``."""
        self.delete_id(self._id(v), level, index)

    def delete_id(self, i: int, level: int, index: int) -> None:
        """R7 in id space."""
        inst = (level, index)
        got = self.pebbles_ids.get(i)
        if not got or inst not in got:
            raise GameError(
                f"R7 violated: {self._c.vertex(i)!r} holds no pebble of "
                f"shade {inst}"
            )
        got.remove(inst)
        if not got:
            # Prune the empty set: keeps the number of GC-tracked
            # containers proportional to *live* values, not fired ones
            # (gen-2 collections otherwise dominate 10^7-move games).
            del self.pebbles_ids[i]
        self.occupancy_ids[inst].discard(i)
        self._log_append(OP_DELETE, i, (level << _INST_SHIFT) | index)

    def delete_all_id(self, i: int) -> None:
        """R7 applied to every shade of ``i`` at once (id space).

        Semantically identical to calling :meth:`delete_id` for each
        shade the vertex currently holds (one DELETE row is logged per
        shade, in the same set order) — one call instead of one per copy
        when a strategy retires a dead value from the whole hierarchy.
        No-op when the vertex holds no pebbles.
        """
        got = self.pebbles_ids.get(i)
        if not got:
            return
        occupancy = self.occupancy_ids
        append = self._log_append
        for inst in got:
            occupancy[inst].discard(i)
            append(OP_DELETE, i, (inst[0] << _INST_SHIFT) | inst[1])
        del self.pebbles_ids[i]

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def is_complete(self) -> bool:
        white = self.white_ids
        for i in range(self._c.n):
            if self._is_input[i]:
                continue
            if i not in white:
                return False
        blue = self.blue_ids
        return all(i in blue for i in self._output_ids)

    def assert_complete(self) -> None:
        if not self.is_complete():
            unfired = [
                self._c.vertex(i)
                for i in range(self._c.n)
                if i not in self.white_ids and not self._is_input[i]
            ]
            missing_out = [
                self._c.vertex(i)
                for i in self._output_ids
                if i not in self.blue_ids
            ]
            raise GameError(
                "parallel game incomplete: "
                f"{len(unfired)} unfired operations (e.g. {unfired[:3]}), "
                f"{len(missing_out)} outputs without blue pebbles "
                f"(e.g. {missing_out[:3]})"
            )

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def replay(self, moves) -> GameRecord:
        """Validate and replay a recorded P-RBW game from the initial state.

        Accepts a :class:`~repro.pebbling.state.GameRecord`, a
        :class:`~repro.pebbling.state.MoveLog`, or an iterable of
        :class:`Move` objects.  A columnar log bound to this engine's
        compiled CDAG replays directly off the four integer columns
        (opcode, vertex id, packed location, packed source) — the decoded
        ``(level, index)`` arithmetic is two shifts per move, with no
        ``Move`` materialization.
        """
        self.reset()
        log = moves.log if isinstance(moves, GameRecord) else moves
        if isinstance(log, MoveLog) and log.is_bound_to(self._c):
            # Bulk path: vectorized rule checks + block appends; falls
            # back to the per-move loop (exact diagnostics) on failure.
            if replay_parallel_kernel(self, log):
                self.assert_complete()
                return self.record
            # One block at a time: spilled logs page in via memmap chunks.
            for kinds, vids, locs, srcs in log.iter_chunks():
                for code, vid, loc, src in zip(
                    kinds.tolist(), vids.tolist(),
                    locs.tolist(), srcs.tolist(),
                ):
                    level, index = loc >> _INST_SHIFT, loc & _INST_MASK
                    if code == OP_COMPUTE:
                        self.compute_id(vid, index)
                    elif code == OP_MOVE_UP:
                        self.move_up_id(vid, level, index)
                    elif code == OP_MOVE_DOWN:
                        self.move_down_id(vid, level, index)
                    elif code == OP_DELETE:
                        self.delete_id(vid, level, index)
                    elif code == OP_LOAD:
                        self.load_id(vid, index)
                    elif code == OP_STORE:
                        self.store_id(vid, index)
                    elif code == OP_REMOTE_GET:
                        self.remote_get_id(vid, index, src & _INST_MASK)
                    else:  # pragma: no cover - unreachable with engine logs
                        raise GameError(f"unknown move opcode {code}")
        else:
            for move in log:
                kind = move.kind
                loc = move.location
                if kind is MoveKind.COMPUTE:
                    self.compute(move.vertex, loc[1])
                elif kind is MoveKind.MOVE_UP:
                    self.move_up(move.vertex, loc[0], loc[1])
                elif kind is MoveKind.MOVE_DOWN:
                    self.move_down(move.vertex, loc[0], loc[1])
                elif kind is MoveKind.DELETE:
                    self.delete(move.vertex, loc[0], loc[1])
                elif kind is MoveKind.LOAD:
                    self.load(move.vertex, loc[1])
                elif kind is MoveKind.STORE:
                    self.store(move.vertex, loc[1])
                elif kind is MoveKind.REMOTE_GET:
                    self.remote_get(move.vertex, loc[1], move.source[1])
                else:  # pragma: no cover - exhaustive over MoveKind
                    raise GameError(
                        f"move kind {kind} is not part of the P-RBW game"
                    )
        self.assert_complete()
        return self.record

