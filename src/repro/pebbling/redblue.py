"""The Hong-Kung red-blue pebble game (Definition 2).

The game models a two-level memory: ``S`` *red* pebbles stand for the
small fast memory (registers / cache), an unlimited supply of *blue*
pebbles stands for slow main memory.  A complete game starts with blue
pebbles on every input vertex and must end with blue pebbles on every
output vertex, using the rules

* R1 (Input): a red pebble may be placed on any vertex holding a blue
  pebble — a load, counted as one I/O;
* R2 (Output): a blue pebble may be placed on any vertex holding a red
  pebble — a store, counted as one I/O;
* R3 (Compute): if all immediate predecessors of a non-input vertex hold
  red pebbles, a red pebble may be placed on that vertex;
* R4 (Delete): a red pebble may be removed from any vertex.

Unlike the RBW variant (:mod:`repro.pebbling.rbw`, a subclass of this
engine), recomputation is allowed: R3 may fire the same vertex multiple
times.  The engine below is a *rule checker and cost accountant*:
strategies (how to choose moves) live in :mod:`repro.pebbling.strategies`.

Internally the engine runs on the compiled integer-indexed CDAG backend
(:meth:`CDAG.compiled`): pebbles are sets of vertex *ids*, predecessor
checks walk precomputed id lists, and vertex names only appear at the API
boundary (the ``*_id`` methods skip even that conversion — the spill
strategies use them directly).  ``red``/``blue`` remain available as
set-like views in vertex space.  Moves are recorded into the columnar
:class:`~repro.pebbling.state.MoveLog` — a handful of integer appends per
transition — and :meth:`replay` validates a log in bulk, off its
opcode/vertex-id columns.
"""

from __future__ import annotations

from typing import Set

from ..core.cdag import CDAG, Vertex
from .kernel import replay_sequential_kernel
from .state import (
    OP_COMPUTE,
    OP_DELETE,
    OP_LOAD,
    OP_STORE,
    CompiledEngineMixin,
    GameError,
    GameRecord,
    VertexSetView,
)

__all__ = ["RedBluePebbleGame"]


class RedBluePebbleGame(CompiledEngineMixin):
    """Stateful engine for the Hong-Kung red-blue pebble game.

    Parameters
    ----------
    cdag:
        The CDAG to pebble.  Following Definition 2, every source vertex
        should be an input and every sink an output; this is checked
        unless ``strict=False``.
    num_red:
        The number of red pebbles ``S`` available.
    strict:
        Enforce the Hong-Kung convention on the CDAG tags.
    """

    _GAME = "red-blue"

    def __init__(
        self,
        cdag: CDAG,
        num_red: int,
        strict: bool = True,
        spill=False,
        log_block_size: int = 65536,
    ) -> None:
        if num_red < 1:
            raise ValueError("the game needs at least one red pebble")
        if strict:
            cdag.validate(hong_kung=True)
        self.num_red = num_red
        super().__init__(cdag, spill, log_block_size)

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Restore the initial state: blue pebbles on inputs, nothing else.

        If the CDAG was mutated (new edges, Theorem 3 re-tagging) since
        the engine last bound to it, the id-space caches are refreshed so
        the new game plays against the current graph.  Mutating the CDAG
        *mid-game* is not supported — call :meth:`reset` after mutating.
        """
        self._rebind_if_stale()
        self.red_ids: Set[int] = set()
        self.blue_ids: Set[int] = set(self._input_ids)
        self.record = self._new_record()

    @property
    def red(self) -> VertexSetView:
        """Vertices currently holding a red pebble (live view)."""
        return VertexSetView(self.red_ids, self._c)

    # ------------------------------------------------------------------
    # Moves (each validates its rule and updates the cost record)
    # ------------------------------------------------------------------
    def load(self, v: Vertex) -> None:
        """R1: place a red pebble on a blue-pebbled vertex."""
        self.load_id(self._id(v))

    def load_id(self, i: int) -> None:
        """R1 in id space."""
        if i not in self.blue_ids:
            raise GameError(
                f"R1 violated: {self._c.vertex(i)!r} has no blue pebble"
            )
        if i in self.red_ids:
            raise GameError(
                f"R1 wasted: {self._c.vertex(i)!r} already has a red pebble"
            )
        self._acquire_red(i)
        self._log_append(OP_LOAD, i)

    def store(self, v: Vertex) -> None:
        """R2: place a blue pebble on a red-pebbled vertex."""
        self.store_id(self._id(v))

    def store_id(self, i: int) -> None:
        """R2 in id space."""
        if i not in self.red_ids:
            raise GameError(
                f"R2 violated: {self._c.vertex(i)!r} has no red pebble"
            )
        self.blue_ids.add(i)
        self._log_append(OP_STORE, i)

    def compute(self, v: Vertex) -> None:
        """R3: fire a non-input vertex whose predecessors all hold red pebbles."""
        self.compute_id(self._id(v))

    def compute_id(self, i: int) -> None:
        """R3 in id space."""
        if self._is_input[i]:
            raise GameError(
                f"R3 violated: {self._c.vertex(i)!r} is an input vertex"
            )
        red = self.red_ids
        preds = self._pred_lists[i]
        for p in preds:
            if p not in red:
                missing = [
                    self._c.vertex(q) for q in preds if q not in red
                ]
                raise GameError(
                    f"R3 violated: predecessors of {self._c.vertex(i)!r} "
                    f"without red pebbles: {missing[:3]}"
                )
        if i not in red:
            self._acquire_red(i)
        self._log_append(OP_COMPUTE, i)

    def delete(self, v: Vertex) -> None:
        """R4: remove a red pebble."""
        self.delete_id(self._id(v))

    def delete_id(self, i: int) -> None:
        """R4 in id space."""
        if i not in self.red_ids:
            raise GameError(
                f"R4 violated: {self._c.vertex(i)!r} has no red pebble"
            )
        self.red_ids.remove(i)
        self._log_append(OP_DELETE, i)

    def _acquire_red(self, i: int) -> None:
        """Place a red pebble by R1 or R3, within the budget ``S``."""
        if len(self.red_ids) >= self.num_red:
            raise GameError(
                f"out of red pebbles (S={self.num_red}); delete one first"
            )
        self.red_ids.add(i)
        if len(self.red_ids) > self.record.peak_red:
            self.record.peak_red = len(self.red_ids)
        self._on_red(i)

    def _on_red(self, i: int) -> None:
        """Hook: R1 or R3 just placed a red pebble on ``i`` (the RBW game
        places its white pebble here)."""

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def is_complete(self) -> bool:
        """A complete game ends with blue pebbles on every output vertex."""
        blue = self.blue_ids
        return all(i in blue for i in self._output_ids)

    def assert_complete(self) -> None:
        missing = [
            self._c.vertex(i)
            for i in self._output_ids
            if i not in self.blue_ids
        ]
        if missing:
            raise GameError(
                f"game incomplete: outputs without blue pebbles: {missing[:5]}"
            )

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def replay(self, moves) -> GameRecord:
        """Validate and replay ``moves`` (a record, a log or an iterable
        of ``Move`` objects) from the initial state; return the record."""
        return self._replay(moves)

    def _bulk_replay(self, log) -> bool:
        return replay_sequential_kernel(self, log, rbw=False)

    def _replay_steps(self) -> tuple:
        return (self.load_id, self.store_id, self.compute_id, self.delete_id)
