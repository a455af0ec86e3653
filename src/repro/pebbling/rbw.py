"""The Red-Blue-White (RBW) pebble game (Definition 4).

The RBW game differs from Hong & Kung's red-blue game in two ways that
make lower bounds *composable* across sub-CDAGs (Section 3):

1. **Flexible input/output tagging.**  Source vertices need not be inputs
   (they get no initial blue pebble but may fire at any time via R3 since
   they have no predecessors), and sink vertices need not be outputs.
2. **No recomputation.**  A *white* pebble is placed on a vertex when it
   first receives a value (by load R1 or compute R3) and never removed;
   rule R3 refuses to fire a vertex that already has a white pebble.  If a
   value is evicted (R4) after its white pebble is placed, the only way to
   get it back into fast memory is R1 — which requires a blue pebble,
   i.e. the value must have been stored (R2) first.  This is what forces
   "spills" to be visible as I/O.

A complete game ends with white pebbles on **all** vertices (everything
has been evaluated or loaded) and blue pebbles on all output vertices.

Like the red-blue engine, this engine runs on the compiled
integer-indexed CDAG backend: the red/blue/white pebble sets hold vertex
ids, and the ``*_id`` methods let the spill strategies avoid vertex-name
hashing entirely.  ``red``/``blue``/``white`` remain available as
set-like vertex-space views.  Moves land in the columnar
:class:`~repro.pebbling.state.MoveLog`, and :meth:`replay` reads its
integer columns directly when the log is bound to the same compiled CDAG.
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
    MoveKind,
    MoveLog,
    VertexSetView,
)

__all__ = ["RBWPebbleGame"]


class RBWPebbleGame(CompiledEngineMixin):
    """Stateful engine for the Red-Blue-White pebble game.

    Parameters
    ----------
    cdag:
        The CDAG to pebble; tags are taken as given (flexible labelling).
    num_red:
        The number of red pebbles ``S``.
    """

    def __init__(
        self,
        cdag: CDAG,
        num_red: int,
        spill=False,
        log_block_size: int = 65536,
    ) -> None:
        if num_red < 1:
            raise ValueError("the game needs at least one red pebble")
        cdag.validate()
        self.cdag = cdag
        self.num_red = num_red
        #: spill the move log to disk (see :class:`MoveLog`'s ``spill``)
        self.log_spill = spill
        self.log_block_size = log_block_size
        self._bind()
        self.reset()

    def _bind_extra(self) -> None:
        self._out_degree = self._c.out_degree.tolist()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Restore the initial state (refreshing id caches if the CDAG
        was mutated since the last bind; mid-game mutation is not
        supported — call :meth:`reset` after mutating)."""
        self._rebind_if_stale()
        self.red_ids: Set[int] = set()
        self.blue_ids: Set[int] = set(self._input_ids)
        self.white_ids: Set[int] = set()
        self.record = self._new_record()

    @property
    def red(self) -> VertexSetView:
        """Vertices currently holding a red pebble (live view)."""
        return VertexSetView(self.red_ids, self._c)

    @property
    def blue(self) -> VertexSetView:
        """Vertices currently holding a blue pebble (live view)."""
        return VertexSetView(self.blue_ids, self._c)

    @property
    def white(self) -> VertexSetView:
        """Vertices currently holding a white pebble (live view)."""
        return VertexSetView(self.white_ids, self._c)

    # ------------------------------------------------------------------
    # Moves
    # ------------------------------------------------------------------
    def load(self, v: Vertex) -> None:
        """R1: red pebble on a blue-pebbled vertex; also places a white
        pebble if not already present."""
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
        self.white_ids.add(i)
        self._log_append(OP_LOAD, i)

    def store(self, v: Vertex) -> None:
        """R2: blue pebble on a red-pebbled vertex."""
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
        """R3: fire ``v`` if it has no white pebble and all predecessors
        hold red pebbles.  Places a red and a white pebble on ``v``."""
        self.compute_id(self._id(v))

    def compute_id(self, i: int) -> None:
        """R3 in id space."""
        if i in self.white_ids:
            raise GameError(
                f"R3 violated: {self._c.vertex(i)!r} already has a white "
                "pebble (recomputation is prohibited in the RBW game)"
            )
        if self._is_input[i]:
            raise GameError(
                f"R3 violated: input vertex {self._c.vertex(i)!r} must be "
                "loaded, not computed"
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
        self._acquire_red(i)
        self.white_ids.add(i)
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
        if len(self.red_ids) >= self.num_red:
            raise GameError(
                f"out of red pebbles (S={self.num_red}); delete one first"
            )
        self.red_ids.add(i)
        if len(self.red_ids) > self.record.peak_red:
            self.record.peak_red = len(self.red_ids)

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def is_complete(self) -> bool:
        """Complete = white pebbles everywhere + blue pebbles on outputs.

        Input vertices satisfy the white-pebble requirement implicitly if
        they were never needed (they hold their value in slow memory); we
        follow the convention that an input vertex only requires a white
        pebble if it has at least one successor that fired — which any
        complete game guarantees via R3's predecessor condition — so the
        check below requires white pebbles on all *operation* vertices
        plus any input that has successors.
        """
        white = self.white_ids
        for i in range(self._c.n):
            if self._is_input[i]:
                if self._out_degree[i] > 0 and i not in white:
                    return False
            elif i not in white:
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
                "game incomplete: "
                f"{len(unfired)} unfired operations (e.g. {unfired[:3]}), "
                f"{len(missing_out)} outputs without blue pebbles "
                f"(e.g. {missing_out[:3]})"
            )

    # ------------------------------------------------------------------
    def replay(self, moves) -> GameRecord:
        """Validate and replay a full move sequence from the initial state.

        Accepts a :class:`~repro.pebbling.state.GameRecord`, a
        :class:`~repro.pebbling.state.MoveLog`, or any iterable of
        :class:`Move` objects; a columnar log bound to this engine's
        compiled CDAG replays directly off the integer columns —
        paging only the opcode + vertex-id column files when the log is
        spilled (sequential games never set locations/sources).
        """
        self.reset()
        log = moves.log if isinstance(moves, GameRecord) else moves
        if isinstance(log, MoveLog) and log.is_bound_to(self._c):
            # Bulk path: vectorized rule checks + block appends; falls
            # back to the per-move loop (exact diagnostics) on failure.
            if not replay_sequential_kernel(self, log, rbw=True):
                handlers = (
                    self.load_id, self.store_id,
                    self.compute_id, self.delete_id,
                )
                # One block at a time: spilled logs page in via memmap
                # chunks of just the opcode + vertex-id column files.
                for kinds, vids in log.select_columns("kinds", "vertex_ids"):
                    for code, vid in zip(kinds.tolist(), vids.tolist()):
                        if code >= len(handlers):
                            raise GameError(
                                f"move opcode {code} is not part of the "
                                "RBW game"
                            )
                        handlers[code](vid)
        else:
            dispatch = {
                MoveKind.LOAD: self.load,
                MoveKind.STORE: self.store,
                MoveKind.COMPUTE: self.compute,
                MoveKind.DELETE: self.delete,
            }
            for move in log:
                handler = dispatch.get(move.kind)
                if handler is None:
                    raise GameError(
                        f"move kind {move.kind} is not part of the RBW game"
                    )
                handler(move.vertex)
        self.assert_complete()
        return self.record
