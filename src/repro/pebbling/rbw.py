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

The engine is the red-blue engine (:mod:`repro.pebbling.redblue`) plus
exactly these additions: the white pebble set, the white pebble that R1
and R3 place, R3's no-recomputation check, structure-only CDAG
validation in place of the Hong-Kung tag check, and the completion rule
above.  Rules, id-space state, views and replay are inherited.
"""

from __future__ import annotations

from typing import Set

from ..core.cdag import CDAG
from .kernel import replay_sequential_kernel
from .redblue import RedBluePebbleGame
from .state import GameError, GameRecord, VertexSetView

__all__ = ["RBWPebbleGame"]


class RBWPebbleGame(RedBluePebbleGame):
    """Stateful engine for the Red-Blue-White pebble game.

    Parameters
    ----------
    cdag:
        The CDAG to pebble; tags are taken as given (flexible labelling).
    num_red:
        The number of red pebbles ``S``.
    """

    _GAME = "RBW"

    def __init__(
        self,
        cdag: CDAG,
        num_red: int,
        spill=False,
        log_block_size: int = 65536,
    ) -> None:
        cdag.validate()
        super().__init__(
            cdag, num_red, strict=False, spill=spill,
            log_block_size=log_block_size,
        )

    def _bind_extra(self) -> None:
        self._out_degree = self._c.out_degree.tolist()

    def reset(self) -> None:
        super().reset()
        self.white_ids: Set[int] = set()

    @property
    def white(self) -> VertexSetView:
        """Vertices currently holding a white pebble (live view)."""
        return VertexSetView(self.white_ids, self._c)

    # ------------------------------------------------------------------
    # What Definition 4 adds to the red-blue rules
    # ------------------------------------------------------------------
    def _on_red(self, i: int) -> None:
        """R1 and R3 also place a white pebble."""
        self.white_ids.add(i)

    def compute_id(self, i: int) -> None:
        """R3 in id space; a white-pebbled vertex may not fire again."""
        if i in self.white_ids:
            raise GameError(
                f"R3 violated: {self._c.vertex(i)!r} already has a white "
                "pebble (recomputation is prohibited in the RBW game)"
            )
        super().compute_id(i)

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
        return super().is_complete()

    def assert_complete(self) -> None:
        if not self.is_complete():
            raise self._incomplete()

    # ------------------------------------------------------------------
    def replay(self, moves) -> GameRecord:
        """Validate and replay ``moves`` (a record, a log or an iterable
        of ``Move`` objects) from the initial state; return the record."""
        return self._replay(moves)

    def _bulk_replay(self, log) -> bool:
        return replay_sequential_kernel(self, log, rbw=True)
