"""Exact search for the optimal (minimum-I/O) RBW pebble game.

For small CDAGs the optimal game ``IO_S(C)`` (Definition 4, no
recomputation) is found by an A* search over the game's state space,
run as a 0-1 BFS.  It is exponential in the worst case and only meant
for validation: E7, the test-suite and
``benchmarks/bench_bound_validation.py`` use it to sandwich the
analytical lower bounds and the spill-game upper bounds.

State
-----
Vertices are numbered ``0..n-1`` and a state is three bitmasks
``(red, blue, white)``, packed into one int as the visited-dict key.
``white`` holds operations only: inputs are never computed, so no rule
and no goal test reads an input's white bit.  Per-vertex predecessor and
successor masks turn the rules into bit operations:

* R3 compute an unfired operation whose predecessors are all red;
* R1 load a blue value that has an unfired successor;
* R2 store a red, non-blue value that is an output or has an unfired
  successor;
* R4 delete a red value.

Loads and stores cost 1, computes and deletes cost 0.  The start state
has every input blue; the goal has every operation white and every
output blue.

Pruning (each prune is safe: it never removes every optimal play)
-----------------------------------------------------------------
* Only useful loads and stores: a value no future move reads, and that
  is not an unstored output, never needs to move.
* A delete is generated only when the value is dead (no unfired
  successor, not an output) or fast memory is full.  Any other delete
  can be postponed until the next move that needs a free red pebble,
  which is then a delete on a full memory.
* A state in which a computed value is neither red nor blue while it
  still has an unfired successor or is an unstored output is never
  pushed.  RBW forbids recomputation, so that value can never be red
  again and the state cannot reach the goal.

Heuristic
---------
``h = |{v in inputs | white : v not red, v has an unfired successor}|
+ |outputs - blue|``.  Every counted value needs its own load, and
every unstored output its own store, so ``h`` is admissible.  It is
also consistent, ``h(s) <= cost(s, s') + h(s')`` on every move:

* a load lowers ``h`` by exactly 1, at cost 1 (the loaded value was
  counted: it is blue, so an input or a computed operation);
* a store lowers ``h`` by 1 (an output) or 0 (a spill), at cost 1;
* a compute leaves ``h`` unchanged: its operands and the new value are
  red, hence not counted, and it never touches ``blue``;
* a delete raises ``h`` by 1 if the value still has an unfired
  successor, else by 0.

So the reduced cost ``cost + h(s') - h(s)`` of every move is 0 or 1.
The search keeps ``f = g + h`` per state, pushes 0-moves on the front of
a deque and 1-moves on the back, and pops states in nondecreasing ``f``
order like Dijkstra would.  At the goal ``h = 0``, so the first goal
popped has ``f = IO_S(C)``.

Reach
-----
The six E7 CDAGs (at most 15 vertices) take a few thousand expansions
in total.  20-24-vertex CDAGs such as ``diamond_cdag(5, 4)``,
``diamond_cdag(6, 4)`` or ``grid_stencil_cdag((5,), 3)`` at ``S = 4``
finish within E7's ``max_states=400_000`` budget.  ``max_states``
counts expanded states.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable

from ..core.cdag import CDAG, Vertex
from .state import GameError

__all__ = ["optimal_rbw_io", "OptimalSearchResult", "SearchBudgetExceeded"]


class SearchBudgetExceeded(RuntimeError):
    """Raised when the exhaustive search exceeds its state budget."""


@dataclass(frozen=True)
class OptimalSearchResult:
    """Result of an exhaustive optimal-game search."""

    io: int
    states_expanded: int
    num_red: int


def optimal_rbw_io(
    cdag: CDAG,
    num_red: int,
    max_states: int = 2_000_000,
) -> OptimalSearchResult:
    """Exact minimum I/O of the RBW game on ``cdag`` with ``num_red`` pebbles.

    Raises
    ------
    SearchBudgetExceeded
        if more than ``max_states`` distinct states are expanded.
    GameError
        if the CDAG cannot be completed with ``num_red`` pebbles (some
        vertex has in-degree >= num_red).
    """
    if num_red < 1:
        raise ValueError("num_red must be >= 1")
    vertices = cdag.vertices
    max_need = max(
        (cdag.in_degree(v) + 1 for v in vertices if not cdag.is_input(v)),
        default=1,
    )
    if num_red < max_need:
        raise GameError(
            f"S={num_red} cannot fire a vertex with {max_need - 1} operands"
        )

    n = len(vertices)
    index: Dict[Vertex, int] = {v: i for i, v in enumerate(vertices)}

    def mask(vs: Iterable[Vertex]) -> int:
        m = 0
        for v in vs:
            m |= 1 << index[v]
        return m

    inputs = mask(cdag.inputs)
    outputs = mask(cdag.outputs)
    ops = ((1 << n) - 1) & ~inputs
    preds = [mask(cdag.predecessors(v)) for v in vertices]
    # successors that still have to fire; inputs never do
    succs = [mask(cdag.successors(v)) & ops for v in vertices]
    n2 = 2 * n

    h0 = sum(1 for i in range(n) if inputs >> i & 1 and succs[i])
    h0 += (outputs & ~inputs).bit_count()
    # entries are (f, red, blue, white); best maps packed state -> f
    best: Dict[int, int] = {inputs << n: h0}
    queue = deque([(h0, 0, inputs, 0)])
    expanded = 0
    while queue:
        f, red, blue, white = queue.popleft()
        if f > best[red | blue << n | white << n2]:
            continue
        if white == ops and not outputs & ~blue:
            return OptimalSearchResult(
                io=f, states_expanded=expanded, num_red=num_red
            )
        expanded += 1
        if expanded > max_states:
            raise SearchBudgetExceeded(
                f"exceeded {max_states} expanded states "
                f"(|V|={n}, S={num_red})"
            )
        unfired = ops & ~white
        n_red = red.bit_count()
        moves = []  # (reduced cost, red, blue, white)
        if n_red < num_red:
            # R3 compute: h is unchanged
            cand = unfired
            while cand:
                bit = cand & -cand
                cand ^= bit
                if not preds[bit.bit_length() - 1] & ~red:
                    moves.append((0, red | bit, blue, white | bit))
            # R1 load: cost 1, and h drops by 1
            cand = blue & ~red
            while cand:
                bit = cand & -cand
                cand ^= bit
                if succs[bit.bit_length() - 1] & unfired:
                    moves.append((0, red | bit, blue, white))
        full = n_red == num_red
        cand = red
        while cand:
            bit = cand & -cand
            cand ^= bit
            live = succs[bit.bit_length() - 1] & unfired
            if blue & bit:
                # R4 delete a stored value: h rises by 1 if it is live
                if full or not (live or outputs & bit):
                    moves.append((1 if live else 0, red ^ bit, blue, white))
            elif outputs & bit:
                # R2 store an output: cost 1, and h drops by 1
                moves.append((0, red, blue | bit, white))
            elif live:
                # R2 spill: cost 1, h unchanged
                moves.append((1, red, blue | bit, white))
            else:
                # R4 delete a dead value.  Deleting the only copy of a
                # needed one would make the goal unreachable.
                moves.append((0, red ^ bit, blue, white))
        for step, r, b, w in moves:
            key = r | b << n | w << n2
            nf = f + step
            old = best.get(key)
            if old is None or nf < old:
                best[key] = nf
                if step:
                    queue.append((nf, r, b, w))
                else:
                    queue.appendleft((nf, r, b, w))
    raise GameError("state space exhausted without completing the game")
