"""Reference oracle for the exact RBW optimum: uniform-cost search over
frozenset states.

This is the original, deliberately simple implementation of
:func:`repro.pebbling.optimal.optimal_rbw_io`, kept verbatim as the
oracle the bitmask A* search is pinned to (``test_optimal_differential``).
It is not part of the library.

For tiny CDAGs the optimal game can be found by uniform-cost search over
the game's state space.  A state is the triple

``(red pebbles, blue pebbles, white pebbles)``

and the transitions are the RBW rules, with edge cost 1 for loads and
stores (R1, R2) and cost 0 for computes and deletes (R3, R4).  The search
explores states in order of accumulated I/O, so the first time a goal
state (all operations white-pebbled, all outputs blue-pebbled) is popped,
its cost is the exact I/O complexity ``IO_S(C)``.

Pruning used (all safe — they never remove an optimal play):

* deletions are only generated for values with no remaining unfired
  successor *or* when fast memory is full (deleting early never helps
  otherwise, because keeping a pebble cannot invalidate later moves);
* a value that is already blue-pebbled or dead (all successors fired and
  not an output) is never stored;
* compute moves are preferred: from any state we first close over all
  zero-cost computes that don't exceed the pebble budget -- this is *not*
  applied as a forced reduction (it could be suboptimal to fire greedily
  when memory is tight), but computes are expanded before I/O moves so
  the queue finds cheap completions early.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, FrozenSet, List, Tuple

from repro.core.cdag import CDAG, Vertex
from repro.pebbling.optimal import OptimalSearchResult, SearchBudgetExceeded
from repro.pebbling.state import GameError

__all__ = ["optimal_rbw_io"]


State = Tuple[FrozenSet, FrozenSet, FrozenSet]  # (red, blue, white)


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

    inputs = set(cdag.inputs)
    outputs = set(cdag.outputs)
    operations = [v for v in vertices if v not in inputs]
    preds: Dict[Vertex, Tuple[Vertex, ...]] = {
        v: tuple(cdag.predecessors(v)) for v in vertices
    }
    succs: Dict[Vertex, Tuple[Vertex, ...]] = {
        v: tuple(cdag.successors(v)) for v in vertices
    }

    start: State = (frozenset(), frozenset(inputs), frozenset())

    def is_goal(state: State) -> bool:
        red, blue, white = state
        for v in operations:
            if v not in white:
                return False
        return outputs <= blue

    def successors_of(state: State):
        red, blue, white = state
        n_red = len(red)
        # R3 compute (cost 0)
        if n_red < num_red:
            for v in operations:
                if v in white:
                    continue
                if all(p in red for p in preds[v]):
                    yield 0, (red | {v}, blue, white | {v})
        # R1 load (cost 1)
        if n_red < num_red:
            for v in blue:
                if v not in red:
                    # Loading a value no future move can use is wasteful:
                    # only load if it has an unfired successor or it is an
                    # output not yet blue (outputs in blue already satisfy
                    # the goal, so that case never triggers).
                    if any(s not in white for s in succs[v]):
                        new_white = white | {v} if v not in white else white
                        yield 1, (red | {v}, blue, new_white)
        # R2 store (cost 1)
        for v in red:
            if v not in blue:
                useful = v in outputs or any(s not in white for s in succs[v])
                if useful:
                    yield 1, (red, blue | {v}, white)
        # R4 delete (cost 0) — only when full or the value is dead.
        for v in red:
            dead = v not in outputs and all(s in white for s in succs[v])
            if dead or n_red == num_red:
                yield 0, (red - {v}, blue, white)

    best: Dict[State, int] = {start: 0}
    heap: List[Tuple[int, int, State]] = [(0, 0, start)]
    counter = itertools.count(1)
    expanded = 0
    while heap:
        cost, _, state = heapq.heappop(heap)
        if cost > best.get(state, float("inf")):
            continue
        if is_goal(state):
            return OptimalSearchResult(
                io=cost, states_expanded=expanded, num_red=num_red
            )
        expanded += 1
        if expanded > max_states:
            raise SearchBudgetExceeded(
                f"exceeded {max_states} expanded states "
                f"(|V|={len(vertices)}, S={num_red})"
            )
        for delta, nxt in successors_of(state):
            ncost = cost + delta
            if ncost < best.get(nxt, float("inf")):
                best[nxt] = ncost
                heapq.heappush(heap, (ncost, next(counter), nxt))
    raise GameError("state space exhausted without completing the game")
