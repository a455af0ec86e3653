"""The composite multi-step example of Section 3.

The computation::

    Inputs : p, q, r, s  (vectors of size N)
    Output : sum         (scalar)
    A = p * q^T
    B = r * s^T
    C = A B
    sum = sum_ij C_ij

is the paper's motivating example for why per-step I/O bounds cannot
simply be added under the Hong-Kung game: with about ``4N + 4`` words of
fast memory the whole computation needs only ``4N + 1`` I/O operations
(load the four vectors, regenerate elements of A and B on the fly,
accumulate into ``sum``), *less* than the matmul step's own lower bound.

This module provides:

* :func:`composite_cdag` — the full CDAG of the composite computation
  (structural, with explicit multiply/accumulate vertices);
* :func:`recompute_friendly_game` — the clever evaluation order
  achieving ``4N + 1`` I/O under the (recomputation-allowing) red-blue
  game, reproduced as an explicit move generator so the claim is
  machine-checked rather than asserted;
* :func:`naive_step_sum` — the (invalid as a composite bound) sum of the
  per-step bounds, for the comparison table of experiment E2.
"""

from __future__ import annotations

from typing import List, Tuple

from ..bounds.analytical import (
    composite_example_io_upper_bound,
    composite_example_naive_sum,
)
from ..core.cdag import CDAG, Vertex
from ..pebbling.redblue import RedBluePebbleGame
from ..pebbling.state import GameRecord

__all__ = [
    "composite_cdag",
    "recompute_friendly_game",
    "naive_step_sum",
    "composite_example_io_upper_bound",
]


def composite_cdag(n: int, name: str = "composite") -> CDAG:
    """Full CDAG of the Section 3 composite computation for vectors of size ``n``.

    Vertex classes:

    * inputs ``("p", i)``, ``("q", j)``, ``("r", i)``, ``("s", j)``;
    * ``("A", i, j)`` = ``p_i * q_j`` and ``("B", i, j)`` = ``r_i * s_j``;
    * ``("mulC", i, j, k)`` = ``A[i,k] * B[k,j]`` and accumulations
      ``("accC", i, j, k)`` forming ``C[i,j]``;
    * accumulations ``("sum", t)`` over all ``C[i,j]``; the final one is
      the single output.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    vertices: List[Vertex] = []
    edges: List[Tuple[Vertex, Vertex]] = []
    inputs: List[Vertex] = []
    for name_vec in ("p", "q", "r", "s"):
        for i in range(n):
            vertices.append((name_vec, i))
            inputs.append((name_vec, i))
    for i in range(n):
        for j in range(n):
            a: Vertex = ("A", i, j)
            vertices.append(a)
            edges.append(((("p", i)), a))
            edges.append(((("q", j)), a))
            b: Vertex = ("B", i, j)
            vertices.append(b)
            edges.append(((("r", i)), b))
            edges.append(((("s", j)), b))
    # C = A B and the global sum.
    sum_prev: Vertex = None  # type: ignore[assignment]
    sum_count = 0
    for i in range(n):
        for j in range(n):
            prev: Vertex = None  # type: ignore[assignment]
            for k in range(n):
                mul: Vertex = ("mulC", i, j, k)
                vertices.append(mul)
                edges.append((("A", i, k), mul))
                edges.append((("B", k, j), mul))
                if prev is None:
                    prev = mul
                else:
                    acc: Vertex = ("accC", i, j, k)
                    vertices.append(acc)
                    edges.append((prev, acc))
                    edges.append((mul, acc))
                    prev = acc
            # accumulate C[i,j] into the running global sum
            if sum_prev is None:
                sum_prev = prev
            else:
                s: Vertex = ("sum", sum_count)
                sum_count += 1
                vertices.append(s)
                edges.append((sum_prev, s))
                edges.append((prev, s))
                sum_prev = s
    return CDAG.from_edge_list(vertices, edges, inputs, [sum_prev], name=name)


def recompute_friendly_game(n: int) -> GameRecord:
    """Play the ``4N + 1`` I/O red-blue game on the composite CDAG.

    The strategy of Section 3: load the four input vectors (``4N`` loads)
    and keep them resident; walk the ``(i, j)`` result space, recomputing
    ``A[i, k]`` and ``B[k, j]`` on demand (recomputation is legal in the
    Hong-Kung game and costs no I/O), accumulating each ``C[i, j]`` into
    the running sum held in a red pebble; finally store the sum (1 store).
    Total I/O: ``4N + 1`` with ``4N + O(1)`` red pebbles (the paper quotes
    ``4N + 4``; the explicit move sequence below momentarily holds two
    extra scratch values — the running partial of ``C[i,j]`` and the fresh
    product — so it is given ``4N + 6``; the I/O count, which is the point
    of the example, is exactly ``4N + 1`` either way).

    The returned record is produced by replaying explicit moves through
    :class:`RedBluePebbleGame`, so rule violations would raise — the
    ``4N + 1`` claim is verified, not assumed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    cdag = composite_cdag(n)
    game = RedBluePebbleGame(cdag, num_red=4 * n + 6, strict=True)
    # Load all inputs.
    for vec in ("p", "q", "r", "s"):
        for i in range(n):
            game.load((vec, i))
    sum_prev = None
    sum_count = 0
    for i in range(n):
        for j in range(n):
            prev = None
            for k in range(n):
                # (Re)compute A[i,k] and B[k,j]; they may have been
                # computed before for another (i, j) — the red pebble was
                # deleted, and the red-blue game lets us just recompute.
                if ("A", i, k) not in game.red:
                    game.compute(("A", i, k))
                if ("B", k, j) not in game.red:
                    game.compute(("B", k, j))
                game.compute(("mulC", i, j, k))
                game.delete(("A", i, k))
                game.delete(("B", k, j))
                if prev is None:
                    prev = ("mulC", i, j, k)
                else:
                    game.compute(("accC", i, j, k))
                    game.delete(prev)
                    game.delete(("mulC", i, j, k))
                    prev = ("accC", i, j, k)
            if sum_prev is None:
                sum_prev = prev
            else:
                game.compute(("sum", sum_count))
                game.delete(sum_prev)
                game.delete(prev)
                sum_prev = ("sum", sum_count)
                sum_count += 1
    game.store(sum_prev)
    game.assert_complete()
    return game.record


def naive_step_sum(n: int, s: int) -> float:
    """Sum of the per-step bounds (outer products + matmul + reduction).

    This is *not* a valid bound for the composite CDAG — that is the whole
    point of Section 3 — and is reported alongside the true ``4N + 1``
    cost in experiment E2 to reproduce the paper's argument numerically.
    """
    return composite_example_naive_sum(n, s)
