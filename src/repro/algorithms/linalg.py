"""Dense linear-algebra CDAGs and bounds (matmul, outer product).

Matrix multiplication is the canonical example of the 2S-partitioning
technique (its ``N^3 / (2 sqrt(2S))`` bound is quoted in Section 3) and
also the canonical example of why naive input/output *deletion* fails:
removing the input and output vertices of the matmul CDAG leaves only the
``N^2`` independent accumulation chains, each pebblable with two red
pebbles.  Theorem 3 (retagging) is the repair.  This module provides:

* :func:`matmul_cdag` — the classical-algorithm CDAG with explicit
  multiply and accumulate vertices;
* :func:`matmul_io_lower_bound` re-exported from
  :mod:`repro.bounds.analytical` for convenience;
* :func:`matmul_accumulation_chains` — the CDAG left after deleting the
  input/output vertices, used by tests to demonstrate the degenerate
  behaviour the paper describes;
* :func:`outer_product_cdag` and :func:`outer_product_io` re-exported
  for Section 3's first two steps.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..bounds.analytical import matmul_io_lower_bound, outer_product_io
from ..core.cdag import CDAG, Vertex
from ..core.builders import independent_chains_cdag, outer_product_cdag

__all__ = [
    "matmul_cdag",
    "matmul_accumulation_chains",
    "matmul_io_lower_bound",
    "outer_product_io",
    "outer_product_cdag",
]


def matmul_cdag(n: int, name: str = "matmul") -> CDAG:
    """CDAG of the classical ``N x N`` matrix multiplication ``C = A B``.

    Vertices:

    * inputs ``("A", i, k)`` and ``("B", k, j)``;
    * multiplies ``("mul", i, j, k)`` reading ``A[i,k]`` and ``B[k,j]``;
    * accumulations ``("acc", i, j, k)`` for ``k >= 1`` reading the
      previous partial sum and the ``k``-th product; the last accumulation
      of each ``(i, j)`` is an output (``C[i,j]``).

    For ``n = 1`` the single multiply is the output.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    vertices: List[Vertex] = []
    edges: List[Tuple[Vertex, Vertex]] = []
    inputs: List[Vertex] = []
    outputs: List[Vertex] = []
    for i in range(n):
        for k in range(n):
            vertices.append(("A", i, k))
            inputs.append(("A", i, k))
    for k in range(n):
        for j in range(n):
            vertices.append(("B", k, j))
            inputs.append(("B", k, j))
    for i in range(n):
        for j in range(n):
            prev: Optional[Vertex] = None
            for k in range(n):
                mul: Vertex = ("mul", i, j, k)
                vertices.append(mul)
                edges.append((("A", i, k), mul))
                edges.append((("B", k, j), mul))
                if prev is None:
                    prev = mul
                else:
                    acc: Vertex = ("acc", i, j, k)
                    vertices.append(acc)
                    edges.append((prev, acc))
                    edges.append((mul, acc))
                    prev = acc
            outputs.append(prev)  # type: ignore[arg-type]
    return CDAG.from_edge_list(vertices, edges, inputs, outputs, name=name)


def matmul_accumulation_chains(n: int) -> CDAG:
    """The matmul CDAG with its input and output vertices deleted.

    What remains is ``N^2`` independent accumulation chains (each of
    length ``~2N``): every chain can be evaluated with 2 red pebbles and
    no I/O at all, which is why Corollary 2 alone gives only the trivial
    ``|dI| + |dO| = 2N^2 + N^2`` bound and the stronger matmul bound needs
    Theorem 3 retagging.  Returned as a freshly-built chains CDAG with the
    same shape for clarity (the tests also derive it directly from
    :func:`matmul_cdag` via ``without_io_vertices`` and check the two are
    isomorphic in the relevant statistics).
    """
    if n < 2:
        raise ValueError("n must be >= 2 for non-trivial chains")
    # Each (i, j) chain: n multiplies and n-1 accumulates; after removing
    # the inputs, the multiplies become sources feeding the accumulate
    # chain.  Equivalent stats: n^2 chains of length ~2n-1.
    return independent_chains_cdag(n * n, 2 * n - 2, name=f"matmul{n}-chains")
