"""The Hong-Kung "lines" (vertex-disjoint paths) lower-bound technique.

Theorem 10 of the paper bounds the I/O of iterated stencils by invoking
Hong & Kung's Theorem 5.1: if a CDAG has the property that *all inputs
reach all outputs through vertex-disjoint paths* (called **lines**), and
``F(d)`` is a monotone function such that for any two vertices of the same
line at distance at least ``d`` there exist ``F(d)`` vertices, none on the
same line, each lying on a path connecting them, then the sequential I/O
satisfies

``Q  >=  L / (2 * (F^{-1}(2S) + 1))``

where ``L`` is the total number of vertices on the lines.  For the
d-dimensional Jacobi CDAG, ``F^{-1}(2S) = Θ((2S)^{1/d})`` which yields the
``n^d T / (4 (2S)^{1/d})`` bound of Theorem 10.

This module makes the technique executable:

* :func:`find_lines` — extract a maximum set of vertex-disjoint
  input-to-output paths from a CDAG (max-flow with unit vertex
  capacities), returning the paths themselves so ``L`` can be measured
  rather than assumed;
* :func:`lines_lower_bound` — evaluate the Hong-Kung formula given the
  measured ``L`` and the CDAG family's ``F^{-1}``;
* :func:`stencil_f_inverse` — the closed form ``F^{-1}(x) = 2 x^{1/d} - 1``
  for d-dimensional grid stencils (the 2-D case ``2 sqrt(2S) - 1`` is
  quoted in the proof of Theorem 10);
* :func:`jacobi_lines_bound` — the end-to-end pipeline for a stencil CDAG:
  find the lines, measure ``L``, apply the formula, and (in tests) check
  the result is consistent with the closed-form Theorem 10 bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..core.cdag import CDAG, Vertex

__all__ = [
    "LinesAnalysis",
    "find_lines",
    "lines_lower_bound",
    "stencil_f_inverse",
    "jacobi_lines_bound",
]


@dataclass(frozen=True)
class LinesAnalysis:
    """Result of a lines-based lower-bound computation.

    Attributes
    ----------
    num_lines:
        Number of vertex-disjoint input-output paths found.
    total_line_vertices:
        ``L`` — the number of vertices covered by the lines.
    f_inverse_2s:
        The value ``F^{-1}(2S)`` used.
    value:
        The lower bound ``L / (2 (F^{-1}(2S) + 1))``.
    """

    num_lines: int
    total_line_vertices: int
    f_inverse_2s: float
    value: float


def find_lines(cdag: CDAG, max_lines: Optional[int] = None) -> List[List[Vertex]]:
    """Find a maximum family of vertex-disjoint input-to-output paths.

    Uses the standard vertex-splitting max-flow construction (every vertex
    has capacity 1) between a super-source attached to the inputs and a
    super-sink attached to the outputs, then decomposes the integral flow
    into paths (:meth:`~repro.core.properties.WavefrontSolver.disjoint_paths_ids`).
    The returned paths are pairwise vertex-disjoint and each runs from an
    input vertex to an output vertex; at most ``max_lines`` are returned.
    """
    c = cdag.compiled()
    paths = c.wavefront_solver().disjoint_paths_ids(
        c.input_ids.tolist(), c.output_ids.tolist()
    )
    if max_lines is not None:
        paths = paths[: max(max_lines, 0)]
    return [c.vertices_of(path) for path in paths]


def stencil_f_inverse(two_s: float, dimensions: int) -> float:
    """``F^{-1}(2S)`` for d-dimensional grid stencil CDAGs.

    From the proof of Theorem 10 (2-D case): ``F^{-1}(2S) = 2 sqrt(2S) - 1``;
    generalised to ``2 (2S)^{1/d} - 1`` in d dimensions.
    """
    if two_s <= 0 or dimensions < 1:
        raise ValueError("2S must be positive and dimensions >= 1")
    return 2.0 * two_s ** (1.0 / dimensions) - 1.0


def lines_lower_bound(
    total_line_vertices: int,
    f_inverse_2s: float,
    num_lines: int = 0,
) -> LinesAnalysis:
    """Evaluate the Hong-Kung Theorem 5.1 formula.

    ``Q >= L / (2 (F^{-1}(2S) + 1))`` where ``L`` is the number of vertices
    lying on the vertex-disjoint input-output lines.
    """
    if total_line_vertices < 0:
        raise ValueError("L cannot be negative")
    if f_inverse_2s < 0:
        raise ValueError("F^{-1}(2S) cannot be negative")
    value = total_line_vertices / (2.0 * (f_inverse_2s + 1.0))
    return LinesAnalysis(
        num_lines=num_lines,
        total_line_vertices=total_line_vertices,
        f_inverse_2s=f_inverse_2s,
        value=value,
    )


def jacobi_lines_bound(
    cdag: CDAG, s: int, dimensions: int, processors: int = 1
) -> LinesAnalysis:
    """End-to-end lines bound for an iterated-stencil CDAG.

    Finds the vertex-disjoint lines of the concrete CDAG by max-flow,
    measures ``L``, and applies the formula with the stencil closed form of
    ``F^{-1}``.  Dividing by ``P`` gives the parallel version exactly as
    Theorem 5 does for the closed-form bound.
    """
    if s < 1 or processors < 1:
        raise ValueError("s and processors must be >= 1")
    lines = find_lines(cdag)
    total = sum(len(p) for p in lines)
    f_inv = stencil_f_inverse(2.0 * s, dimensions)
    base = lines_lower_bound(total, f_inv, num_lines=len(lines))
    return LinesAnalysis(
        num_lines=base.num_lines,
        total_line_vertices=base.total_line_vertices,
        f_inverse_2s=base.f_inverse_2s,
        value=base.value / processors,
    )
