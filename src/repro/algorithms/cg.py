"""Conjugate Gradient: CDAG construction and data-movement analysis.

Reproduces Section 5.2 of the paper:

* **Theorem 8** (vertical lower bound): the scalar ``a = <r,r>/<p,v>`` has
  ``2 n^d`` predecessors (the elements of ``p`` and ``v``) all of which
  reach its descendants through disjoint paths (the two SAXPYs at lines 8
  and 9), giving a wavefront of ``2 n^d``; the scalar ``g`` similarly
  gives ``n^d``.  Applying the non-disjoint decomposition over the ``T``
  outer iterations and Lemma 2 per iteration yields
  ``Q >= T * 2 (3 n^d - 2S) -> 6 n^d T`` and, with Theorem 5,
  ``>= 6 n^d T / P`` in parallel.
* **Section 5.2.2** (horizontal upper bound): with a block-partitioned
  grid, each node exchanges the ghost shell ``(B + 2)^d - B^d`` per
  iteration, ``O(2 d B^{d-1} T)`` in total.
* **Section 5.2.3** (balance analysis): with ``|V| = 20 n^3 T`` FLOPs the
  vertical requirement per FLOP is ``6/20 = 0.3`` words/FLOP — above the
  balance of every machine in Table 1, so CG is unavoidably
  memory-bandwidth bound; the horizontal requirement
  ``6 N_nodes^{1/3} / (20 n)`` is far below the network balance.

:func:`cg_iteration_cdag` builds the exact vertex classes of CG
iterations on a grid, scalable to a few thousand vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..bounds.analytical import (
    cg_vertical_lower_bound,
    stencil_horizontal_upper_bound,
)
from ..core.cdag import CDAG, Vertex
from ..machine.balance import BalanceVerdict, horizontal_condition, vertical_condition
from ..machine.spec import MachineSpec

__all__ = [
    "cg_iteration_cdag",
    "CGAnalysis",
    "analyze_cg",
]


# ----------------------------------------------------------------------
# CDAG construction
# ----------------------------------------------------------------------
def stencil_neighbors(
    shape: Sequence[int], idx: Sequence[int]
) -> List[Tuple[int, ...]]:
    """Interior axis neighbours (±1 along each dimension) of the point
    ``idx`` of a grid of extents ``shape``, axis by axis, minus first."""
    out: List[Tuple[int, ...]] = []
    for axis in range(len(shape)):
        for sign in (-1, 1):
            j = list(idx)
            j[axis] += sign
            if 0 <= j[axis] < shape[axis]:
                out.append(tuple(j))
    return out


def cg_iteration_cdag(
    shape: Tuple[int, ...], iterations: int = 1, name: str = "cg"
) -> CDAG:
    """Structural CDAG of ``iterations`` CG iterations on a grid of ``shape``.

    Vertex classes per iteration ``t`` (all indexed by grid point ``g``):

    * ``("v", t, g)`` — the SpMV result ``v = A p`` (reads ``p`` at ``g``
      and its axis neighbours);
    * ``("pv", t, g)`` / ``("pv+", t, k)`` — products and reduction tree of
      ``<p, v>``;
    * ``("rr", t, g)`` / ``("rr+", t, k)`` — products and reduction of
      ``<r, r>`` (for ``t = 0`` these read the input residual);
    * ``("a", t)`` — the step scalar;
    * ``("x", t, g)``, ``("r", t, g)`` — the SAXPY updates;
    * ``("rnew2", t, g)`` / ``("rnew2+", t, k)`` and ``("g", t)`` — the
      ``<r_new, r_new>`` reduction and the CG beta;
    * ``("p", t, g)`` — the new search direction.

    Inputs are the initial ``x``, ``r`` and ``p`` vectors (the matrix is
    matrix-free, its coefficients are compile-time constants); outputs are
    the final ``x`` and ``p``/``r`` vectors.
    """
    if any(n < 1 for n in shape):
        raise ValueError(f"shape entries must be >= 1, got {tuple(shape)}")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    points = list(np.ndindex(*shape))
    cdag = CDAG(name=name, validate=False)

    def linear_reduction(items: List[Vertex], prefix: Tuple) -> Vertex:
        """Accumulate items with a chain of binary adds; returns the root."""
        acc = items[0]
        for k, item in enumerate(items[1:], start=1):
            node: Vertex = prefix + (k,)
            cdag.add_vertex(node)
            cdag.add_edge(acc, node)
            cdag.add_edge(item, node)
            acc = node
        return acc

    # Iteration-0 inputs.
    for g in points:
        for vec in ("x0", "r0", "p0"):
            v: Vertex = (vec, g)
            cdag.add_vertex(v)
            cdag.tag_input(v)

    prev_x = {g: ("x0", g) for g in points}
    prev_r = {g: ("r0", g) for g in points}
    prev_p = {g: ("p0", g) for g in points}
    prev_rr: Optional[Vertex] = None

    for t in range(iterations):
        # v = A p (stencil SpMV)
        v_vec: Dict[Tuple, Vertex] = {}
        for g in points:
            node = ("v", t, g)
            cdag.add_vertex(node)
            cdag.add_edge(prev_p[g], node)
            for nb in stencil_neighbors(shape, g):
                cdag.add_edge(prev_p[nb], node)
            v_vec[g] = node
        # <p, v> reduction
        pv_terms = []
        for g in points:
            node = ("pv", t, g)
            cdag.add_vertex(node)
            cdag.add_edge(prev_p[g], node)
            cdag.add_edge(v_vec[g], node)
            pv_terms.append(node)
        pv_root = linear_reduction(pv_terms, ("pv+", t))
        # <r, r> reduction (only recomputed at t = 0; later reused from g's
        # denominator just like the real algorithm reuses rr_new)
        if prev_rr is None:
            rr_terms = []
            for g in points:
                node = ("rr", t, g)
                cdag.add_vertex(node)
                cdag.add_edge(prev_r[g], node)
                rr_terms.append(node)
            prev_rr = linear_reduction(rr_terms, ("rr+", t))
        # a = <r,r> / <p,v>
        a_node: Vertex = ("a", t)
        cdag.add_vertex(a_node)
        cdag.add_edge(prev_rr, a_node)
        cdag.add_edge(pv_root, a_node)
        # x = x + a p ; r_new = r - a v
        new_x: Dict[Tuple, Vertex] = {}
        new_r: Dict[Tuple, Vertex] = {}
        for g in points:
            xn = ("x", t, g)
            cdag.add_vertex(xn)
            cdag.add_edge(prev_x[g], xn)
            cdag.add_edge(prev_p[g], xn)
            cdag.add_edge(a_node, xn)
            new_x[g] = xn
            rn = ("r", t, g)
            cdag.add_vertex(rn)
            cdag.add_edge(prev_r[g], rn)
            cdag.add_edge(v_vec[g], rn)
            cdag.add_edge(a_node, rn)
            new_r[g] = rn
        # <r_new, r_new> and g
        rn2_terms = []
        for g in points:
            node = ("rnew2", t, g)
            cdag.add_vertex(node)
            cdag.add_edge(new_r[g], node)
            rn2_terms.append(node)
        rn2_root = linear_reduction(rn2_terms, ("rnew2+", t))
        g_node: Vertex = ("g", t)
        cdag.add_vertex(g_node)
        cdag.add_edge(rn2_root, g_node)
        cdag.add_edge(prev_rr, g_node)
        # p = r_new + g p
        new_p: Dict[Tuple, Vertex] = {}
        for g in points:
            pn = ("p", t, g)
            cdag.add_vertex(pn)
            cdag.add_edge(new_r[g], pn)
            cdag.add_edge(prev_p[g], pn)
            cdag.add_edge(g_node, pn)
            new_p[g] = pn
        prev_x, prev_r, prev_p = new_x, new_r, new_p
        prev_rr = rn2_root

    for g in points:
        cdag.tag_output(prev_x[g])
        cdag.tag_output(prev_r[g])
        cdag.tag_output(prev_p[g])
    cdag.validate()
    return cdag


# ----------------------------------------------------------------------
# Analysis (Theorem 8 + Section 5.2.3)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CGAnalysis:
    """All the Section 5.2 quantities for one (n, d, T, machine) setting."""

    n: int
    dimensions: int
    iterations: int
    machine: MachineSpec
    #: |V|, the total FLOP count (paper constant 20 n^d T)
    total_flops: float
    #: Theorem 8 lower bound on vertical traffic per node
    vertical_lb_per_node: float
    #: Section 5.2.2 upper bound on horizontal traffic per node
    horizontal_ub_per_node: float
    #: condition (9) verdict
    vertical_verdict: BalanceVerdict
    #: condition (10) verdict
    horizontal_verdict: BalanceVerdict

    @property
    def vertical_intensity(self) -> float:
        """``LB_vert * N_nodes / |V|`` — 0.3 for CG in the paper."""
        return self.vertical_verdict.algorithm_side

    @property
    def horizontal_intensity(self) -> float:
        """``UB_horiz * N_nodes / |V|`` — ``6 N^{1/3} / (20 n)`` in the paper."""
        return self.horizontal_verdict.algorithm_side


def analyze_cg(
    machine: MachineSpec,
    n: int = 1000,
    dimensions: int = 3,
    iterations: int = 1,
) -> CGAnalysis:
    """Reproduce the Section 5.2.3 analysis of CG on ``machine``.

    The per-node vertical lower bound is ``6 n^d T / P * N_cores =
    6 n^d T / N_nodes`` (Theorem 8 divided over processors, then
    re-aggregated per node as in the paper's analysis); the horizontal
    upper bound is the ghost-cell volume of the node's block.
    """
    # The paper's 20 n^d T operation count (Section 5.2.3).
    total_flops = 20.0 * n ** dimensions * iterations
    # 6 n^d T / P per processor; a node holds N_cores processors.
    lb_per_node = cg_vertical_lower_bound(
        n, iterations, dimensions, processors=machine.total_cores
    ) * machine.cores_per_node
    ub_horiz = stencil_horizontal_upper_bound(
        n, machine.num_nodes, dimensions, iterations
    )
    vert = vertical_condition(machine, lb_per_node, total_flops)
    horiz = horizontal_condition(machine, ub_horiz, total_flops)
    return CGAnalysis(
        n=n,
        dimensions=dimensions,
        iterations=iterations,
        machine=machine,
        total_flops=total_flops,
        vertical_lb_per_node=lb_per_node,
        horizontal_ub_per_node=ub_horiz,
        vertical_verdict=vert,
        horizontal_verdict=horiz,
    )
