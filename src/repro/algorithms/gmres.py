"""GMRES: CDAG construction and data-movement analysis (Section 5.3).

* **Theorem 9** (vertical lower bound): at outer iteration ``i`` the
  result of the last inner product ``h_{i,i} = <w, v_i>`` has ``2 n^d``
  predecessors (the elements of ``w`` and ``v_i``) with disjoint paths to
  its descendants (the SAXPY at line 10), and the norm ``h_{i+1,i}``
  similarly gives ``n^d``; non-disjoint decomposition over the ``m``
  outer iterations yields ``Q >= 6 n^d m`` and ``6 n^d m / P`` in
  parallel.
* **Section 5.3.2**: the ghost-cell horizontal upper bound is the same
  ``O(2 d B^{d-1} m)`` as for CG.
* **Section 5.3.3**: with ``|V| = 20 n^3 m + n^3 m^2`` FLOPs, the vertical
  requirement per FLOP is ``6 / (m + 20)`` — above machine balance for
  small Krylov dimensions ``m`` but decreasing as ``m`` grows (the
  orthogonalisation work grows quadratically while the wavefront bound
  grows linearly), so no decisive verdict without knowing ``m``; the
  horizontal requirement is ``6 N_nodes^{1/3} / (n m)``, orders of
  magnitude below network balance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..bounds.analytical import (
    gmres_vertical_lower_bound,
    stencil_horizontal_upper_bound,
)
from ..core.cdag import CDAG, Vertex
from ..machine.balance import BalanceVerdict, horizontal_condition, vertical_condition
from ..machine.spec import MachineSpec
from .cg import stencil_neighbors

__all__ = [
    "gmres_iteration_cdag",
    "GMRESAnalysis",
    "analyze_gmres",
]


def gmres_iteration_cdag(
    shape: Tuple[int, ...], krylov_iterations: int = 2, name: str = "gmres"
) -> CDAG:
    """Structural CDAG of ``m`` GMRES (Arnoldi) iterations on a grid.

    Vertex classes at outer iteration ``i``:

    * ``("w", i, g)`` — the SpMV ``w = A v_i``;
    * ``("h", i, j, g)`` / ``("h+", i, j, k)`` — products and reduction of
      ``h_{j,i} = <w, v_j>`` for ``j <= i``;
    * ``("v'", i, g)`` — the orthogonalised vector
      ``w - sum_j h_{j,i} v_j`` (one vertex per point, reading ``w``, the
      ``h`` scalars and all previous basis vectors at that point);
    * ``("nrm", i, g)`` / ``("nrm+", i, k)`` and ``("h_last", i)`` — the
      norm ``h_{i+1,i}``;
    * ``("v", i+1, g)`` — the normalised next basis vector.

    Inputs are the initial basis vector ``v_0``; outputs are the final
    basis vector and all Hessenberg scalars (they feed the least-squares
    solve).
    """
    if any(n < 1 for n in shape):
        raise ValueError(f"shape entries must be >= 1, got {tuple(shape)}")
    if krylov_iterations < 1:
        raise ValueError("krylov_iterations must be >= 1")
    points = list(np.ndindex(*shape))
    cdag = CDAG(name=name, validate=False)

    def linear_reduction(items: List[Vertex], prefix: Tuple) -> Vertex:
        acc = items[0]
        for k, item in enumerate(items[1:], start=1):
            node: Vertex = prefix + (k,)
            cdag.add_vertex(node)
            cdag.add_edge(acc, node)
            cdag.add_edge(item, node)
            acc = node
        return acc

    for g in points:
        v0: Vertex = ("v", 0, g)
        cdag.add_vertex(v0)
        cdag.tag_input(v0)

    basis: List[Dict[Tuple, Vertex]] = [{g: ("v", 0, g) for g in points}]
    hessenberg_scalars: List[Vertex] = []

    for i in range(krylov_iterations):
        v_i = basis[i]
        # w = A v_i
        w: Dict[Tuple, Vertex] = {}
        for g in points:
            node = ("w", i, g)
            cdag.add_vertex(node)
            cdag.add_edge(v_i[g], node)
            for nb in stencil_neighbors(shape, g):
                cdag.add_edge(v_i[nb], node)
            w[g] = node
        # h_{j,i} = <w, v_j> for j = 0..i
        h_scalars: List[Vertex] = []
        for j in range(i + 1):
            terms = []
            for g in points:
                node = ("h", i, j, g)
                cdag.add_vertex(node)
                cdag.add_edge(w[g], node)
                cdag.add_edge(basis[j][g], node)
                terms.append(node)
            root = linear_reduction(terms, ("h+", i, j))
            h_scalars.append(root)
            hessenberg_scalars.append(root)
        # v' = w - sum_j h_{j,i} v_j
        vprime: Dict[Tuple, Vertex] = {}
        for g in points:
            node = ("v'", i, g)
            cdag.add_vertex(node)
            cdag.add_edge(w[g], node)
            for j, h in enumerate(h_scalars):
                cdag.add_edge(h, node)
                cdag.add_edge(basis[j][g], node)
            vprime[g] = node
        # h_{i+1,i} = ||v'||
        nrm_terms = []
        for g in points:
            node = ("nrm", i, g)
            cdag.add_vertex(node)
            cdag.add_edge(vprime[g], node)
            nrm_terms.append(node)
        nrm_root = linear_reduction(nrm_terms, ("nrm+", i))
        h_last: Vertex = ("h_last", i)
        cdag.add_vertex(h_last)
        cdag.add_edge(nrm_root, h_last)
        hessenberg_scalars.append(h_last)
        # v_{i+1} = v' / h_{i+1,i}
        nxt: Dict[Tuple, Vertex] = {}
        for g in points:
            node = ("v", i + 1, g)
            cdag.add_vertex(node)
            cdag.add_edge(vprime[g], node)
            cdag.add_edge(h_last, node)
            nxt[g] = node
        basis.append(nxt)

    for g in points:
        cdag.tag_output(basis[-1][g])
    for h in hessenberg_scalars:
        cdag.tag_output(h)
    cdag.validate()
    return cdag


@dataclass(frozen=True)
class GMRESAnalysis:
    """The Section 5.3 quantities for one (n, d, m, machine) setting."""

    n: int
    dimensions: int
    krylov_iterations: int
    machine: MachineSpec
    total_flops: float
    vertical_lb_per_node: float
    horizontal_ub_per_node: float
    vertical_verdict: BalanceVerdict
    horizontal_verdict: BalanceVerdict

    @property
    def vertical_intensity(self) -> float:
        """``6 / (m + 20)`` in the paper's constants."""
        return self.vertical_verdict.algorithm_side

    @property
    def horizontal_intensity(self) -> float:
        """``6 N_nodes^{1/3} / (n m)`` in the paper's constants."""
        return self.horizontal_verdict.algorithm_side


def analyze_gmres(
    machine: MachineSpec,
    n: int = 1000,
    dimensions: int = 3,
    krylov_iterations: int = 10,
) -> GMRESAnalysis:
    """Reproduce the Section 5.3.3 analysis of GMRES on ``machine``."""
    m = krylov_iterations
    # The paper's 20 n^d m + n^d m^2 operation count (Section 5.3.3).
    nd = n ** dimensions
    total_flops = 20.0 * nd * m + nd * float(m) ** 2
    lb_per_node = gmres_vertical_lower_bound(
        n, m, dimensions, processors=machine.total_cores
    ) * machine.cores_per_node
    ub_horiz = stencil_horizontal_upper_bound(
        n, machine.num_nodes, dimensions, m
    )
    vert = vertical_condition(machine, lb_per_node, total_flops)
    horiz = horizontal_condition(machine, ub_horiz, total_flops)
    return GMRESAnalysis(
        n=n,
        dimensions=dimensions,
        krylov_iterations=m,
        machine=machine,
        total_flops=total_flops,
        vertical_lb_per_node=lb_per_node,
        horizontal_ub_per_node=ub_horiz,
        vertical_verdict=vert,
        horizontal_verdict=horiz,
    )
