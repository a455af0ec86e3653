"""Jacobi / stencil computations: CDAG and data-movement analysis (Section 5.4).

* **Theorem 10**: for the 9-point 2-D Jacobi over ``T - 1`` time steps,
  ``Q >= n^2 T / (4 P sqrt(2S))``, generalising to
  ``n^d T / (4 P (2S)^{1/d})`` in ``d`` dimensions.  The proof uses the
  Hong & Kung "lines" argument: all inputs reach all outputs through
  vertex-disjoint paths (the grid columns through time), and any
  2S-partition can cover at most ``F(2S) = O(S (2S)^{1/d})`` vertices per
  line segment.  The bound is tight: the space-time tiled schedule
  achieves it (up to constants).
* **Section 5.4.2**: the ghost-cell horizontal cost is ``~ 4 B T`` in 2-D
  (``2 d B^{d-1} T`` in general).
* **Section 5.4.3**: combining Theorem 6's form of the vertical bound with
  ``U(C, 2S) = 4 S (2S)^{1/d}`` gives the per-operation vertical
  requirement ``1 / (4 (2S)^{1/d})``; comparing against a machine's
  vertical balance yields a *dimension threshold*: the stencil is
  vertically bandwidth bound only for dimensions above the threshold
  (the paper reports d <= 4.83 for the DRAM<->L2 level of BG/Q and
  d <= 96 for L2<->L1, concluding the algorithm is bandwidth bound only
  for impractically high-dimensional stencils).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..bounds.analytical import (
    jacobi_io_lower_bound,
    stencil_horizontal_upper_bound,
)
from ..core.builders import grid_stencil_cdag
from ..core.cdag import CDAG
from ..machine.balance import BalanceVerdict, horizontal_condition, vertical_condition
from ..machine.spec import MachineSpec

__all__ = [
    "jacobi_cdag",
    "JacobiAnalysis",
    "analyze_jacobi",
    "bandwidth_bound_dimension_threshold",
]


def jacobi_cdag(
    shape: Sequence[int], timesteps: int, neighborhood: str = "box"
) -> CDAG:
    """The iterated-stencil CDAG of Theorem 10 (``box`` = 9-point in 2-D)."""
    return grid_stencil_cdag(shape, timesteps, neighborhood=neighborhood,
                             name=f"jacobi{len(tuple(shape))}d")


def bandwidth_bound_dimension_threshold(
    balance: float, cache_words: float
) -> float:
    """Largest dimension ``d`` for which the stencil is *not* provably
    vertically bandwidth bound.

    From Section 5.4.3: the necessary condition to avoid being bandwidth
    bound is ``1 / (4 (2S)^{1/d}) <= balance``, i.e.

    ``d <= log(2S) / log(1 / (4 * balance))``

    (valid when ``4 * balance < 1``; otherwise the condition holds for
    every ``d`` and ``inf`` is returned).  The paper quotes the same
    threshold in the linearised form ``d <= 0.21 log(2 S_2)`` (= 4.83 for
    the 32 MB L2 of BG/Q); the exact form used here gives a higher
    threshold for the same inputs — E5 reports both, as
    ``paper_threshold_d`` and ``exact_threshold_d`` — but the
    qualitative conclusion (only impractically high-dimensional stencils
    are bound) is identical.
    """
    if balance <= 0 or cache_words <= 0:
        raise ValueError("balance and cache size must be positive")
    if 4.0 * balance >= 1.0:
        return float("inf")
    return math.log(2.0 * cache_words) / math.log(1.0 / (4.0 * balance))


@dataclass(frozen=True)
class JacobiAnalysis:
    """The Section 5.4 quantities for one (n, d, T, machine) setting."""

    n: int
    dimensions: int
    timesteps: int
    machine: MachineSpec
    total_flops: float
    vertical_lb_per_node: float
    horizontal_ub_per_node: float
    vertical_verdict: BalanceVerdict
    horizontal_verdict: BalanceVerdict
    #: per-operation vertical requirement 1 / (4 (2S)^{1/d})
    per_op_vertical_requirement: float
    #: dimension threshold for the DRAM<->cache level of this machine
    dimension_threshold: float

    @property
    def vertical_intensity(self) -> float:
        return self.vertical_verdict.algorithm_side

    @property
    def horizontal_intensity(self) -> float:
        return self.horizontal_verdict.algorithm_side


def analyze_jacobi(
    machine: MachineSpec,
    n: int = 1000,
    dimensions: int = 2,
    timesteps: int = 1000,
    count_flops: bool = False,
) -> JacobiAnalysis:
    """Reproduce the Section 5.4.3 analysis of the d-dimensional Jacobi.

    Parameters
    ----------
    count_flops:
        When False (default), ``|V|`` counts one operation per grid-point
        update — the CDAG vertex count Theorems 6/10 actually bound, and
        the convention under which the ``1/(4 (2S)^{1/d})`` per-operation
        requirement of Section 5.4.3 is stated.  When True, ``|V|`` counts
        floating-point operations (``~2 * 3^d`` per update), which lowers
        the apparent intensity accordingly.
    """
    if dimensions < 1:
        raise ValueError(f"dimensions must be >= 1, got {dimensions}")
    s_cache = machine.cache_words
    nd = n ** dimensions
    if count_flops:
        total_ops = float(2 * 3**dimensions) * nd * timesteps
    else:
        total_ops = float(nd) * timesteps
    # Theorem 10 bound per processor, re-aggregated per node.
    lb_per_node = jacobi_io_lower_bound(
        n, timesteps, int(s_cache), dimensions, processors=machine.total_cores
    ) * machine.cores_per_node
    ub_horiz = stencil_horizontal_upper_bound(
        n, machine.num_nodes, dimensions, timesteps
    )
    vert = vertical_condition(machine, lb_per_node, total_ops)
    horiz = horizontal_condition(machine, ub_horiz, total_ops)
    per_op = 1.0 / (4.0 * (2.0 * s_cache) ** (1.0 / dimensions))
    threshold = bandwidth_bound_dimension_threshold(
        machine.effective_vertical_balance(), s_cache
    )
    return JacobiAnalysis(
        n=n,
        dimensions=dimensions,
        timesteps=timesteps,
        machine=machine,
        total_flops=total_ops,
        vertical_lb_per_node=lb_per_node,
        horizontal_ub_per_node=ub_horiz,
        vertical_verdict=vert,
        horizontal_verdict=horiz,
        per_op_vertical_requirement=per_op,
        dimension_threshold=threshold,
    )
