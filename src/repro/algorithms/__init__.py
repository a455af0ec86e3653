"""Algorithm-specific CDAG constructors, closed-form bounds and analyses.

Each module pairs a workload of the paper's evaluation (Section 5) — or a
supporting example (Section 3) — with (a) structural CDAG constructors,
(b) the paper's closed-form bounds and (c) an ``analyze_*`` driver that
evaluates the machine-balance conditions on a
:class:`~repro.machine.spec.MachineSpec`.
"""

from .cg import CGAnalysis, analyze_cg, cg_iteration_cdag
from .composite import composite_cdag, naive_step_sum, recompute_friendly_game
from .gmres import GMRESAnalysis, analyze_gmres, gmres_iteration_cdag
from .jacobi import (
    JacobiAnalysis,
    analyze_jacobi,
    bandwidth_bound_dimension_threshold,
    jacobi_cdag,
)
from .linalg import matmul_accumulation_chains, matmul_cdag
from .reductions import dot_product_cdag, dot_then_axpy_cdag, saxpy_cdag

__all__ = [
    "CGAnalysis",
    "analyze_cg",
    "cg_iteration_cdag",
    "composite_cdag",
    "naive_step_sum",
    "recompute_friendly_game",
    "GMRESAnalysis",
    "analyze_gmres",
    "gmres_iteration_cdag",
    "JacobiAnalysis",
    "analyze_jacobi",
    "bandwidth_bound_dimension_threshold",
    "jacobi_cdag",
    "matmul_accumulation_chains",
    "matmul_cdag",
    "dot_product_cdag",
    "dot_then_axpy_cdag",
    "saxpy_cdag",
]
