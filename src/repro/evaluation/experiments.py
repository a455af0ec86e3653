"""Experiment drivers reproducing every table and analysis of the paper.

Each ``experiment_*`` function regenerates one artifact of the paper's
evaluation (see ``docs/experiments.md``) and returns a list of row
dictionaries plus, via :func:`repro.evaluation.report.render_report`, a
printable table.  A driver takes every param of its experiment as a
keyword and has no defaults: the params and their defaults live in
:data:`repro.evaluation.harness.REGISTRY`, and the harness, the CLI and
the benchmark files under ``benchmarks/`` run the drivers through it.

Experiments
-----------
* E1 — Table 1: machine specifications and balance parameters.
* E2 — Section 3 composite example: per-step bound sum vs true composite I/O.
* E3 — Theorem 8 / Section 5.2.3: CG vertical and horizontal analysis.
* E4 — Theorem 9 / Section 5.3.3: GMRES analysis over the Krylov dimension m.
* E5 — Theorem 10 / Section 5.4.3: Jacobi dimension thresholds.
* E6 — Matmul / outer-product bounds (Section 3 constants).
* E7 — Bound-machinery validation: LB <= OPT <= UB sandwiches on small CDAGs.
* E8 — Simulated-cluster measurements vs the Theorem 8 and 10 bounds.
* E9 — Balance-condition sweep across algorithms x machines x levels.
* Spill — strategy pebble games on synthetic workloads (the
  ``workload x policy x backend`` axes of the harness grid).

Seeds
-----
E1-E9 are deterministic given their parameters (fixed CDAG builders,
exhaustive/closed-form bounds, simulated cluster).  The only randomized
construction reachable from a driver is the ``forest`` workload of
:func:`experiment_spill_strategies`, which builds
:func:`~repro.pebbling.workloads.component_forest_cdag` from an
**explicit** ``seed`` argument and records it in its rows — the
manifest-driven harness (:mod:`repro.evaluation.harness`) additionally
records the seed of every cell, and
``tests/evaluation/test_harness_seeds.py`` pins that two same-seed runs
produce byte-identical ``metrics.jsonl``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..algorithms.cg import analyze_cg, cg_iteration_cdag
from ..algorithms.composite import naive_step_sum, recompute_friendly_game
from ..algorithms.gmres import analyze_gmres
from ..algorithms.jacobi import analyze_jacobi, bandwidth_bound_dimension_threshold
from ..algorithms.linalg import matmul_cdag
from ..algorithms.reductions import dot_then_axpy_cdag
from ..bounds.analytical import (
    cg_vertical_lower_bound,
    composite_example_io_upper_bound,
    jacobi_io_lower_bound,
    matmul_io_lower_bound,
    outer_product_io,
    stencil_horizontal_upper_bound,
)
from ..bounds.hong_kung import lower_bound_from_largest_subset
from ..bounds.mincut import automated_wavefront_bound
from ..core.builders import (
    butterfly_cdag,
    diamond_cdag,
    grid_stencil_cdag,
    outer_product_cdag,
    reduction_tree_cdag,
)
from ..core.cdag import CDAG
from ..distsim.cluster import SimulatedCluster
from ..machine.catalog import IBM_BGQ, PAPER_MACHINES
from ..machine.spec import MachineSpec
from ..pebbling.optimal import SearchBudgetExceeded, optimal_rbw_io
from ..pebbling.strategies import spill_game_rbw

__all__ = [
    "experiment_table1_machines",
    "experiment_composite_example",
    "experiment_cg_bounds",
    "experiment_gmres_bounds",
    "experiment_jacobi_bounds",
    "experiment_matmul_bounds",
    "experiment_bound_validation",
    "experiment_distsim_parallel",
    "experiment_balance_conditions",
    "experiment_spill_strategies",
]


# ----------------------------------------------------------------------
# E1 — Table 1
# ----------------------------------------------------------------------
def experiment_table1_machines(
    machines: Optional[Sequence[MachineSpec]] = None,
) -> List[Dict[str, object]]:
    """Reproduce Table 1: specifications of the computing systems."""
    machines = list(machines) if machines is not None else list(PAPER_MACHINES)
    return [m.as_table_row() for m in machines]


# ----------------------------------------------------------------------
# E2 — Section 3 composite example
# ----------------------------------------------------------------------
def experiment_composite_example(
    sizes: Sequence[int], s: int
) -> List[Dict[str, object]]:
    """Per-step bound sum vs the true composite I/O (the Section 3 point).

    For each vector size ``N`` the row shows the invalid naive sum of the
    per-step bounds, the paper's ``4N + 1`` upper bound, and the I/O of
    the explicit recomputation-friendly red-blue game (verified move by
    move), demonstrating that the composite I/O is far below the matmul
    step's own lower bound.
    """
    rows: List[Dict[str, object]] = []
    for n in sizes:
        game = recompute_friendly_game(n)
        rows.append(
            {
                "N": n,
                "naive_step_sum": naive_step_sum(n, s),
                "matmul_step_LB": matmul_io_lower_bound(n, s),
                "composite_upper_bound_4N+1": composite_example_io_upper_bound(n),
                "verified_game_io": game.io_count,
                "composite_below_matmul_LB": game.io_count
                < matmul_io_lower_bound(n, s) + 2 * outer_product_io(n) + n * n + 1,
            }
        )
    return rows


# ----------------------------------------------------------------------
# E3 — CG (Theorem 8 + Section 5.2.3)
# ----------------------------------------------------------------------
def experiment_cg_bounds(
    n: int,
    dimensions: int,
    iterations: int,
    small_shape: Tuple[int, ...],
    machines: Optional[Sequence[MachineSpec]] = None,
) -> List[Dict[str, object]]:
    """CG analysis rows: one per machine plus one empirical cross-check row.

    Machine rows reproduce the 0.3 words/FLOP vertical intensity and the
    ``6 N_nodes^{1/3} / (20 n)`` horizontal intensity of Section 5.2.3.
    The final row checks Theorem 8's wavefront reasoning on a small grid:
    the automated min-cut bound on the structural CG CDAG must be at least
    ``2 (2 n^d - S)``.
    """
    machines = list(machines) if machines is not None else list(PAPER_MACHINES)
    rows: List[Dict[str, object]] = []
    for m in machines:
        a = analyze_cg(m, n=n, dimensions=dimensions, iterations=iterations)
        rows.append(
            {
                "machine": m.name,
                "n": n,
                "d": dimensions,
                "LB_vert_per_node": a.vertical_lb_per_node,
                "vertical_intensity": a.vertical_intensity,
                "vertical_balance": m.effective_vertical_balance(),
                "vertically_bound": a.vertical_verdict.bound,
                "UB_horiz_per_node": a.horizontal_ub_per_node,
                "horizontal_intensity": a.horizontal_intensity,
                "horizontal_balance": m.effective_horizontal_balance(),
                "possibly_network_bound": a.horizontal_verdict.bound,
            }
        )
    # Small-instance empirical check of the Theorem 8 wavefront argument.
    small = cg_iteration_cdag(small_shape, 1)
    nd = int(np.prod(small_shape))
    s_small = 2
    wf = automated_wavefront_bound(small, s=s_small)
    rows.append(
        {
            "machine": f"(wavefront check on {small_shape} grid)",
            "n": nd,
            "d": len(small_shape),
            "LB_vert_per_node": wf.value,
            "vertical_intensity": wf.wavefront,
            "vertical_balance": 2 * (2 * nd - s_small),
            "vertically_bound": wf.wavefront >= 2 * nd,
            "UB_horiz_per_node": 0,
            "horizontal_intensity": 0,
            "horizontal_balance": 0,
            "possibly_network_bound": False,
        }
    )
    return rows


# ----------------------------------------------------------------------
# E4 — GMRES (Theorem 9 + Section 5.3.3)
# ----------------------------------------------------------------------
def experiment_gmres_bounds(
    n: int,
    dimensions: int,
    krylov_dimensions: Sequence[int],
    machine: Optional[MachineSpec] = None,
) -> List[Dict[str, object]]:
    """GMRES vertical intensity ``6/(m+20)`` as a function of ``m``.

    Shows the crossover the paper describes: for small ``m`` the intensity
    exceeds the machine balance (memory bound), for large ``m`` the
    quadratic orthogonalisation work dominates and the intensity falls
    below the balance (no decisive verdict without knowing ``m``).
    """
    machine = machine if machine is not None else IBM_BGQ
    rows: List[Dict[str, object]] = []
    for m in krylov_dimensions:
        a = analyze_gmres(machine, n=n, dimensions=dimensions, krylov_iterations=m)
        rows.append(
            {
                "machine": machine.name,
                "m": m,
                "paper_formula_6/(m+20)": 6.0 / (m + 20),
                "vertical_intensity": a.vertical_intensity,
                "vertical_balance": machine.effective_vertical_balance(),
                "vertically_bound": a.vertical_verdict.bound,
                "horizontal_intensity": a.horizontal_intensity,
                "horizontal_balance": machine.effective_horizontal_balance(),
                "possibly_network_bound": a.horizontal_verdict.bound,
            }
        )
    return rows


# ----------------------------------------------------------------------
# E5 — Jacobi (Theorem 10 + Section 5.4.3)
# ----------------------------------------------------------------------
def experiment_jacobi_bounds(
    dimensions: Sequence[int],
    n: int,
    timesteps: int,
    machine: Optional[MachineSpec] = None,
) -> List[Dict[str, object]]:
    """Per-dimension Jacobi vertical requirement vs the machine balance.

    Reproduces the Section 5.4.3 conclusion: the stencil is vertically
    bandwidth bound only above a dimension threshold (the paper quotes
    d <= 4.83 for DRAM<->L2 on BG/Q using a linearised form; the exact
    condition evaluated here yields a threshold of ~10 for the same
    inputs — either way, practical stencils of d <= 3-4 are not bound).
    """
    machine = machine if machine is not None else IBM_BGQ
    s_cache = machine.cache_words
    balance = machine.effective_vertical_balance()
    threshold = bandwidth_bound_dimension_threshold(balance, s_cache)
    rows: List[Dict[str, object]] = []
    for d in dimensions:
        a = analyze_jacobi(machine, n=n, dimensions=d, timesteps=timesteps)
        per_op = a.per_op_vertical_requirement
        rows.append(
            {
                "machine": machine.name,
                "d": d,
                "per_op_requirement": per_op,
                "vertical_balance": balance,
                "vertically_bound": per_op > balance,
                "exact_threshold_d": threshold,
                "paper_threshold_d": 0.21 * np.log2(2 * s_cache),
                "theorem10_LB_per_node": a.vertical_lb_per_node,
                "horizontal_intensity": a.horizontal_intensity,
            }
        )
    return rows


# ----------------------------------------------------------------------
# E6 — Matmul / outer-product constants
# ----------------------------------------------------------------------
def experiment_matmul_bounds(
    sizes: Sequence[int],
    cache_sizes: Sequence[int],
) -> List[Dict[str, object]]:
    """Hong-Kung matmul bound vs measured upper bounds from spill games.

    For each (N, S) the row shows the ``N^3 / (2 sqrt(2S))`` lower bound,
    the Corollary 1 bound computed from the matmul CDAG with the closed
    form ``U(2S) <= 2 S sqrt(2 S)``, and the I/O of an actual RBW spill
    game (an upper bound); the sandwich LB <= UB must hold and the ratio
    indicates tightness.
    """
    rows: List[Dict[str, object]] = []
    for n in sizes:
        cdag = matmul_cdag(n)
        ops = len(cdag.operations)
        for s in cache_sizes:
            lb = matmul_io_lower_bound(n, s)
            u_upper = 2.0 * s * np.sqrt(2.0 * s)
            hk = lower_bound_from_largest_subset(s, ops, u_upper)
            ub = spill_game_rbw(cdag, s).io_count
            rows.append(
                {
                    "N": n,
                    "S": s,
                    "analytical_LB": lb,
                    "corollary1_LB": hk.value,
                    "spill_game_UB": ub,
                    "outer_product_io": outer_product_io(n),
                    "sandwich_ok": hk.value <= ub + 1e-9 and ub >= 0,
                }
            )
    return rows


# ----------------------------------------------------------------------
# E7 — Bound-machinery validation (LB <= OPT <= UB)
# ----------------------------------------------------------------------
def bound_validation_cases(s: int) -> List[Tuple[str, CDAG, int]]:
    """E7's small CDAGs as ``(name, cdag, S)``.

    Every engine needs enough red pebbles to hold a vertex's operands
    plus its result, so ``S`` is ``s`` bumped per CDAG when its fan-in
    demands it (``s=1`` gives each CDAG's smallest feasible ``S``).
    """
    cases: List[Tuple[str, CDAG]] = [
        ("reduction tree (8 leaves)", reduction_tree_cdag(8)),
        ("diamond 4x3", diamond_cdag(4, 3)),
        ("outer product 2x2", outer_product_cdag(2)),
        ("dot-then-axpy n=2", dot_then_axpy_cdag(2)),
        ("butterfly n=4", butterfly_cdag(2)),
        ("stencil 3x(T=2)", grid_stencil_cdag((3,), 2)),
    ]
    out: List[Tuple[str, CDAG, int]] = []
    for name, cdag in cases:
        max_indeg = max(
            (cdag.in_degree(v) for v in cdag.vertices if not cdag.is_input(v)),
            default=0,
        )
        out.append((name, cdag, max(s, max_indeg + 1)))
    return out


def experiment_bound_validation(s: int) -> List[Dict[str, object]]:
    """Sandwich validation on small CDAGs where the optimum is computable.

    For each small CDAG: the Corollary 1 / wavefront lower bounds, the
    exact optimum from exhaustive search, and the heuristic spill-game
    upper bound.  Soundness requires LB <= OPT <= UB on every row.
    """
    rows: List[Dict[str, object]] = []
    for name, cdag, s_case in bound_validation_cases(s):
        ops = len(cdag.operations)
        wf = automated_wavefront_bound(cdag, s=s_case)
        lb = wf.value
        # The exhaustive optimum is exponential; skip gracefully if the
        # state budget is hit (the LB <= UB part of the sandwich is still
        # reported).  Any other error is a bug and must propagate.
        try:
            opt: Optional[int] = optimal_rbw_io(cdag, s_case, max_states=400_000).io
        except SearchBudgetExceeded:
            opt = None
        ub = spill_game_rbw(cdag, s_case, policy="belady").io_count
        sound = (lb <= ub) if opt is None else (lb <= opt <= ub)
        rows.append(
            {
                "cdag": name,
                "operations": ops,
                "S": s_case,
                "wavefront_LB": wf.value,
                "optimal_io": opt if opt is not None else "(skipped)",
                "spill_game_UB": ub,
                "sound": sound,
            }
        )
    return rows


# ----------------------------------------------------------------------
# E8 — Simulated cluster vs parallel bounds
# ----------------------------------------------------------------------
def experiment_distsim_parallel(
    shape: Tuple[int, ...],
    timesteps: int,
    num_nodes: int,
    cache_words: int,
    policies: Sequence[str],
) -> List[Dict[str, object]]:
    """Measured cluster traffic vs the analytical bounds (stencil + CG).

    For each replacement policy the row reports the measured maximum
    per-node vertical and horizontal traffic and the corresponding lower
    bounds (Theorem 10 for the stencil; Theorem 8 for CG; ghost-cell
    formula for the horizontal side).  Measured values must dominate the
    bounds.
    """
    d = len(shape)
    n = shape[0]
    rows: List[Dict[str, object]] = []
    for policy in policies:
        cluster = SimulatedCluster(num_nodes, cache_words, policy=policy)
        st = cluster.run_stencil(shape, timesteps)
        stencil_lb = jacobi_io_lower_bound(
            n, timesteps, cache_words, d, processors=num_nodes
        )
        ghost_ub = stencil_horizontal_upper_bound(n, num_nodes, d, timesteps)
        cg = cluster.run_cg(shape, timesteps)
        cg_lb = cg_vertical_lower_bound(n, timesteps, d, processors=num_nodes)
        rows.append(
            {
                "policy": policy,
                "workload": "jacobi stencil",
                "measured_vertical_max": st.max_vertical,
                "vertical_LB_per_node": stencil_lb,
                "vertical_ok": st.max_vertical >= stencil_lb * 0.999,
                "measured_horizontal_max": st.max_horizontal,
                "horizontal_UB_formula": ghost_ub,
            }
        )
        rows.append(
            {
                "policy": policy,
                "workload": "conjugate gradient",
                "measured_vertical_max": cg.max_vertical,
                "vertical_LB_per_node": cg_lb,
                "vertical_ok": cg.max_vertical >= cg_lb * 0.999,
                "measured_horizontal_max": cg.max_horizontal,
                "horizontal_UB_formula": ghost_ub,
            }
        )
    return rows


# ----------------------------------------------------------------------
# E9 — Balance-condition sweep
# ----------------------------------------------------------------------
def experiment_balance_conditions(
    n: int,
    dimensions: int,
    gmres_m: int,
    jacobi_timesteps: int,
    machines: Optional[Sequence[MachineSpec]] = None,
) -> List[Dict[str, object]]:
    """Which (algorithm, machine) pairs are bandwidth bound at which level.

    The summary table of the paper's evaluation narrative: CG is
    vertically bound everywhere, GMRES depends on the Krylov dimension,
    Jacobi (d <= 3) is not bound, and none of them are network bound.
    """
    machines = list(machines) if machines is not None else list(PAPER_MACHINES)
    rows: List[Dict[str, object]] = []
    for m in machines:
        cg = analyze_cg(m, n=n, dimensions=dimensions, iterations=1)
        gm = analyze_gmres(m, n=n, dimensions=dimensions, krylov_iterations=gmres_m)
        jc = analyze_jacobi(
            m,
            n=n,
            dimensions=min(dimensions, 3),
            timesteps=jacobi_timesteps,
            count_flops=True,
        )
        for label, a in (("CG", cg), (f"GMRES(m={gmres_m})", gm), ("Jacobi", jc)):
            rows.append(
                {
                    "machine": m.name,
                    "algorithm": label,
                    "vertical_intensity": a.vertical_intensity,
                    "vertical_balance": m.effective_vertical_balance(),
                    "vertically_bound": a.vertical_verdict.bound,
                    "horizontal_intensity": a.horizontal_intensity,
                    "horizontal_balance": m.effective_horizontal_balance(),
                    "possibly_network_bound": a.horizontal_verdict.bound,
                }
            )
    return rows


# ----------------------------------------------------------------------
# Spill-strategy games (harness grid axes: workload x policy x backend)
# ----------------------------------------------------------------------
def experiment_spill_strategies(
    workload: str,
    ops: int,
    degree: int,
    chains: int,
    length: int,
    num_red: int,
    components: int,
    component_size: int,
    policy: str,
    backend: str,
    seed: int,
) -> List[Dict[str, object]]:
    """Play one complete spill-strategy game and report its move/I/O row.

    This is the driver behind the harness's spill cells: every strategy
    axis (``policy``, ``backend``) is a first-class parameter, so one
    grid sweeps the whole strategy engine.  The workload is set up by
    :func:`~repro.pebbling.workloads.spill_workload`, as for ``repro
    spill``: ``"star"``, an owner-computes P-RBW hierarchy walk that
    always evicts LRU (its ``"belady"`` row differs only in the label),
    ``"chains"``, LRU-thrashing interleaved chains under ``num_red``
    red pebbles, or ``"forest"``, the only randomized workload, built
    from the explicit ``seed`` (recorded in the row) so identical seeds
    replay the identical game.
    """
    from ..pebbling.sharded import run_spill_game
    from ..pebbling.workloads import spill_workload

    cdag, memory, schedule = spill_workload(
        workload, ops, degree, chains, length, num_red, components,
        component_size, seed,
    )
    record = run_spill_game(
        cdag,
        memory,
        schedule=schedule,
        policy=policy,
        backend=backend,
    )
    summary = record.summary()
    return [
        {
            "workload": workload,
            "policy": policy,
            "backend": backend,
            "seed": seed,
            "num_vertices": cdag.num_vertices(),
            "num_edges": cdag.num_edges(),
            "moves": summary["moves"],
            "io": summary["io"],
            "vertical_io": summary["vertical_io"],
            "horizontal_io": summary["horizontal_io"],
        }
    ]
