#!/usr/bin/env python
"""GMRES: Krylov-dimension sweep of the Section 5.3 analysis.

Checks Theorem 9's wavefront on the CDAG of two Arnoldi iterations, then
sweeps the paper's vertical-intensity formula ``6/(m+20)`` against the
Table 1 machine balances to show where the memory-bound / undetermined
crossover falls.

Run with::

    python examples/gmres_krylov_analysis.py
"""

from repro.algorithms import analyze_gmres, gmres_iteration_cdag
from repro.bounds import automated_wavefront_bound
from repro.evaluation import format_table
from repro.machine import CRAY_XT5, IBM_BGQ


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Theorem 9's wavefront on the Arnoldi CDAG of a 2x2 grid.
    # ------------------------------------------------------------------
    shape = (2, 2)
    cdag = gmres_iteration_cdag(shape, krylov_iterations=2)
    bound = automated_wavefront_bound(cdag, s=0)
    print(f"GMRES CDAG: {cdag.num_vertices()} vertices, largest "
          f"wavefront {bound.wavefront} (Theorem 9 predicts >= "
          f"{2 * shape[0] * shape[1]})")

    # ------------------------------------------------------------------
    # 2. The m-sweep of Section 5.3.3 on both Table 1 machines.
    # ------------------------------------------------------------------
    rows = []
    for m in (5, 10, 20, 50, 100, 200):
        for machine in (IBM_BGQ, CRAY_XT5):
            a = analyze_gmres(machine, n=1000, dimensions=3, krylov_iterations=m)
            rows.append(
                {
                    "m": m,
                    "machine": machine.name,
                    "6/(m+20)": 6.0 / (m + 20),
                    "vertical balance": machine.effective_vertical_balance(),
                    "memory bound": a.vertical_verdict.bound,
                    "horizontal intensity": a.horizontal_intensity,
                    "network bound possible": a.horizontal_verdict.bound,
                }
            )
    print()
    print(format_table(rows))
    print("\nConclusion (paper, Section 5.3.3): for small Krylov dimensions "
          "GMRES is memory-bandwidth\nbound like CG; as m grows the "
          "quadratic orthogonalisation work dominates and no decisive\n"
          "verdict is possible without knowing the convergence behaviour. "
          "The network is never the\nbottleneck.")


if __name__ == "__main__":
    main()
