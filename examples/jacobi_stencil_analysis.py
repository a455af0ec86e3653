#!/usr/bin/env python
"""Jacobi stencils: Theorem 10 bounds, tiling, and the dimension threshold.

The script reproduces the Section 5.4 story end to end:

1. builds the iterated-stencil CDAG and plays two schedules as spill
   games — sweep-by-sweep (streaming) and a space-time tiled schedule —
   against the Theorem 10 lower bound;
2. runs the block-partitioned stencil on the simulated cluster and compares
   measured vertical/horizontal traffic against the bounds;
3. prints the per-dimension bandwidth-bound verdicts on IBM BG/Q (the
   paper's conclusion: only impractically high-dimensional stencils are
   memory-bandwidth bound).

Run with::

    python examples/jacobi_stencil_analysis.py
"""

from repro.algorithms import analyze_jacobi
from repro.bounds import jacobi_io_lower_bound, stencil_horizontal_upper_bound
from repro.core import grid_stencil_cdag, priority_schedule, topological_schedule
from repro.distsim import SimulatedCluster
from repro.evaluation import format_table
from repro.machine import IBM_BGQ
from repro.pebbling import spill_game_rbw


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Schedules vs the Theorem 10 bound on a small 1-D space-time CDAG.
    # ------------------------------------------------------------------
    n, timesteps, s = 24, 6, 8
    cdag = grid_stencil_cdag((n,), timesteps, neighborhood="star")
    lower = jacobi_io_lower_bound(n, timesteps, s, dimensions=1)

    sweep_order = topological_schedule(cdag)          # row by row (streaming)
    sweep_io = spill_game_rbw(cdag, s, schedule=sweep_order).io_count

    tile_width = s  # spatial tile sized to the fast memory
    tiled_order = priority_schedule(
        cdag, key=lambda v: (v[2] // tile_width, v[1], v[2])
    )
    tiled_io = spill_game_rbw(cdag, s, schedule=tiled_order).io_count

    print("1-D stencil, n=24, T=6, S=8")
    print(f"  Theorem 10 lower bound      : {lower:8.1f}")
    print(f"  measured, tiled schedule    : {tiled_io:8d}")
    print(f"  measured, sweep-by-sweep    : {sweep_io:8d}")
    print("  (both games are legal, so both counts are upper bounds; no "
          "schedule moves less than the bound)")

    # ------------------------------------------------------------------
    # 2. Simulated cluster measurement for a 2-D stencil.
    # ------------------------------------------------------------------
    shape, t, nodes, cache = (32, 32), 8, 4, 128
    cluster = SimulatedCluster(nodes, cache, policy="lru")
    report = cluster.run_stencil(shape, t)
    lb = jacobi_io_lower_bound(shape[0], t, cache, 2, processors=nodes)
    ub_horiz = stencil_horizontal_upper_bound(shape[0], nodes, 2, t)
    print(f"\n2-D stencil on a simulated {nodes}-node cluster "
          f"(cache {cache} words/node):")
    print(f"  measured max vertical traffic / node : {report.max_vertical}")
    print(f"  Theorem 10 lower bound / node        : {lb:.1f}")
    print(f"  measured max horizontal traffic/node : {report.max_horizontal}")
    print(f"  ghost-cell formula ((B+2)^d - B^d)*T : {ub_horiz:.1f}")

    # ------------------------------------------------------------------
    # 3. The dimension threshold on IBM BG/Q (Section 5.4.3).
    # ------------------------------------------------------------------
    rows = []
    for d in (1, 2, 3, 4, 5, 8, 11):
        a = analyze_jacobi(IBM_BGQ, n=64, dimensions=d, timesteps=16)
        rows.append(
            {
                "dimension d": d,
                "required words/op 1/(4(2S)^(1/d))": a.per_op_vertical_requirement,
                "BG/Q vertical balance": IBM_BGQ.effective_vertical_balance(),
                "bandwidth bound": a.per_op_vertical_requirement
                > IBM_BGQ.effective_vertical_balance(),
            }
        )
    print()
    print(format_table(rows))
    print("\nConclusion (paper, Section 5.4.3): the DRAM<->L2 link constrains "
          "Jacobi only for stencil\ndimensions far beyond anything used in "
          "practice; 2-D/3-D stencils are compute- not\nbandwidth-limited "
          "once tiled.")


if __name__ == "__main__":
    main()
