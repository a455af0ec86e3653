"""repro — data movement complexity of computational DAGs for parallel execution.

A production-quality reproduction of

    V. Elango, F. Rastello, L.-N. Pouchet, J. Ramanujam, P. Sadayappan.
    "On Characterizing the Data Movement Complexity of Computational DAGs
    for Parallel Execution." SPAA 2014 / Inria RR-8522.

The library provides:

* :mod:`repro.core` — the CDAG model, structural analyses (dominators,
  In/Out sets, convex cuts, wavefronts), S-partitions and schedules;
* :mod:`repro.pebbling` — red-blue, Red-Blue-White and parallel RBW pebble
  game engines, upper-bound strategies and an exact optimal-game search;
* :mod:`repro.bounds` — the lower-bound machinery: 2S-partitioning
  (Hong-Kung), min-cut/wavefront bounds, decomposition/tagging rules, and
  the parallel vertical/horizontal bounds of Theorems 5-7;
* :mod:`repro.machine` — machine-balance models and the Table 1 catalog;
* :mod:`repro.algorithms` — CDAG constructors and closed-form bounds for
  the algorithms analysed in the paper (matmul, composite example, CG,
  GMRES, Jacobi, reductions);
* :mod:`repro.distsim` — a simulated distributed-memory machine measuring
  vertical (cache-miss) and horizontal (ghost-cell) traffic;
* :mod:`repro.evaluation` — drivers that regenerate every table and
  analysis of the paper's evaluation section.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
