"""Simulated distributed-memory machine: measured upper bounds on traffic.

* :mod:`repro.distsim.cache` — LRU/Belady cache simulation for vertical
  (DRAM<->cache) traffic;
* :mod:`repro.distsim.partitioning` — block partitioning and ghost-shell
  geometry for horizontal (inter-node) traffic;
* :mod:`repro.distsim.cluster` — workload-level simulation (stencil
  sweeps, CG iterations) over a cluster of cached nodes, which
  experiment E8 compares against the parallel lower bounds.
"""

from .cache import CacheSimulator, CacheStats, simulate_trace
from .cluster import ClusterTrafficReport, SimulatedCluster
from .partitioning import BlockPartition, node_grid

__all__ = [
    "CacheSimulator",
    "CacheStats",
    "simulate_trace",
    "ClusterTrafficReport",
    "SimulatedCluster",
    "BlockPartition",
    "node_grid",
]
