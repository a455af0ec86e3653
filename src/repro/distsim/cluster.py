"""Simulated distributed-memory execution of the paper's workloads.

:class:`SimulatedCluster` models a cluster of ``N`` nodes, each with a
last-level cache of ``S`` words in front of an unbounded node memory, and
executes block-partitioned iterative workloads (stencil sweeps, CG
iterations) while counting:

* **horizontal traffic** — ghost-shell words received per node per sweep
  (plus the allreduce contributions of the dot products for CG);
* **vertical traffic** — DRAM<->cache words per node, measured by running
  the node's memory reference stream through
  :class:`~repro.distsim.cache.CacheSimulator`.

These measurements are *upper bounds achieved by a concrete schedule* and
are compared against the paper's lower bounds in experiment E8.  The
reference streams deliberately mirror a straightforward (untiled)
implementation — one pass over the block per vector operation — because
that is the behaviour the paper's balance analysis assumes when it argues
CG is memory-bandwidth bound.  The tiled stencil schedule of Theorem
10's tightness argument is not modelled here.

Usage example (doctest), E8's grid cell: four nodes with 32-word caches
sweep a 12x12 grid three times::

    >>> from repro.distsim import SimulatedCluster
    >>> rep = SimulatedCluster(4, 32).run_stencil((12, 12), 3)
    >>> rep.max_vertical, rep.max_horizontal
    (360, 39)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from .cache import simulate_trace
from .partitioning import BlockPartition, node_grid

__all__ = ["ClusterTrafficReport", "SimulatedCluster"]


@dataclass
class ClusterTrafficReport:
    """Traffic measured by a simulated run.

    All values are in words.  Per-node dictionaries are keyed by the
    node's linear rank.
    """

    horizontal_per_node: Dict[int, int] = field(default_factory=dict)
    vertical_per_node: Dict[int, int] = field(default_factory=dict)
    flops_per_node: Dict[int, int] = field(default_factory=dict)

    @property
    def max_horizontal(self) -> int:
        return max(self.horizontal_per_node.values(), default=0)

    @property
    def max_vertical(self) -> int:
        return max(self.vertical_per_node.values(), default=0)

    @property
    def total_flops(self) -> int:
        return sum(self.flops_per_node.values())

    def vertical_intensity(self) -> float:
        """``max_vertical * N_nodes / total_flops`` (words per operation),
        directly comparable with the left side of condition (9)."""
        if not self.flops_per_node or self.total_flops == 0:
            return 0.0
        return self.max_vertical * len(self.vertical_per_node) / self.total_flops

    def horizontal_intensity(self) -> float:
        """``max_horizontal * N_nodes / total_flops``."""
        if not self.flops_per_node or self.total_flops == 0:
            return 0.0
        return self.max_horizontal * len(self.horizontal_per_node) / self.total_flops


class SimulatedCluster:
    """A cluster of nodes with per-node caches executing grid workloads.

    Parameters
    ----------
    num_nodes:
        Number of nodes (each one cache + one unbounded memory).
    cache_words:
        Last-level cache capacity per node, in words.
    policy:
        Cache replacement policy (``"lru"`` or ``"belady"``).
    """

    def __init__(
        self, num_nodes: int, cache_words: int, policy: str = "lru"
    ) -> None:
        if num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        self.num_nodes = num_nodes
        self.cache_words = cache_words
        self.policy = policy

    # ------------------------------------------------------------------
    def _partition(self, shape: Sequence[int]) -> BlockPartition:
        return BlockPartition(tuple(shape), node_grid(self.num_nodes, len(shape)))

    # ------------------------------------------------------------------
    def run_stencil(
        self, shape: Sequence[int], timesteps: int
    ) -> ClusterTrafficReport:
        """Simulate ``timesteps`` Jacobi sweeps over a grid of ``shape``.

        Per sweep, each node receives its ghost shell (horizontal), then
        streams its block: for every owned point it reads the point's
        neighbourhood from the ``u`` array and writes the point in the
        ``u_next`` array (double buffering).  The reference stream is
        replayed through the node's cache to obtain vertical traffic.
        """
        part = self._partition(shape)
        report = ClusterTrafficReport()
        flops_per_point = 2 * (2 * len(tuple(shape)) + 1)
        for node in part.node_ids():
            rank = part.node_index(node)
            ghost = part.ghost_volume(node)
            block = list(part.block_points(node))
            trace: List[Tuple[Tuple, bool]] = []
            for t in range(timesteps):
                for p in block:
                    # read the centre and its axis neighbours from array t%2
                    trace.append((("u", t % 2) + p, False))
                    for axis in range(part.ndim):
                        for sign in (-1, 1):
                            q = list(p)
                            q[axis] += sign
                            if 0 <= q[axis] < shape[axis]:
                                trace.append((("u", t % 2) + tuple(q), False))
                    trace.append((("u", (t + 1) % 2) + p, True))
            report.horizontal_per_node[rank] = ghost * timesteps
            report.vertical_per_node[rank] = simulate_trace(
                trace, self.cache_words, policy=self.policy
            ).vertical_traffic
            report.flops_per_node[rank] = flops_per_point * len(block) * timesteps
        return report

    # ------------------------------------------------------------------
    def run_cg(
        self, shape: Sequence[int], iterations: int
    ) -> ClusterTrafficReport:
        """Simulate ``iterations`` CG iterations on the implicit heat system.

        Each node holds its block of the vectors ``x, r, p, v``; per
        iteration it

        1. receives the ghost shell of ``p`` (horizontal) and streams the
           SpMV ``v = A p`` over its block,
        2. streams the two dot products ``<p, v>`` and ``<r, r>`` (their
           scalar results travel over the network: ``2 * (N - 1)`` words
           counted to the reducing node, a negligible allreduce term),
        3. streams the three SAXPYs.

        The per-node reference stream is replayed through the node cache
        for the vertical count.  FLOPs are counted as ``(4d + 14)`` per
        grid point and iteration: the (2d+1)-point SpMV costs ``2(2d+1)``,
        and each of the three dot products and three SAXPYs costs ``2``.
        """
        part = self._partition(shape)
        report = ClusterTrafficReport()
        d = len(tuple(shape))
        flops_per_point = (4 * d + 14)
        for node in part.node_ids():
            rank = part.node_index(node)
            ghost = part.ghost_volume(node)
            block = list(part.block_points(node))
            trace: List[Tuple[Tuple, bool]] = []
            for t in range(iterations):
                # SpMV: v = A p (read p neighbourhood, write v)
                for p in block:
                    trace.append((("p",) + p, False))
                    for axis in range(d):
                        for sign in (-1, 1):
                            q = list(p)
                            q[axis] += sign
                            if 0 <= q[axis] < shape[axis]:
                                trace.append((("p",) + tuple(q), False))
                    trace.append((("v",) + p, True))
                # dot products <p, v> and <r, r>
                for p in block:
                    trace.append((("p",) + p, False))
                    trace.append((("v",) + p, False))
                for p in block:
                    trace.append((("r",) + p, False))
                    trace.append((("r",) + p, False))
                # x += a p ; r_new = r - a v ; p = r_new + g p
                for p in block:
                    trace.append((("x",) + p, False))
                    trace.append((("p",) + p, False))
                    trace.append((("x",) + p, True))
                for p in block:
                    trace.append((("r",) + p, False))
                    trace.append((("v",) + p, False))
                    trace.append((("r",) + p, True))
                for p in block:
                    trace.append((("r",) + p, False))
                    trace.append((("p",) + p, False))
                    trace.append((("p",) + p, True))
            allreduce_words = 3 * max(0, self.num_nodes - 1)
            report.horizontal_per_node[rank] = (ghost + allreduce_words) * iterations
            report.vertical_per_node[rank] = simulate_trace(
                trace, self.cache_words, policy=self.policy
            ).vertical_traffic
            report.flops_per_node[rank] = flops_per_point * len(block) * iterations
        return report
