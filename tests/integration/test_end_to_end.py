"""Integration tests spanning multiple packages.

These exercise the main end-to-end paths a user of the library follows:
trace a real solver, derive bounds from the resulting CDAG, compare
against pebble games and against the simulated cluster, and evaluate the
machine-balance verdicts of the paper.
"""

import sys
from pathlib import Path

import pytest

from repro.algorithms import (
    analyze_cg,
    analyze_gmres,
    analyze_jacobi,
    cg_iteration_cdag,
)
from repro.bounds import (
    automated_wavefront_bound,
    cg_vertical_lower_bound,
    jacobi_io_lower_bound,
    sum_of_bounds,
)
from repro.core import grid_stencil_cdag, partition_from_game
from repro.core.partition import check_rbw_partition
from repro.distsim import BlockPartition, SimulatedCluster, node_grid
from repro.machine import CRAY_XT5, IBM_BGQ
from repro.pebbling import (
    MemoryHierarchy,
    parallel_spill_game,
    spill_game_rbw,
)

# The traced CG builder is one of the algorithm test oracles.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "algorithms"))
from reference_trace import Grid, traced_cg_cdag  # noqa: E402


class TestTraceToBoundsPipeline:
    def test_traced_cg_bound_sandwich(self):
        """Trace real CG, compute a Lemma-2 lower bound and a spill-game
        upper bound on its CDAG, and check the sandwich."""
        grid = Grid(shape=(2, 2))
        _, cdag = traced_cg_cdag(grid, iterations=1)
        s = 6
        lb = automated_wavefront_bound(cdag, s=s).value
        ub = spill_game_rbw(cdag, num_red=max(s, 7)).io_count
        assert 0 <= lb <= ub

    def test_structural_and_traced_cg_have_matching_wavefront_scale(self):
        grid = Grid(shape=(2, 2))
        nd = grid.num_points
        _, traced = traced_cg_cdag(grid, iterations=1)
        structural = cg_iteration_cdag(grid.shape, 1)
        wt = automated_wavefront_bound(traced, s=0).wavefront
        ws = automated_wavefront_bound(structural, s=0).wavefront
        assert wt >= 2 * nd and ws >= 2 * nd

    def test_theorem1_machinery_on_traced_cdag(self):
        grid = Grid(shape=(2, 2))
        _, cdag = traced_cg_cdag(grid, iterations=1)
        s = 7
        record = spill_game_rbw(cdag, num_red=s)
        part = partition_from_game(cdag, record.moves, s)
        assert check_rbw_partition(cdag, part) == []
        assert record.io_count >= s * (part.h - 1)


class TestStencilPipelines:
    def test_jacobi_cdag_parallel_game_and_bound(self):
        shape, t = (4, 4), 2
        cdag = grid_stencil_cdag(shape, t)
        hierarchy = MemoryHierarchy.cluster(
            nodes=2, cores_per_node=2, registers_per_core=8, cache_size=24
        )
        record = parallel_spill_game(cdag, hierarchy)
        # the vertical traffic at the node memories dominates the
        # Theorem-10 bound evaluated with the cache capacity
        lb = jacobi_io_lower_bound(shape[0], t, 24, 2,
                                   processors=hierarchy.num_nodes)
        assert record.max_vertical_io_at_level(3) + record.io_count >= lb

    def test_cluster_ghost_charge_covers_the_parallel_game(self):
        """On one block partition, the rule-checked P-RBW game's remote
        traffic at each node (its horizontal I/O less the loads of its
        own inputs) never exceeds the cluster's ghost-shell charge: the
        cluster's horizontal count is an upper bound a legal game meets."""
        shape, t, nodes, cache = (8, 8), 2, 4, 48
        cluster_rep = SimulatedCluster(nodes, cache).run_stencil(shape, t)
        cdag = grid_stencil_cdag(shape, t)
        part = BlockPartition(shape, node_grid(nodes, 2))
        hierarchy = MemoryHierarchy.cluster(
            nodes=nodes, cores_per_node=1, registers_per_core=8,
            cache_size=cache,
        )
        record = parallel_spill_game(cdag, hierarchy, assignment={
            v: part.node_index(part.owner(v[2:])) for v in cdag.vertices
        })
        for node in part.node_ids():
            rank = part.node_index(node)
            remote = record.horizontal_io[rank] - part.block_size(node)
            assert 0 < remote <= cluster_rep.horizontal_per_node[rank]
        assert cluster_rep.max_vertical > 0
        assert record.max_vertical_io_at_level(2) > 0

    def test_decomposition_of_stencil_over_timesteps(self):
        # Theorem 2: summing per-timestep bounds is a valid bound for the
        # whole CDAG; check it stays below an actual game's I/O.
        shape, t, s = (6,), 3, 4
        cdag = grid_stencil_cdag(shape, t)
        per_step_bounds = []
        for step in range(1, t + 1):
            verts = [v for v in cdag.vertices if v[1] == step]
            sub = cdag.induced_subgraph(verts)
            per_step_bounds.append(
                (f"t={step}", automated_wavefront_bound(sub, s=s).value)
            )
        total = sum_of_bounds(per_step_bounds).total
        ub = spill_game_rbw(cdag, num_red=s).io_count
        assert total <= ub


class TestSolverToAnalysisPipeline:
    def test_paper_narrative_across_machines(self):
        for machine in (IBM_BGQ, CRAY_XT5):
            cg = analyze_cg(machine)
            gmres10 = analyze_gmres(machine, krylov_iterations=10)
            jacobi3 = analyze_jacobi(machine, dimensions=3, count_flops=True)
            assert cg.vertical_verdict.bound
            assert gmres10.vertical_verdict.bound
            assert not jacobi3.vertical_verdict.bound
            assert not cg.horizontal_verdict.bound
            assert not gmres10.horizontal_verdict.bound

    def test_cg_lower_bound_scales_with_grid_and_iterations(self):
        small = cg_vertical_lower_bound(10, 1, 3)
        larger_grid = cg_vertical_lower_bound(20, 1, 3)
        more_iters = cg_vertical_lower_bound(10, 4, 3)
        assert larger_grid == pytest.approx(8 * small)
        assert more_iters == pytest.approx(4 * small)
