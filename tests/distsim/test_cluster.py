"""Unit tests for the simulated cluster that experiment E8 measures."""

import pytest

from repro.bounds import (
    cg_vertical_lower_bound,
    jacobi_io_lower_bound,
    stencil_horizontal_upper_bound,
)
from repro.distsim import BlockPartition, SimulatedCluster, node_grid
from repro.evaluation import REGISTRY, make_spec

WORKLOADS = ["run_stencil", "run_cg"]


class TestSimulatedClusterStencil:
    def test_report_shape(self):
        cluster = SimulatedCluster(num_nodes=4, cache_words=32)
        rep = cluster.run_stencil((12, 12), timesteps=3)
        assert set(rep.horizontal_per_node) == set(range(4))
        assert rep.total_flops > 0

    def test_vertical_traffic_dominates_theorem10(self):
        n, t, s, nodes = 16, 4, 32, 4
        cluster = SimulatedCluster(nodes, s)
        rep = cluster.run_stencil((n, n), t)
        lb = jacobi_io_lower_bound(n, t, s, 2, processors=nodes)
        assert rep.max_vertical >= lb

    def test_horizontal_traffic_bounded_by_ghost_formula(self):
        n, t, nodes = 16, 5, 4
        cluster = SimulatedCluster(nodes, 64)
        rep = cluster.run_stencil((n, n), t)
        ub = stencil_horizontal_upper_bound(n, nodes, 2, t)
        assert rep.max_horizontal <= ub

    def test_belady_never_more_vertical_than_lru(self):
        args = ((16, 16), 3)
        lru = SimulatedCluster(4, 48, policy="lru").run_stencil(*args)
        opt = SimulatedCluster(4, 48, policy="belady").run_stencil(*args)
        assert opt.max_vertical <= lru.max_vertical

    def test_bigger_cache_reduces_vertical_traffic(self):
        small = SimulatedCluster(4, 16).run_stencil((16, 16), 3)
        large = SimulatedCluster(4, 256).run_stencil((16, 16), 3)
        assert large.max_vertical <= small.max_vertical

    def test_intensities_positive(self):
        rep = SimulatedCluster(4, 32).run_stencil((12, 12), 2)
        assert rep.vertical_intensity() > 0
        assert rep.horizontal_intensity() > 0


class TestSimulatedClusterCG:
    def test_vertical_traffic_dominates_theorem8(self):
        n, t, nodes, s = 16, 4, 4, 64
        cluster = SimulatedCluster(nodes, s)
        rep = cluster.run_cg((n, n), t)
        lb = cg_vertical_lower_bound(n, t, 2, processors=nodes)
        assert rep.max_vertical >= lb

    def test_cg_more_vertical_than_stencil_per_iteration(self):
        cluster = SimulatedCluster(4, 64)
        cg = cluster.run_cg((16, 16), 2)
        st = cluster.run_stencil((16, 16), 2)
        assert cg.max_vertical > st.max_vertical

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            SimulatedCluster(0, 16)

    def test_bigger_cache_reduces_vertical_traffic(self):
        small = SimulatedCluster(4, 16).run_cg((16, 16), 3)
        large = SimulatedCluster(4, 256).run_cg((16, 16), 3)
        assert large.max_vertical < small.max_vertical

    def test_belady_never_more_vertical_than_lru(self):
        args = ((16, 16), 3)
        lru = SimulatedCluster(4, 48, policy="lru").run_cg(*args)
        opt = SimulatedCluster(4, 48, policy="belady").run_cg(*args)
        assert opt.max_vertical <= lru.max_vertical


class TestSimulatedClusterAccounting:
    """What both workloads count, whatever the reference stream."""

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_single_node_has_no_horizontal_traffic(self, workload):
        rep = getattr(SimulatedCluster(1, 32), workload)((8, 8), 2)
        assert rep.horizontal_per_node == {0: 0}
        assert rep.max_vertical > 0

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_every_node_of_many_receives_ghost_words(self, workload):
        rep = getattr(SimulatedCluster(4, 32), workload)((8, 8), 2)
        assert sorted(rep.horizontal_per_node) == [0, 1, 2, 3]
        assert all(words > 0 for words in rep.horizontal_per_node.values())

    @pytest.mark.parametrize("workload, expected", [
        # u and u_next: 16 fills each, both written, 16 write-backs each
        ("run_stencil", 4 * 16),
        # p, v, r and x: 16 fills each, all four written
        ("run_cg", 8 * 16),
    ])
    def test_cache_holding_the_working_set_pays_compulsory_traffic(
        self, workload, expected
    ):
        """With every word resident, the only vertical traffic is one
        fill per word touched and one write-back per word written."""
        rep = getattr(SimulatedCluster(1, 1000), workload)((4, 4), 2)
        assert rep.vertical_per_node == {0: expected}

    @pytest.mark.parametrize("workload, flops_per_point", [
        ("run_stencil", 2 * (2 * 2 + 1)),
        ("run_cg", 4 * 2 + 14),
    ])
    def test_flops_partition_the_work(self, workload, flops_per_point):
        """Every node owns a non-empty block, and the per-node FLOPs add
        up to the whole grid's, however many nodes share it."""
        shape, steps = (10, 9), 2
        for nodes in (1, 2, 3, 4):
            rep = getattr(SimulatedCluster(nodes, 32), workload)(shape, steps)
            assert sorted(rep.flops_per_node) == list(range(nodes))
            assert all(f > 0 for f in rep.flops_per_node.values())
            assert rep.total_flops == flops_per_point * 90 * steps

    def test_horizontal_traffic_is_the_ghost_shell_per_sweep(self):
        shape, steps = (10, 9), 3
        part = BlockPartition(shape, node_grid(3, 2))
        rep = SimulatedCluster(3, 32).run_stencil(shape, steps)
        assert rep.horizontal_per_node == {
            part.node_index(n): part.ghost_volume(n) * steps
            for n in part.node_ids()
        }

    def test_unknown_policy_is_rejected(self):
        with pytest.raises(ValueError):
            SimulatedCluster(4, 32, policy="fifo").run_stencil((8, 8), 1)


class TestExperimentE8Pinned:
    """E8 at the default grid's cell (shape 12x12, 3 timesteps, 4 nodes,
    32-word caches): the traffic counts themselves, not just the
    inequalities against the bounds."""

    def test_rows_match_recorded_traffic(self):
        spec = make_spec("e8")
        rows = REGISTRY["e8"].run(spec.params, spec.seed)
        measured = [
            (r["policy"], r["workload"], r["measured_vertical_max"],
             r["measured_horizontal_max"])
            for r in rows
        ]
        assert measured == [
            ("lru", "jacobi stencil", 360, 39),
            ("lru", "conjugate gradient", 1656, 66),
            ("belady", "jacobi stencil", 302, 39),
            ("belady", "conjugate gradient", 1286, 66),
        ]
