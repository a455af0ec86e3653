"""Unit tests for the exhaustive optimal RBW game search."""

import pytest

from repro.bounds import automated_wavefront_bound
from repro.core import (
    CDAG,
    chain_cdag,
    diamond_cdag,
    grid_stencil_cdag,
    outer_product_cdag,
    reduction_tree_cdag,
)
from repro.pebbling import (
    GameError,
    SearchBudgetExceeded,
    optimal_rbw_io,
    spill_game_rbw,
)


class TestExactOptima:
    def test_chain_optimum_is_two(self):
        res = optimal_rbw_io(chain_cdag(4), num_red=2)
        assert res.io == 2

    def test_single_vertex_chain(self):
        res = optimal_rbw_io(chain_cdag(1), num_red=2)
        assert res.io == 2  # one load + one store

    def test_reduction_tree_optimum_equals_leaves_plus_root(self):
        # every leaf must be loaded once, the root stored once; with S = 5
        # (two leaves + the new node + one held root per completed level)
        # the 8-leaf tree can be reduced without any spills.
        res = optimal_rbw_io(reduction_tree_cdag(8), num_red=5)
        assert res.io == 9
        # one pebble less forces spills
        assert optimal_rbw_io(reduction_tree_cdag(8), num_red=4).io > 9

    def test_outer_product_optimum_matches_formula(self):
        n = 2
        res = optimal_rbw_io(outer_product_cdag(n), num_red=4)
        assert res.io == 2 * n + n * n

    def test_fan_in_two_sources(self):
        c = CDAG(
            edges=[("a", "c"), ("b", "c")], inputs=["a", "b"], outputs=["c"]
        )
        res = optimal_rbw_io(c, num_red=3)
        assert res.io == 3  # two loads + one store

    def test_untagged_source_costs_nothing_to_produce(self):
        c = CDAG(edges=[("gen", "out")], inputs=[], outputs=["out"])
        res = optimal_rbw_io(c, num_red=2)
        assert res.io == 1  # only the output store


class TestOptimalityAgainstHeuristics:
    @pytest.mark.parametrize("num_red", [3, 4, 6])
    def test_optimum_never_exceeds_spill_game(self, num_red):
        cdag = reduction_tree_cdag(6)
        opt = optimal_rbw_io(cdag, num_red=num_red).io
        heuristic = spill_game_rbw(cdag, num_red=num_red).io_count
        assert opt <= heuristic

    def test_spills_forced_by_tiny_memory(self):
        # with the bare minimum of red pebbles the tree needs extra I/O
        # compared to the no-spill case
        cdag = reduction_tree_cdag(8)
        tight = optimal_rbw_io(cdag, num_red=3).io
        roomy = optimal_rbw_io(cdag, num_red=8).io
        assert roomy == 9
        assert tight >= roomy

    def test_monotone_in_memory(self):
        cdag = reduction_tree_cdag(6)
        ios = [optimal_rbw_io(cdag, num_red=s).io for s in (3, 4, 8)]
        assert ios == sorted(ios, reverse=True)


class TestReach:
    @pytest.mark.parametrize(
        "cdag", [diamond_cdag(5, 4), grid_stencil_cdag((5,), 3)],
        ids=["diamond_5x4", "stencil_5_T3"],
    )
    def test_twenty_vertex_cdag_within_e7_budget(self, cdag):
        assert cdag.num_vertices() == 20
        res = optimal_rbw_io(cdag, num_red=4, max_states=400_000)
        lb = automated_wavefront_bound(cdag, s=4).value
        ub = spill_game_rbw(cdag, num_red=4, policy="belady").io_count
        assert lb <= res.io <= ub


class TestGuards:
    def test_insufficient_pebbles(self):
        with pytest.raises(GameError):
            optimal_rbw_io(reduction_tree_cdag(4), num_red=2)

    def test_invalid_pebble_count(self):
        with pytest.raises(ValueError):
            optimal_rbw_io(chain_cdag(2), num_red=0)

    def test_budget_exceeded(self):
        with pytest.raises(SearchBudgetExceeded):
            optimal_rbw_io(outer_product_cdag(3), num_red=4, max_states=50)

    def test_result_metadata(self):
        res = optimal_rbw_io(chain_cdag(3), num_red=2)
        assert res.num_red == 2
        assert res.states_expanded > 0
