"""Unit tests for the structured CDAG builders."""

import pytest

from repro.core import (
    broadcast_tree_cdag,
    butterfly_cdag,
    chain_cdag,
    dense_layer_cdag,
    diamond_cdag,
    grid_stencil_cdag,
    independent_chains_cdag,
    outer_product_cdag,
    pyramid_cdag,
    reduction_tree_cdag,
)
from repro.pebbling.workloads import component_forest_cdag, star_spill_cdag

import reference_builders as reference


class TestChains:
    def test_chain_sizes(self):
        c = chain_cdag(7)
        assert c.num_vertices() == 8
        assert c.num_edges() == 7
        assert c.depth() == 8

    def test_chain_invalid_length(self):
        with pytest.raises(ValueError):
            chain_cdag(0)

    def test_independent_chains(self):
        c = independent_chains_cdag(3, 4)
        assert c.num_vertices() == 3 * 5
        assert c.num_edges() == 3 * 4
        assert len(c.inputs) == 3
        assert len(c.outputs) == 3
        # no edges between chains
        for u, v in c.edges():
            assert u[1] == v[1]


class TestTrees:
    def test_reduction_tree_binary(self):
        c = reduction_tree_cdag(8)
        assert len(c.inputs) == 8
        assert len(c.outputs) == 1
        # binary tree over 8 leaves: 7 internal nodes
        assert c.num_vertices() == 15

    def test_reduction_tree_arbitrary_arity(self):
        c = reduction_tree_cdag(9, arity=3)
        assert len(c.inputs) == 9
        assert len(c.outputs) == 1
        root = next(iter(c.outputs))
        assert c.in_degree(root) <= 3

    def test_reduction_tree_non_power(self):
        c = reduction_tree_cdag(5)
        assert len(c.inputs) == 5
        assert len(c.outputs) == 1
        c.validate(hong_kung=True)

    def test_reduction_tree_single_leaf(self):
        c = reduction_tree_cdag(1)
        assert c.num_vertices() == 1

    def test_broadcast_tree_outputs(self):
        c = broadcast_tree_cdag(5)
        assert len(c.inputs) == 1
        assert len(c.outputs) == 5

    def test_invalid_arity(self):
        with pytest.raises(ValueError):
            reduction_tree_cdag(4, arity=1)
        for arity in (0, 1):  # would never reach 4 leaves
            with pytest.raises(ValueError, match="arity"):
                broadcast_tree_cdag(4, arity=arity)


class TestGrids:
    def test_diamond_shape(self):
        c = diamond_cdag(5, 3)
        assert c.num_vertices() == 15
        assert len(c.inputs) == 5
        assert len(c.outputs) == 5
        assert c.depth() == 3

    def test_diamond_interior_in_degree(self):
        c = diamond_cdag(5, 2)
        assert c.in_degree(("dmd", 1, 2)) == 3
        assert c.in_degree(("dmd", 1, 0)) == 2  # boundary clamp

    def test_grid_stencil_star_2d(self):
        c = grid_stencil_cdag((3, 3), 2, neighborhood="star")
        assert c.num_vertices() == 9 * 3
        centre = ("st", 1, 1, 1)
        assert c.in_degree(centre) == 5

    def test_grid_stencil_box_2d(self):
        c = grid_stencil_cdag((3, 3), 1, neighborhood="box")
        centre = ("st", 1, 1, 1)
        assert c.in_degree(centre) == 9

    def test_grid_stencil_invalid_neighborhood(self):
        with pytest.raises(ValueError):
            grid_stencil_cdag((3,), 1, neighborhood="weird")

    def test_grid_stencil_3d(self):
        c = grid_stencil_cdag((2, 2, 2), 1, neighborhood="star")
        assert c.num_vertices() == 8 * 2
        assert len(c.inputs) == 8


class TestButterflyAndPyramid:
    def test_butterfly_structure(self):
        c = butterfly_cdag(3)
        n = 8
        assert c.num_vertices() == n * 4
        assert len(c.inputs) == n
        assert len(c.outputs) == n
        # every non-input vertex has exactly 2 predecessors
        for v in c.operations:
            assert c.in_degree(v) == 2

    def test_butterfly_invalid(self):
        with pytest.raises(ValueError):
            butterfly_cdag(0)

    def test_pyramid_structure(self):
        c = pyramid_cdag(4)
        assert len(c.inputs) == 4
        assert len(c.outputs) == 1
        assert c.num_vertices() == 4 + 3 + 2 + 1


class TestOuterAndDense:
    def test_outer_product_counts(self):
        c = outer_product_cdag(4)
        assert len(c.inputs) == 8
        assert len(c.outputs) == 16
        assert c.num_vertices() == 8 + 16
        for v in c.outputs:
            assert c.in_degree(v) == 2

    def test_dense_layer(self):
        c = dense_layer_cdag(3, 5)
        assert c.num_edges() == 15
        assert len(c.inputs) == 3
        assert len(c.outputs) == 5

    @pytest.mark.parametrize("sizes", [(0, 3), (3, 0), (0, 0), (-3, 2)])
    def test_dense_layer_invalid(self, sizes):
        with pytest.raises(ValueError, match="num_inputs and num_outputs"):
            dense_layer_cdag(*sizes)


@pytest.mark.parametrize(
    "cdag",
    [
        chain_cdag(4),
        reduction_tree_cdag(6),
        diamond_cdag(4, 3),
        grid_stencil_cdag((3, 3), 2),
        butterfly_cdag(2),
        pyramid_cdag(4),
        outer_product_cdag(3),
        independent_chains_cdag(2, 3),
        dense_layer_cdag(2, 2),
        broadcast_tree_cdag(4),
    ],
    ids=lambda c: c.name,
)
def test_all_builders_produce_valid_hong_kung_cdags(cdag):
    """Every builder satisfies the Hong-Kung tagging convention."""
    cdag.validate(hong_kung=True)
    assert cdag.is_acyclic()


@pytest.mark.parametrize("neighborhood", ["star", "box"])
@pytest.mark.parametrize("shape", [(5,), (7,), (3, 4), (4, 4), (2, 3, 3)],
                         ids=str)
@pytest.mark.parametrize("timesteps", [1, 3])
def test_grid_stencil_matches_the_per_step_loop(shape, timesteps,
                                                neighborhood):
    """Neighbours found once per point give the CDAG that checking every
    (point, step, offset) gave: same vertex order, same predecessor and
    successor order, same tags."""
    reference.assert_same_cdag(
        grid_stencil_cdag(shape, timesteps, neighborhood),
        reference.grid_stencil_cdag(shape, timesteps, neighborhood),
    )


@pytest.mark.parametrize("size", [1, 2, 3, 16, 24, 40])
def test_component_forest_matches_scalar_draws(size):
    """One vector draw per component consumes the generator's stream as
    the scalar i / j loop did, so every seed gives the same forest."""
    for seed in range(200):
        reference.assert_same_cdag(
            component_forest_cdag(1, size, seed=seed),
            reference.component_forest_cdag(1, size, seed=seed),
        )
    reference.assert_same_cdag(component_forest_cdag(3, size, seed=7),
                               reference.component_forest_cdag(3, size,
                                                                seed=7))


@pytest.mark.parametrize("num_chains", [1, 2, 5])
@pytest.mark.parametrize("length", [1, 2, 7])
def test_independent_chains_match_the_link_loop(num_chains, length):
    """Id arrays give the CDAG one name-keyed edge per link gave."""
    reference.assert_same_cdag(
        independent_chains_cdag(num_chains, length),
        reference.independent_chains_cdag(num_chains, length),
    )


@pytest.mark.parametrize("num_ops", [1, 2, 5])
@pytest.mark.parametrize("degree", [1, 2, 8])
def test_star_spill_matches_the_operation_loop(num_ops, degree):
    """Interleaved input and operation ids give the star the per-operation
    loop built: each operation after its own inputs, inputs tagged."""
    reference.assert_same_cdag(star_spill_cdag(num_ops, degree),
                               reference.star_spill_cdag(num_ops, degree))
