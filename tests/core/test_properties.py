"""Unit tests for CDAG structural properties (In/Out/Min sets, dominators,
convex cuts, wavefronts)."""

import pytest

from repro.core import (
    CDAG,
    CDAGError,
    chain_cdag,
    convex_cut_for_vertex,
    dense_layer_cdag,
    diamond_cdag,
    has_circuit_between,
    in_set,
    is_convex_cut,
    is_dominator,
    max_min_wavefront,
    max_schedule_wavefront,
    min_wavefront,
    minimal_dominator_size,
    minimum_set,
    out_set,
    outer_product_cdag,
    reduction_tree_cdag,
    schedule_wavefronts,
    topological_schedule,
)
from repro.algorithms import dot_then_axpy_cdag


class TestInOutMinSets:
    def test_in_set_of_chain_slice(self):
        c = chain_cdag(5)
        sub = {("chain", 2), ("chain", 3)}
        assert in_set(c, sub) == {("chain", 1)}

    def test_out_set_of_chain_slice(self):
        c = chain_cdag(5)
        sub = {("chain", 2), ("chain", 3)}
        assert out_set(c, sub) == {("chain", 3)}

    def test_out_set_includes_cdag_outputs(self):
        c = chain_cdag(3)
        sub = {("chain", 3)}
        assert out_set(c, sub) == {("chain", 3)}

    def test_min_set_vs_out_set(self):
        # A vertex with one successor inside and one outside is in Out but
        # not in Min.
        c = CDAG(edges=[("a", "b"), ("a", "c")], inputs=[], outputs=["b", "c"])
        sub = {"a", "b"}
        assert out_set(c, sub) == {"a", "b"}
        assert minimum_set(c, sub) == {"b"}

    def test_min_set_contains_sinks(self):
        c = chain_cdag(3)
        sub = {("chain", 3)}
        assert minimum_set(c, sub) == sub

    def test_empty_set(self):
        c = chain_cdag(2)
        assert in_set(c, []) == set()
        assert out_set(c, []) == set()
        assert minimum_set(c, []) == set()


class TestDominators:
    def test_chain_middle_vertex_dominates_suffix(self):
        c = chain_cdag(5)
        assert is_dominator(c, [("chain", 2)], [("chain", 4), ("chain", 5)])

    def test_non_dominator_detected(self):
        c = CDAG(edges=[("a", "c"), ("b", "c")], inputs=["a", "b"], outputs=["c"])
        assert not is_dominator(c, ["a"], ["c"])
        assert is_dominator(c, ["a", "b"], ["c"])
        assert is_dominator(c, ["c"], ["c"])

    def test_minimal_dominator_size_chain(self):
        c = chain_cdag(6)
        assert minimal_dominator_size(c, [("chain", 5)]) == 1

    def test_minimal_dominator_size_dense_layer(self):
        c = dense_layer_cdag(3, 5)
        # every input reaches every output: min dominator is min(3, 5)
        assert minimal_dominator_size(c, c.outputs) == 3

    def test_minimal_dominator_reduction_tree(self):
        c = reduction_tree_cdag(8)
        root = next(iter(c.outputs))
        # the root itself is a dominator of size 1
        assert minimal_dominator_size(c, [root]) == 1

    def test_dominator_empty_target(self):
        c = chain_cdag(2)
        assert minimal_dominator_size(c, []) == 0


class TestCircuits:
    def test_no_circuit_in_chain_halves(self):
        c = chain_cdag(4)
        a = {("chain", 0), ("chain", 1)}
        b = {("chain", 2), ("chain", 3)}
        assert not has_circuit_between(c, a, b)

    def test_circuit_detected(self):
        c = CDAG(edges=[("a", "b"), ("c", "d")], inputs=["a", "c"], outputs=["b", "d"])
        # put a->b edge from set1 to set2 and c->d from set2 to set1
        assert has_circuit_between(c, {"a", "d"}, {"b", "c"})


class TestConvexCuts:
    def test_convex_cut_contains_ancestors(self):
        c = diamond_cdag(4, 3)
        s_side, t_side = convex_cut_for_vertex(c, ("dmd", 1, 1))
        assert ("dmd", 0, 0) in s_side
        assert ("dmd", 2, 1) in t_side
        assert is_convex_cut(c, s_side, t_side)

    def test_convex_cut_rejects_descendant_in_s(self):
        c = chain_cdag(4)
        with pytest.raises(Exception):
            convex_cut_for_vertex(c, ("chain", 1), extra_in_s=[("chain", 3)])

    def test_is_convex_cut_detects_backward_edge(self):
        c = chain_cdag(3)
        assert not is_convex_cut(
            c, [("chain", 0), ("chain", 2)], [("chain", 1), ("chain", 3)]
        )


class TestWavefronts:
    def test_chain_wavefront_is_one(self):
        c = chain_cdag(6)
        assert min_wavefront(c, ("chain", 3)) == 1

    def test_sink_wavefront_is_one(self):
        c = chain_cdag(3)
        assert min_wavefront(c, ("chain", 3)) == 1

    def test_dot_then_axpy_wavefront_matches_theory(self):
        # Theorem 8 in miniature: the reduction result has 2n + 1 minimum
        # wavefront because all 2n vector elements are re-read afterwards.
        for n in (2, 3, 4):
            c = dot_then_axpy_cdag(n)
            root = ("acc", n - 1)
            assert min_wavefront(c, root) == 2 * n + 1

    def test_outer_product_wavefront_small(self):
        c = outer_product_cdag(3)
        # products have no descendants -> wavefront 1
        assert min_wavefront(c, ("A", 0, 0)) == 1

    def test_max_min_wavefront_picks_best_vertex(self):
        c = dot_then_axpy_cdag(3)
        w, v = max_min_wavefront(c)
        assert w == 7
        assert v is not None

    def test_max_min_wavefront_with_candidates(self):
        c = dot_then_axpy_cdag(3)
        w, v = max_min_wavefront(c, candidates=[("prod", 0)])
        assert v == ("prod", 0)
        assert w >= 1

    def test_unknown_vertex_raises(self):
        with pytest.raises(Exception):
            min_wavefront(chain_cdag(2), "nope")


class TestScheduleWavefronts:
    def test_chain_schedule_wavefront_constant(self):
        c = chain_cdag(5)
        sched = topological_schedule(c)
        sizes = schedule_wavefronts(c, sched)
        assert max(sizes) == 1
        assert len(sizes) == c.num_vertices()

    def test_diamond_schedule_wavefront_at_least_width(self):
        c = diamond_cdag(4, 3)
        sched = topological_schedule(c)
        assert max_schedule_wavefront(c, sched) >= 4

    def test_schedule_wavefront_lower_bounds_min_wavefront(self):
        # For every vertex x, any schedule's wavefront at x's position is
        # >= the min wavefront at x.
        c = dot_then_axpy_cdag(2)
        sched = topological_schedule(c)
        sizes = schedule_wavefronts(c, sched)
        pos = {v: i for i, v in enumerate(sched)}
        x = ("acc", 1)
        assert sizes[pos[x]] >= min_wavefront(c, x)

    def test_invalid_schedule_rejected(self):
        c = chain_cdag(3)
        bad = list(reversed(topological_schedule(c)))
        with pytest.raises(Exception):
            schedule_wavefronts(c, bad)

    def test_incomplete_schedule_rejected(self):
        c = chain_cdag(3)
        with pytest.raises(Exception):
            schedule_wavefronts(c, [("chain", 0)])

    def test_unknown_vertex_rejected(self):
        """A full-length schedule naming a foreign vertex is a
        ``CDAGError``, not a bare ``KeyError``."""
        c = chain_cdag(2)
        with pytest.raises(CDAGError, match="unknown vertex"):
            schedule_wavefronts(c, [("chain", 0), ("chain", 1), ("nope", 9)])
