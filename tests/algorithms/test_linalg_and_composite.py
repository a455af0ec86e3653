"""Unit tests for the matmul/outer-product CDAGs and the Section 3 composite example."""

from collections import Counter

import numpy as np
import pytest

from reference_trace import (
    traced_composite,
    traced_dot,
    traced_matmul,
    traced_outer_product,
)
from repro.algorithms import (
    composite_cdag,
    dot_product_cdag,
    matmul_accumulation_chains,
    matmul_cdag,
    naive_step_sum,
    recompute_friendly_game,
)
from repro.bounds import (
    composite_example_io_upper_bound,
    matmul_io_lower_bound,
    outer_product_io,
)
from repro.core import outer_product_cdag
from repro.pebbling import spill_game_rbw


def dataflow_labels(cdag):
    """Each input's label is its name; each operation's label is the
    sorted labels of its operands.  Two CDAGs whose label multisets and
    output labels agree compute the same expressions from the same
    named inputs, whatever they call their operation vertices."""
    label = {}
    for v in cdag.topological_order():
        if cdag.is_input(v):
            label[v] = repr(v)
        else:
            operands = sorted(label[u] for u in cdag.predecessors(v))
            label[v] = "(" + ",".join(operands) + ")"
    return label


class TestMatmulCDAG:
    def test_vertex_counts(self):
        n = 3
        c = matmul_cdag(n)
        # inputs 2n^2, multiplies n^3, accumulates n^2 (n-1)
        assert len(c.inputs) == 2 * n * n
        assert c.num_vertices() == 2 * n * n + n ** 3 + n * n * (n - 1)
        assert len(c.outputs) == n * n

    def test_n_equal_one(self):
        c = matmul_cdag(1)
        assert len(c.outputs) == 1
        assert c.num_vertices() == 3

    def test_outputs_depend_on_whole_row_and_column(self):
        c = matmul_cdag(2)
        out = ("acc", 0, 0, 1)
        anc = c.ancestors(out)
        assert ("A", 0, 0) in anc and ("A", 0, 1) in anc
        assert ("B", 0, 0) in anc and ("B", 1, 0) in anc
        assert ("A", 1, 0) not in anc

    def test_accumulation_chains_shape(self):
        n = 3
        chains = matmul_accumulation_chains(n)
        assert len(chains.inputs) == n * n
        # each chain can be pebbled with 2 red pebbles
        rec = spill_game_rbw(chains, num_red=2)
        assert rec.compute_count == len(chains.operations)

    def test_without_io_vertices_becomes_chain_like(self):
        c = matmul_cdag(3)
        core = c.without_io_vertices()
        # after removing inputs/outputs, no vertex has in-degree > 2
        assert all(core.in_degree(v) <= 2 for v in core.vertices)

    def test_spill_game_exceeds_hong_kung_bound(self):
        n, s = 4, 8
        c = matmul_cdag(n)
        ub = spill_game_rbw(c, num_red=s).io_count
        assert ub >= matmul_io_lower_bound(n, s)


class TestTracedKernels:
    def test_traced_matmul_matches_numpy(self, rng):
        a, b = rng.random((4, 3)), rng.random((3, 5))
        c, cdag = traced_matmul(a, b)
        assert np.allclose(c, a @ b)
        assert len(cdag.outputs) == 20
        assert len(cdag.inputs) == 12 + 15

    def test_traced_matmul_shape_check(self, rng):
        with pytest.raises(ValueError):
            traced_matmul(rng.random((2, 3)), rng.random((2, 3)))

    def test_traced_outer_product(self, rng):
        p, q = rng.random(4), rng.random(3)
        a, cdag = traced_outer_product(p, q)
        assert np.allclose(a, np.outer(p, q))
        assert len(cdag.outputs) == 12
        assert cdag.num_vertices() == 7 + 12

    def test_traced_outer_requires_vectors(self, rng):
        with pytest.raises(ValueError):
            traced_outer_product(rng.random((2, 2)), rng.random(2))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("traced, structural", [
        (lambda n, rng: traced_matmul(rng.random((n, n)), rng.random((n, n)))[1],
         matmul_cdag),
        (lambda n, rng: traced_outer_product(rng.random(n), rng.random(n))[1],
         outer_product_cdag),
        (lambda n, rng: traced_dot(rng.random(n), rng.random(n))[1],
         dot_product_cdag),
    ], ids=["matmul", "outer", "dot"])
    def test_structural_builder_matches_traced_dataflow(
        self, n, traced, structural, rng
    ):
        """The structural builders that E6 and the bound server's ``outer``
        builder run, and the dot product whose reduction chain
        ``dot_then_axpy_cdag`` repeats, wire the same operands into each
        operation as the traced program does."""
        t_cdag, s_cdag = traced(n, rng), structural(n)
        want, got = dataflow_labels(t_cdag), dataflow_labels(s_cdag)
        assert Counter(got.values()) == Counter(want.values())
        assert sorted(got[v] for v in s_cdag.outputs) == sorted(
            want[v] for v in t_cdag.outputs
        )


class TestCompositeExample:
    def test_composite_cdag_counts(self):
        n = 3
        c = composite_cdag(n)
        assert len(c.inputs) == 4 * n
        assert len(c.outputs) == 1
        # A and B vertices: 2 n^2 ; C multiplies n^3 ; C accumulates n^2(n-1);
        # global sum accumulates n^2 - 1
        expected_ops = 2 * n * n + n ** 3 + n * n * (n - 1) + n * n - 1
        assert len(c.operations) == expected_ops

    def test_traced_composite_matches_numpy(self, rng):
        p, q, r, s = (rng.random(4) for _ in range(4))
        value, cdag = traced_composite(p, q, r, s)
        expected = float(np.sum(np.outer(p, q) @ np.outer(r, s)))
        assert value == pytest.approx(expected)
        assert len(cdag.outputs) == 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_composite_cdag_matches_traced_expressions(self, n, rng):
        """``composite_cdag`` computes each element of A and B once and
        shares it, where the traced program recomputes it for each of its
        n uses: both compute the same expressions and the same sum."""
        _, t_cdag = traced_composite(*(rng.random(n) for _ in range(4)))
        s_cdag = composite_cdag(n)
        want, got = dataflow_labels(t_cdag), dataflow_labels(s_cdag)
        assert set(got.values()) == set(want.values())
        assert len(set(got.values())) == s_cdag.num_vertices()
        recomputed = 2 * (n ** 3 - n ** 2)
        assert t_cdag.num_vertices() == s_cdag.num_vertices() + recomputed
        assert [got[v] for v in s_cdag.outputs] == [
            want[v] for v in t_cdag.outputs
        ]

    def test_traced_composite_length_mismatch(self, rng):
        with pytest.raises(ValueError):
            traced_composite(rng.random(3), rng.random(4), rng.random(3), rng.random(3))

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_recompute_friendly_game_achieves_4n_plus_1(self, n):
        record = recompute_friendly_game(n)
        assert record.io_count == composite_example_io_upper_bound(n) == 4 * n + 1
        assert record.load_count == 4 * n
        assert record.store_count == 1

    def test_composite_io_below_naive_sum(self):
        n, s = 8, 64
        assert recompute_friendly_game(n).io_count < naive_step_sum(n, s)

    def test_composite_io_below_matmul_bound_for_big_n(self):
        # the heart of the Section 3 argument; at N=64, S=64:
        # 4N+1 = 257 < N^3/(2 sqrt(2S)) ~ 11585
        n, s = 64, 64
        assert composite_example_io_upper_bound(n) < matmul_io_lower_bound(n, s)

    def test_outer_product_io_formula_is_exact_for_game(self):
        n = 3
        rec = spill_game_rbw(outer_product_cdag(n), num_red=2 * n + 2)
        assert rec.io_count == outer_product_io(n)
