"""Tests for the Jacobi analysis (Theorem 10), the butterfly bound and reductions."""

import pytest

from repro.algorithms import (
    analyze_jacobi,
    bandwidth_bound_dimension_threshold,
    dot_product_cdag,
    dot_then_axpy_cdag,
    jacobi_cdag,
    saxpy_cdag,
)
from repro.bounds import fft_io_lower_bound, jacobi_io_lower_bound
from repro.core import butterfly_cdag
from repro.core.properties import min_wavefront
from repro.pebbling import spill_game_rbw


class TestJacobiCDAG:
    def test_box_neighborhood_is_nine_point_in_2d(self):
        c = jacobi_cdag((3, 3), 1)
        centre = ("st", 1, 1, 1)
        assert c.in_degree(centre) == 9

    def test_vertex_count(self):
        c = jacobi_cdag((4, 4), 2)
        assert c.num_vertices() == 16 * 3

    def test_spill_game_dominates_theorem10(self):
        n, t, s, d = 6, 3, 12, 2
        c = jacobi_cdag((n, n), t, neighborhood="star")
        ub = spill_game_rbw(c, num_red=s).io_count
        lb = jacobi_io_lower_bound(n, t, s, d)
        assert lb <= ub


class TestJacobiAnalysis:
    def test_dimension_threshold_formula(self):
        # balance 0.052, cache 4 MWords: exact condition threshold ~ 10.15
        th = bandwidth_bound_dimension_threshold(0.052, 4 * 2 ** 20)
        assert th == pytest.approx(10.15, rel=0.01)

    def test_threshold_infinite_when_balance_large(self):
        assert bandwidth_bound_dimension_threshold(0.3, 1024) == float("inf")

    def test_threshold_guards(self):
        with pytest.raises(ValueError):
            bandwidth_bound_dimension_threshold(0.0, 1024)

    def test_low_dimensional_stencils_not_bound_on_bgq(self, bgq):
        for d in (1, 2, 3, 4):
            a = analyze_jacobi(bgq, n=100, dimensions=d, timesteps=10)
            assert a.per_op_vertical_requirement < bgq.effective_vertical_balance()

    def test_high_dimensional_stencils_bound_on_bgq(self, bgq):
        a = analyze_jacobi(bgq, n=10, dimensions=11, timesteps=2)
        assert a.per_op_vertical_requirement > bgq.effective_vertical_balance()

    def test_per_op_requirement_decreases_with_dimension_inverse(self, bgq):
        a2 = analyze_jacobi(bgq, n=50, dimensions=2, timesteps=5)
        a3 = analyze_jacobi(bgq, n=50, dimensions=3, timesteps=5)
        assert a3.per_op_vertical_requirement > a2.per_op_vertical_requirement

    @pytest.mark.parametrize("dimensions", [1, 2, 3])
    def test_count_flops_is_2_3d_per_update(self, bgq, dimensions):
        # 2 * 3^d FLOPs per point update of the 3^d-point box stencil
        a = analyze_jacobi(bgq, n=10, dimensions=dimensions, timesteps=2,
                           count_flops=True)
        assert a.total_flops == 2 * 3 ** dimensions * 10 ** dimensions * 2

    def test_count_flops_lowers_intensity(self, bgq):
        per_update = analyze_jacobi(bgq, n=50, dimensions=2, timesteps=5)
        per_flop = analyze_jacobi(bgq, n=50, dimensions=2, timesteps=5,
                                  count_flops=True)
        assert per_flop.vertical_intensity < per_update.vertical_intensity

    def test_xt5_threshold_lower_than_bgq(self, bgq, xt5):
        # the XT5 has a smaller cache and smaller balance: its threshold is lower
        tb = analyze_jacobi(bgq, n=50, dimensions=2, timesteps=5).dimension_threshold
        tx = analyze_jacobi(xt5, n=50, dimensions=2, timesteps=5).dimension_threshold
        assert tx < tb


class TestFFT:
    def test_butterfly_spill_game_dominates_bound(self):
        log_n, s = 3, 4
        c = butterfly_cdag(log_n)
        ub = spill_game_rbw(c, num_red=s).io_count
        assert ub >= fft_io_lower_bound(1 << log_n, s)


class TestReductionKernels:
    def test_dot_product_counts(self):
        c = dot_product_cdag(5)
        assert len(c.inputs) == 10
        assert len(c.outputs) == 1
        assert len(c.operations) == 5 + 4

    def test_saxpy_counts(self):
        c = saxpy_cdag(4)
        assert len(c.inputs) == 9  # a + 2 * 4
        assert len(c.outputs) == 4
        assert all(c.in_degree(v) == 3 for v in c.outputs)

    def test_dot_product_alone_has_small_wavefront(self):
        c = dot_product_cdag(6)
        root = ("acc", 5)
        assert min_wavefront(c, root) == 1  # nothing is re-read afterwards

    def test_dot_then_axpy_wavefront_is_2n_plus_1(self):
        for n in (2, 4, 6):
            c = dot_then_axpy_cdag(n)
            assert min_wavefront(c, ("acc", n - 1)) == 2 * n + 1

    def test_guards(self):
        with pytest.raises(ValueError):
            dot_product_cdag(0)
        with pytest.raises(ValueError):
            saxpy_cdag(0)
        with pytest.raises(ValueError):
            dot_then_axpy_cdag(0)
