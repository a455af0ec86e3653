"""Unit tests for the closed-form analytical bounds."""

import math

import pytest

from repro.bounds import (
    block_side,
    cg_vertical_lower_bound,
    cg_wavefront_sizes,
    composite_example_io_upper_bound,
    composite_example_naive_sum,
    fft_io_lower_bound,
    ghost_cell_volume,
    gmres_vertical_lower_bound,
    gmres_wavefront_sizes,
    jacobi_io_lower_bound,
    jacobi_largest_partition,
    matmul_io_lower_bound,
    outer_product_io,
    stencil_horizontal_upper_bound,
)
from repro.core import outer_product_cdag
from repro.pebbling import optimal_rbw_io


class TestSection3Formulas:
    def test_matmul_bound_formula(self):
        assert matmul_io_lower_bound(10, 8) == pytest.approx(1000 / (2 * 4))

    def test_matmul_bound_decreases_with_s(self):
        assert matmul_io_lower_bound(64, 64) > matmul_io_lower_bound(64, 256)

    def test_matmul_guards(self):
        with pytest.raises(ValueError):
            matmul_io_lower_bound(0, 4)

    def test_outer_product_exact(self):
        assert outer_product_io(5) == 10 + 25

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("s", [3, 4, 5])
    def test_outer_product_is_a_lower_bound_reached_at_n_plus_2(self, n, s):
        # Compulsory traffic only: below S = n + 2 the optimum reloads
        # inputs; from S = n + 2 on, it meets the formula.
        opt = optimal_rbw_io(outer_product_cdag(n), s).io
        if s < n + 2:
            assert outer_product_io(n) < opt
        else:
            assert outer_product_io(n) == opt

    def test_composite_upper_bound(self):
        assert composite_example_io_upper_bound(100) == 401

    def test_composite_naive_sum_dominates_upper_bound(self):
        for n in (8, 32, 128):
            naive = composite_example_naive_sum(n, 64)
            assert naive > composite_example_io_upper_bound(n)

    def test_composite_io_below_matmul_step_bound_for_large_n(self):
        # the punchline of Section 3: for sizeable N the whole composite
        # computation moves fewer words than the matmul step's own bound
        n, s = 256, 256
        assert composite_example_io_upper_bound(n) < matmul_io_lower_bound(n, s)


class TestTheorem10:
    def test_jacobi_2d_matches_paper_form(self):
        n, t, s = 100, 50, 128
        expected = n * n * t / (4 * math.sqrt(2 * s))
        assert jacobi_io_lower_bound(n, t, s, dimensions=2) == pytest.approx(expected)

    def test_jacobi_parallel_divides_by_p(self):
        seq = jacobi_io_lower_bound(64, 10, 64, 2, processors=1)
        par = jacobi_io_lower_bound(64, 10, 64, 2, processors=8)
        assert par == pytest.approx(seq / 8)

    def test_jacobi_dimension_dependence(self):
        # higher dimension -> weaker cache exponent -> larger bound per point
        lb2 = jacobi_io_lower_bound(10, 1, 512, 2) / 10 ** 2
        lb3 = jacobi_io_lower_bound(10, 1, 512, 3) / 10 ** 3
        assert lb3 > lb2

    def test_jacobi_largest_partition_closed_form(self):
        assert jacobi_largest_partition(8, 2) == pytest.approx(4 * 8 * 4)

    def test_jacobi_guards(self):
        with pytest.raises(ValueError):
            jacobi_io_lower_bound(0, 1, 1, 1)
        with pytest.raises(ValueError):
            jacobi_largest_partition(0, 2)


class TestFFT:
    def test_fft_bound_formula(self):
        assert fft_io_lower_bound(1024, 32) == pytest.approx(
            1024 * 10 / (2 * math.log2(64))
        )

    def test_fft_guards(self):
        with pytest.raises(ValueError):
            fft_io_lower_bound(1, 4)


class TestTheorems8And9:
    def test_cg_wavefront_sizes(self):
        assert cg_wavefront_sizes(10, 3) == (2000, 1000)

    def test_cg_asymptotic_bound(self):
        assert cg_vertical_lower_bound(100, 5, 3, processors=1) == pytest.approx(
            6 * 100 ** 3 * 5
        )

    def test_cg_exact_form_below_asymptotic(self):
        exact = cg_vertical_lower_bound(10, 2, 3, s=100, asymptotic=False)
        asym = cg_vertical_lower_bound(10, 2, 3, asymptotic=True)
        assert exact <= asym

    def test_cg_parallel_scaling(self):
        assert cg_vertical_lower_bound(50, 4, 3, processors=10) == pytest.approx(
            cg_vertical_lower_bound(50, 4, 3, processors=1) / 10
        )

    def test_gmres_matches_cg_shape(self):
        assert gmres_wavefront_sizes(7, 2) == (98, 49)
        assert gmres_vertical_lower_bound(100, 5, 3) == pytest.approx(
            cg_vertical_lower_bound(100, 5, 3)
        )

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            cg_vertical_lower_bound(0, 1)
        with pytest.raises(ValueError):
            gmres_vertical_lower_bound(10, 0)


class TestGhostCells:
    def test_block_side(self):
        assert block_side(1000, 8, 3) == pytest.approx(500)

    def test_ghost_volume_2d(self):
        # (B+2)^2 - B^2 = 4B + 4
        assert ghost_cell_volume(10, 2) == pytest.approx(44)

    def test_ghost_volume_3d(self):
        b = 10.0
        assert ghost_cell_volume(b, 3) == pytest.approx((b + 2) ** 3 - b ** 3)

    def test_stencil_horizontal_upper_bound_scales_with_time(self):
        one = stencil_horizontal_upper_bound(100, 4, 2, 1)
        ten = stencil_horizontal_upper_bound(100, 4, 2, 10)
        assert ten == pytest.approx(10 * one)

    def test_guards(self):
        with pytest.raises(ValueError):
            block_side(10, 0, 2)
        with pytest.raises(ValueError):
            ghost_cell_volume(0, 2)
        with pytest.raises(ValueError):
            stencil_horizontal_upper_bound(10, 2, 2, 0)

    def test_paper_cg_horizontal_intensity(self):
        # Section 5.2.3: UB_horiz * N_nodes / |V| ~ 6 N^{1/3} / (20 n)
        n, nodes, t = 1000, 2048, 1
        ub = stencil_horizontal_upper_bound(n, nodes, 3, t)
        intensity = ub * nodes / (20 * n ** 3 * t)
        paper = 6 * nodes ** (1 / 3) / (20 * n)
        assert intensity == pytest.approx(paper, rel=0.2)
