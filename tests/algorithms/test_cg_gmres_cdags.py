"""Tests for the CG and GMRES CDAG constructions and Theorem 8/9 analyses."""

import re

import numpy as np
import pytest

from reference_trace import (
    Grid,
    StencilOperator,
    conjugate_gradient,
    traced_cg_cdag,
    traced_gmres_cdag,
)
from repro.algorithms import (
    analyze_cg,
    analyze_gmres,
    cg_iteration_cdag,
    gmres_iteration_cdag,
)
from repro.algorithms.cg import stencil_neighbors
from repro.bounds import automated_wavefront_bound
from repro.core.properties import min_wavefront


class TestCGStructuralCDAG:
    def test_basic_structure(self):
        c = cg_iteration_cdag((3, 3), 1)
        assert len(c.inputs) == 3 * 9  # x0, r0, p0
        assert len(c.outputs) == 3 * 9  # final x, r, p
        c.validate()

    def test_multiple_iterations_grow_linearly(self):
        one = cg_iteration_cdag((2, 2), 1).num_vertices()
        two = cg_iteration_cdag((2, 2), 2).num_vertices()
        three = cg_iteration_cdag((2, 2), 3).num_vertices()
        assert (three - two) == (two - one)

    def test_wavefront_at_step_scalar_matches_theorem8(self):
        # Theorem 8: |W^min(a)| >= 2 n^d  (elements of p and v)
        for shape in [(2, 2), (3, 2)]:
            nd = int(np.prod(shape))
            c = cg_iteration_cdag(shape, 1)
            assert min_wavefront(c, ("a", 0)) >= 2 * nd

    def test_wavefront_at_beta_scalar_matches_theorem8(self):
        # |W^min(g)| >= n^d (elements of r_new)
        for shape in [(2, 2), (4,)]:
            nd = int(np.prod(shape))
            c = cg_iteration_cdag(shape, 1)
            assert min_wavefront(c, ("g", 0)) >= nd

    def test_automated_heuristic_finds_the_large_wavefront(self):
        shape = (2, 2)
        nd = 4
        c = cg_iteration_cdag(shape, 1)
        bound = automated_wavefront_bound(c, s=0)
        assert bound.wavefront >= 2 * nd

    def test_invalid_iterations(self):
        with pytest.raises(ValueError):
            cg_iteration_cdag((2, 2), 0)

    @pytest.mark.parametrize("shape", [(2, 0), (0,), (3, -1)],
                             ids=["2x0", "0", "3x-1"])
    def test_zero_extent_names_the_shape(self, shape):
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            cg_iteration_cdag(shape, 1)

    def test_empty_shape_is_one_point(self):
        assert len(cg_iteration_cdag((), 1).inputs) == 3

    def test_stencil_neighbors_interior_and_boundary(self):
        assert len(stencil_neighbors((3, 3), (1, 1))) == 4
        assert stencil_neighbors((3, 3), (0, 0)) == [(1, 0), (0, 1)]
        assert len(stencil_neighbors((3, 3), (0, 1))) == 3

    @pytest.mark.parametrize("shape", [(1,), (5,), (1, 3), (3, 3), (2, 3, 4)],
                             ids=["1", "5", "1x3", "3x3", "2x3x4"])
    def test_stencil_neighbors_are_the_points_one_step_away(self, shape):
        points = list(np.ndindex(*shape))
        for p in points:
            got = stencil_neighbors(shape, p)
            want = {
                q for q in points
                if sum(abs(a - b) for a, b in zip(p, q)) == 1
            }
            assert len(got) == len(want) and set(got) == want

    @pytest.mark.parametrize("shape, iterations", [
        ((1,), 1), ((5,), 2), ((2, 2), 1), ((3, 3), 3), ((3, 2, 2), 2),
    ], ids=["1-T1", "5-T2", "2x2-T1", "3x3-T3", "3x2x2-T2"])
    def test_vertex_count_formula(self, shape, iterations):
        # once: x0, r0, p0 and <r0, r0> (nd products, nd - 1 adds); per
        # iteration: v, the <p, v> products, x, r, the <r, r> products
        # and p (nd each), two chains of nd - 1 adds, and a and g
        nd = int(np.prod(shape))
        c = cg_iteration_cdag(shape, iterations)
        assert c.num_vertices() == 5 * nd - 1 + 8 * nd * iterations
        assert len(c.inputs) == len(c.outputs) == 3 * nd
        for g in np.ndindex(*shape):
            assert c.in_degree(("v", 0, g)) == 1 + len(
                stencil_neighbors(shape, g)
            )


class TestCGTracedCDAG:
    @pytest.mark.parametrize("shape, iterations", [
        ((3, 3), 2), ((5,), 3), ((2, 2, 2), 2),
    ], ids=["3x3-T2", "5-T3", "2x2x2-T2"])
    def test_traced_cg_matches_vectorised_solver(self, shape, iterations):
        grid = Grid(shape=shape)
        x_traced, cdag = traced_cg_cdag(grid, iterations)
        # reference: the vectorised CG limited to the same iteration count,
        # starting from x = 0 with the same (ramp) right-hand side
        op = StencilOperator(grid)
        ramp = 1.0 + np.arange(grid.num_points, dtype=float) / grid.num_points
        b = grid.implicit_rhs(ramp)
        ref = conjugate_gradient(op, b, tol=0.0, max_iterations=iterations)
        assert np.allclose(x_traced, ref.x, atol=1e-10)
        cdag.validate()

    def test_traced_cdag_has_dot_product_wavefronts(self):
        grid = Grid(shape=(2, 2))
        _, cdag = traced_cg_cdag(grid, 1)
        bound = automated_wavefront_bound(cdag, s=0)
        assert bound.wavefront >= 2 * grid.num_points

    def test_invalid_iterations(self):
        with pytest.raises(ValueError):
            traced_cg_cdag(Grid(shape=(2, 2)), 0)


class TestGMRESCDAGs:
    def test_structural_counts(self):
        shape, m = (2, 2), 2
        c = gmres_iteration_cdag(shape, m)
        assert len(c.inputs) == 4
        c.validate()
        # Hessenberg scalars: sum_{i<m} (i+1) + m norms
        num_h = sum(i + 1 for i in range(m)) + m
        h_outputs = [v for v in c.outputs if v[0] in ("h+", "h_last")]
        assert len(h_outputs) == num_h

    def test_wavefront_at_last_inner_product(self):
        shape = (2, 2)
        nd = 4
        c = gmres_iteration_cdag(shape, 1)
        bound = automated_wavefront_bound(c, s=0)
        assert bound.wavefront >= 2 * nd

    @pytest.mark.parametrize("shape, m", [((3, 2), 2), ((5,), 3), ((3, 3, 3), 2)],
                             ids=["3x2-m2", "5-m3", "3x3x3-m2"])
    def test_traced_gmres_matches_numpy_arnoldi(self, shape, m):
        grid = Grid(shape=shape)
        traced_v, cdag = traced_gmres_cdag(grid, m)
        # reference Arnoldi with the same operator and (ramp) start vector
        op = StencilOperator(grid)
        ramp = 1.0 + np.arange(grid.num_points, dtype=float) / grid.num_points
        r0 = grid.implicit_rhs(ramp)
        v = [r0 / np.linalg.norm(r0)]
        for i in range(m):
            w = op.matvec(v[i])
            for j in range(i + 1):
                w = w - (w @ v[j]) * v[j]
            v.append(w / np.linalg.norm(w))
        assert np.allclose(traced_v, v[-1], atol=1e-10)
        cdag.validate()

    @pytest.mark.parametrize("shape, m", [
        ((1,), 1), ((4,), 3), ((2, 2), 2), ((3, 2), 1), ((2, 2, 2), 2),
    ], ids=["1-m1", "4-m3", "2x2-m2", "3x2-m1", "2x2x2-m2"])
    def test_vertex_count_formula(self, shape, m):
        # per iteration i: w, v', the norm's products and v_{i+1} (nd
        # each), the norm's nd - 1 adds and h_{i+1,i}, and i + 1 inner
        # products of nd products and nd - 1 adds each
        nd = int(np.prod(shape))
        c = gmres_iteration_cdag(shape, m)
        inner_products = m * (m + 1) // 2
        assert c.num_vertices() == nd + 5 * nd * m + (2 * nd - 1) * inner_products
        assert len(c.inputs) == nd
        assert len(c.outputs) == nd + inner_products + m

    def test_invalid_iterations(self):
        with pytest.raises(ValueError):
            gmres_iteration_cdag((2, 2), 0)
        with pytest.raises(ValueError):
            traced_gmres_cdag(Grid(shape=(2, 2)), 0)

    @pytest.mark.parametrize("shape", [(0, 2), (2, 0, 2)],
                             ids=["0x2", "2x0x2"])
    def test_zero_extent_names_the_shape(self, shape):
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            gmres_iteration_cdag(shape, 1)

    def test_empty_shape_is_one_point(self):
        assert len(gmres_iteration_cdag((), 1).inputs) == 1


class TestOperationCounts:
    """The paper's operation counts, which every intensity of Sections
    5.2.3 and 5.3.3 divides by."""

    def test_cg_flops_per_iteration_3d(self, bgq):
        a = analyze_cg(bgq, n=10, dimensions=3, iterations=1)
        assert a.total_flops == 20 * 1000

    @pytest.mark.parametrize("dimensions", [1, 2, 3])
    def test_cg_total_flops_paper_constant(self, bgq, dimensions):
        a = analyze_cg(bgq, n=1000, dimensions=dimensions, iterations=5)
        assert a.total_flops == 20.0 * 1000 ** dimensions * 5

    @pytest.mark.parametrize("dimensions", [1, 2, 3])
    def test_gmres_flops_paper_constant(self, bgq, dimensions):
        n, m = 100, 7
        nd = n ** dimensions
        a = analyze_gmres(bgq, n=n, dimensions=dimensions, krylov_iterations=m)
        assert a.total_flops == pytest.approx(20 * nd * m + nd * m ** 2)

    def test_gmres_flops_grow_superlinearly_in_m(self, bgq):
        f10 = analyze_gmres(bgq, n=50, krylov_iterations=10).total_flops
        f20 = analyze_gmres(bgq, n=50, krylov_iterations=20).total_flops
        assert f20 > 2 * f10


class TestSection52Analysis:
    def test_cg_vertical_intensity_is_0_3(self, bgq, xt5):
        for machine in (bgq, xt5):
            a = analyze_cg(machine, n=1000, dimensions=3, iterations=1)
            assert a.vertical_intensity == pytest.approx(0.3)
            assert a.vertical_verdict.bound is True

    def test_cg_horizontal_matches_paper_formula(self, bgq):
        a = analyze_cg(bgq, n=1000, dimensions=3, iterations=1)
        paper = 6 * bgq.num_nodes ** (1 / 3) / (20 * 1000)
        assert a.horizontal_intensity == pytest.approx(paper, rel=0.2)
        assert a.horizontal_verdict.bound is False

    def test_cg_intensity_independent_of_iterations(self, bgq):
        a1 = analyze_cg(bgq, n=500, iterations=1)
        a5 = analyze_cg(bgq, n=500, iterations=5)
        assert a1.vertical_intensity == pytest.approx(a5.vertical_intensity)


class TestSection53Analysis:
    def test_gmres_vertical_intensity_formula(self, bgq):
        for m in (5, 10, 50):
            a = analyze_gmres(bgq, n=1000, dimensions=3, krylov_iterations=m)
            assert a.vertical_intensity == pytest.approx(6.0 / (m + 20))

    def test_gmres_crossover_with_large_m(self, bgq):
        small_m = analyze_gmres(bgq, krylov_iterations=10)
        large_m = analyze_gmres(bgq, krylov_iterations=200)
        assert small_m.vertical_verdict.bound is True
        assert large_m.vertical_verdict.bound is False

    def test_gmres_never_network_bound_here(self, bgq, xt5):
        for machine in (bgq, xt5):
            a = analyze_gmres(machine, n=1000, krylov_iterations=10)
            assert a.horizontal_verdict.bound is False
