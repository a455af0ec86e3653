"""Unit tests for the tracing oracle (``reference_trace.py``): the tracer
and its builder, the implicit heat system, its stencil operator and the
vectorised CG that the traced CG and GMRES CDAGs are checked against."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference_trace import (
    CDAGBuilder,
    Grid,
    StencilOperator,
    TraceContext,
    conjugate_gradient,
)
from repro.algorithms.cg import stencil_neighbors


@pytest.fixture
def grid_2d():
    return Grid(shape=(6, 6), spacing=1.0 / 7, timestep=0.005)


@pytest.fixture
def grid_1d():
    return Grid(shape=(16,), spacing=1.0 / 17, timestep=0.001)


def explicit_matrix(grid: Grid) -> np.ndarray:
    """The implicit heat-system matrix, entry by entry from the stencil."""
    diag, off = grid.implicit_matrix_diagonals()
    dense = np.zeros((grid.num_points, grid.num_points))
    for idx in np.ndindex(*grid.shape):
        i = np.ravel_multi_index(idx, grid.shape)
        dense[i, i] = diag
        for nb in stencil_neighbors(grid.shape, idx):
            dense[i, np.ravel_multi_index(nb, grid.shape)] = off
    return dense


def as_dense(op: StencilOperator) -> np.ndarray:
    """The operator's matrix, one ``matvec`` per unit vector."""
    return np.column_stack([op.matvec(e) for e in np.eye(op.shape[1])])


class TestTracedScalars:
    def test_arithmetic_values(self):
        ctx = TraceContext()
        a = ctx.input_scalar(3.0)
        b = ctx.input_scalar(4.0)
        assert (a + b).value == 7.0
        assert (a - b).value == -1.0
        assert (a * b).value == 12.0
        assert (a / b).value == 0.75
        assert (-a).value == -3.0
        assert (b.sqrt()).value == 2.0

    def test_reflected_operations_with_constants(self):
        ctx = TraceContext()
        a = ctx.input_scalar(2.0)
        assert (1.0 + a).value == 3.0
        assert (1.0 - a).value == -1.0
        assert (3.0 * a).value == 6.0
        assert (8.0 / a).value == 4.0

    def test_graph_records_operations(self):
        ctx = TraceContext()
        a = ctx.input_scalar(1.0)
        b = ctx.input_scalar(2.0)
        c = a * b + a
        ctx.mark_output(c)
        cdag = ctx.build()
        assert len(cdag.inputs) == 2
        assert len(cdag.outputs) == 1
        assert cdag.num_vertices() == 4  # 2 inputs, mul, add
        assert ctx.num_operations == 2

    def test_constants_not_counted_as_inputs(self):
        ctx = TraceContext()
        a = ctx.input_scalar(1.0)
        c = a * 5.0
        ctx.mark_output(c)
        cdag = ctx.build()
        assert len(cdag.inputs) == 1
        # the constant vertex exists but has no edge to the product
        assert cdag.in_degree(c.vertex) == 1


class TestTracedArrays:
    def test_input_array_shape_and_values(self, rng):
        ctx = TraceContext()
        values = rng.random((3, 2))
        arr = ctx.input_array(values)
        assert arr.shape == (3, 2)
        assert np.allclose(arr.values(), values)

    def test_elementwise_ops(self, rng):
        ctx = TraceContext()
        a_vals, b_vals = rng.random(5), rng.random(5)
        a = ctx.input_array(a_vals)
        b = ctx.input_array(b_vals)
        assert np.allclose((a + b).values(), a_vals + b_vals)
        assert np.allclose((a - b).values(), a_vals - b_vals)
        assert np.allclose((a * b).values(), a_vals * b_vals)
        assert np.allclose(a.scale(2.5).values(), 2.5 * a_vals)

    def test_shape_mismatch_raises(self, rng):
        ctx = TraceContext()
        a = ctx.input_array(rng.random(3))
        b = ctx.input_array(rng.random(4))
        with pytest.raises(ValueError):
            _ = a + b

    def test_dot_and_norm(self, rng):
        ctx = TraceContext()
        a_vals, b_vals = rng.random(6), rng.random(6)
        a = ctx.input_array(a_vals)
        b = ctx.input_array(b_vals)
        assert np.isclose(a.dot(b).value, a_vals @ b_vals)
        assert np.isclose(a.norm2().value, np.linalg.norm(a_vals))

    def test_axpy(self, rng):
        ctx = TraceContext()
        x_vals, y_vals = rng.random(4), rng.random(4)
        x = ctx.input_array(x_vals)
        y = ctx.input_array(y_vals)
        out = y.axpy(0.5, x)
        assert np.allclose(out.values(), y_vals + 0.5 * x_vals)

    def test_matvec(self, rng):
        ctx = TraceContext()
        m_vals = rng.random((3, 4))
        x_vals = rng.random(4)
        m = ctx.input_array(m_vals)
        x = ctx.input_array(x_vals)
        assert np.allclose(m.matvec(x).values(), m_vals @ x_vals)

    def test_matvec_dimension_checks(self, rng):
        ctx = TraceContext()
        m = ctx.input_array(rng.random((3, 4)))
        bad = ctx.input_array(rng.random(3))
        with pytest.raises(ValueError):
            m.matvec(bad)
        vec = ctx.input_array(rng.random(4))
        with pytest.raises(ValueError):
            vec.matvec(vec)

    def test_mark_output_array_tags_every_element(self, rng):
        ctx = TraceContext()
        a = ctx.input_array(rng.random(3))
        b = a.scale(2.0)
        ctx.mark_output(b)
        cdag = ctx.build()
        assert len(cdag.outputs) == 3

    def test_traced_cdag_edges_reflect_dataflow(self):
        ctx = TraceContext()
        x = ctx.input_array([1.0, 2.0])
        s = x.sum()
        ctx.mark_output(s)
        cdag = ctx.build()
        # the sum vertex consumes both inputs (directly via the add chain)
        assert cdag.in_degree(s.vertex) == 2

    def test_empty_reduction_raises(self):
        ctx = TraceContext()
        arr = ctx.input_array(np.zeros((0,)))
        with pytest.raises(ValueError):
            arr.sum()


class TestBuilderHelper:
    def test_builder_basic_flow(self):
        b = CDAGBuilder("t")
        x = b.add_input()
        y = b.add_input()
        z = b.operation([x, y], output=True)
        c = b.build()
        assert c.is_input(x) and c.is_input(y)
        assert c.is_output(z)
        assert c.in_degree(z) == 2

    def test_builder_fresh_names_unique(self):
        b = CDAGBuilder()
        names = {b.fresh() for _ in range(100)}
        assert len(names) == 100


class TestConstruction:
    def test_defaults(self):
        g = Grid(shape=(10,))
        assert g.ndim == 1
        assert g.num_points == 10
        assert g.spacing == pytest.approx(1.0 / 11)
        assert g.timestep > 0

    def test_explicit_parameters(self):
        g = Grid(shape=(4, 5), spacing=0.1, timestep=0.002, diffusivity=2.0)
        assert g.num_points == 20
        assert g.mesh_ratio == pytest.approx(2.0 * 0.002 / 0.01)

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            Grid(shape=())
        with pytest.raises(ValueError):
            Grid(shape=(0, 3))

    def test_invalid_scalars(self):
        with pytest.raises(ValueError):
            Grid(shape=(3,), spacing=-1.0)
        with pytest.raises(ValueError):
            Grid(shape=(3,), timestep=0.0)


class TestHeatEquationPieces:
    def test_implicit_rhs_1d_matches_paper_formula(self):
        g = Grid(shape=(5,), spacing=0.1, timestep=0.004)
        a = g.mesh_ratio
        u = np.arange(1.0, 6.0)
        rhs = g.implicit_rhs(u)
        # interior point i: a/2 u[i-1] + (1 - a) u[i] + a/2 u[i+1]
        i = 2
        expected = 0.5 * a * u[i - 1] + (1 - a) * u[i] + 0.5 * a * u[i + 1]
        assert rhs[i] == pytest.approx(expected)

    def test_implicit_rhs_respects_zero_boundaries(self):
        g = Grid(shape=(4,), spacing=0.2, timestep=0.004)
        a = g.mesh_ratio
        u = np.ones(4)
        rhs = g.implicit_rhs(u)
        assert rhs[0] == pytest.approx(0.5 * a * 0 + (1 - a) + 0.5 * a)

    def test_implicit_matrix_diagonals(self):
        g = Grid(shape=(5, 5), spacing=0.1, timestep=0.002)
        diag, off = g.implicit_matrix_diagonals()
        a = g.mesh_ratio
        assert diag == pytest.approx(1 + 2 * a)
        assert off == pytest.approx(-a / 2)


class TestStencilOperator:
    def test_matches_explicit_matrix(self, grid_2d, rng):
        op = StencilOperator(grid_2d)
        x = rng.random(grid_2d.num_points)
        assert np.allclose(op.matvec(x), explicit_matrix(grid_2d) @ x)

    def test_symmetric(self, grid_2d):
        dense = as_dense(StencilOperator(grid_2d))
        assert np.allclose(dense, dense.T)

    def test_positive_definite(self, grid_2d):
        eigvals = np.linalg.eigvalsh(as_dense(StencilOperator(grid_2d)))
        assert np.all(eigvals > 0)

    def test_shape_and_dimension_check(self, grid_2d):
        op = StencilOperator(grid_2d)
        assert op.shape == (36, 36)
        with pytest.raises(ValueError):
            op.matvec(np.ones(5))

    def test_3d_operator(self, rng):
        g = Grid(shape=(3, 3, 3), spacing=0.25, timestep=0.01)
        x = rng.random(g.num_points)
        assert np.allclose(StencilOperator(g).matvec(x), explicit_matrix(g) @ x)


@pytest.fixture
def spd_system(grid_2d, rng):
    op = StencilOperator(grid_2d)
    x_true = rng.random(grid_2d.num_points)
    return op, op.matvec(x_true), x_true


class TestConjugateGradient:
    def test_solves_spd_system(self, spd_system):
        op, b, x_true = spd_system
        res = conjugate_gradient(op, b, tol=1e-12)
        assert res.converged
        assert np.linalg.norm(res.x - x_true) < 1e-8

    def test_works_with_dense_operator(self, grid_2d, rng):
        dense = explicit_matrix(grid_2d)
        x_true = rng.random(grid_2d.num_points)
        res = conjugate_gradient(dense, dense @ x_true, tol=1e-12)
        assert np.allclose(res.x, x_true, atol=1e-7)

    def test_initial_guess_respected(self, spd_system):
        op, b, x_true = spd_system
        res = conjugate_gradient(op, b, x0=x_true, tol=1e-10)
        assert res.iterations == 0
        assert res.converged

    def test_residual_history_monotone_overall(self, spd_system):
        op, b, _ = spd_system
        res = conjugate_gradient(op, b, tol=1e-12)
        assert res.residual_norms[-1] < res.residual_norms[0]

    def test_max_iterations_cap(self, spd_system):
        op, b, _ = spd_system
        res = conjugate_gradient(op, b, tol=1e-16, max_iterations=2)
        assert res.iterations <= 2

    def test_callback_invoked(self, spd_system):
        op, b, _ = spd_system
        seen = []
        conjugate_gradient(op, b, tol=1e-12, callback=lambda k, x: seen.append(k))
        assert seen == list(range(1, len(seen) + 1))

    def test_shape_mismatch(self, spd_system):
        op, b, _ = spd_system
        with pytest.raises(ValueError):
            conjugate_gradient(op, b, x0=np.zeros(3))

    def test_converges_in_at_most_n_iterations(self, grid_1d, rng):
        op = StencilOperator(grid_1d)
        b = rng.random(grid_1d.num_points)
        res = conjugate_gradient(op, b, tol=1e-12)
        assert res.iterations <= grid_1d.num_points


@given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=1000))
@settings(max_examples=30, deadline=None)
def test_cg_solves_random_spd_systems(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.random((n, n))
    a = m @ m.T + n * np.eye(n)  # SPD, well conditioned
    x_true = rng.random(n)
    assert np.allclose(conjugate_gradient(a, a @ x_true, tol=1e-12).x, x_true,
                       atol=1e-6)


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=50))
@settings(max_examples=20, deadline=None)
def test_stencil_operator_symmetry_random_vectors(n, seed):
    rng = np.random.default_rng(seed)
    g = Grid(shape=(n, n))
    op = StencilOperator(g)
    x, y = rng.random(g.num_points), rng.random(g.num_points)
    # <Ax, y> == <x, Ay> for the symmetric heat operator
    assert np.isclose(op.matvec(x) @ y, x @ op.matvec(y))
