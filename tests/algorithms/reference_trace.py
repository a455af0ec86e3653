"""Reference oracle for the CDAG builders: a tracer that records the data
flow of real numerical code, and the traced builders written with it.

Code written against :class:`TracedValue` / :class:`TracedArray` adds
one CDAG vertex per scalar operation while it also computes the number.
So a traced CDAG is the data flow of a program whose output the tests
check against NumPy or against the vectorised solver here
(:func:`conjugate_gradient` on a :class:`StencilOperator`).  The traced
builders are then compared with the library's structural builders
(``test_linalg_and_composite.py``, ``test_cg_gmres_cdags.py``,
``tests/integration/test_end_to_end.py``).  None of this is part of the
library: the paper analyses these CDAGs and never runs the solvers.

:class:`Grid` carries the implicit heat system of the paper's Section
5.1 on ``n_1 x ... x n_d`` interior points: the diagonal ``1 + d a`` and
off-diagonal ``-a/2`` of its matrix, with ``a = alpha k / h^2``, and the
right-hand side built from the previous timestep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.algorithms.cg import stencil_neighbors
from repro.core.cdag import CDAG, Vertex

__all__ = [
    "CDAGBuilder",
    "TraceContext",
    "TracedValue",
    "TracedArray",
    "Grid",
    "StencilOperator",
    "CGResult",
    "conjugate_gradient",
    "traced_cg_cdag",
    "traced_gmres_cdag",
    "traced_matmul",
    "traced_outer_product",
    "traced_dot",
    "traced_composite",
]

Number = Union[int, float]


# ----------------------------------------------------------------------
# The tracer
# ----------------------------------------------------------------------
class CDAGBuilder:
    """Incremental CDAG construction with fresh symbolic vertex names.

    Each ``operation`` call wires its operands to a new vertex, as one
    scalar operation appears in the CDAG model.
    """

    def __init__(self, name: str = "cdag") -> None:
        self._cdag = CDAG(name=name, validate=False)
        self._counter = 0

    def fresh(self, prefix: str = "v") -> Vertex:
        """Return a fresh unique vertex name."""
        self._counter += 1
        return f"{prefix}_{self._counter}"

    def add_input(self, v: Optional[Vertex] = None, prefix: str = "in") -> Vertex:
        """Add (and tag) an input vertex."""
        v = v if v is not None else self.fresh(prefix)
        self._cdag.add_vertex(v)
        self._cdag.tag_input(v)
        return v

    def operation(
        self,
        operands: Sequence[Vertex],
        v: Optional[Vertex] = None,
        prefix: str = "op",
        output: bool = False,
    ) -> Vertex:
        """Add a compute vertex consuming ``operands``; optionally tag as output."""
        v = v if v is not None else self.fresh(prefix)
        self._cdag.add_vertex(v)
        for u in operands:
            self._cdag.add_edge(u, v)
        if output:
            self._cdag.tag_output(v)
        return v

    def mark_output(self, v: Vertex) -> None:
        self._cdag.tag_output(v)

    def build(self, validate: bool = True, hong_kung: bool = False) -> CDAG:
        """Finalize and return the CDAG."""
        if validate:
            self._cdag.validate(hong_kung=hong_kung)
        return self._cdag


class TraceContext:
    """Owns the CDAG under construction and mints traced values.

    Typical use::

        ctx = TraceContext("dot")
        x = ctx.input_array(np.arange(4.0), prefix="x")
        y = ctx.input_array(np.ones(4), prefix="y")
        s = (x * y).sum()
        ctx.mark_output(s)
        cdag = ctx.build()
        assert s.value == 6.0
    """

    def __init__(self, name: str = "trace") -> None:
        self._builder = CDAGBuilder(name=name)
        self._num_ops = 0

    # -- value creation -------------------------------------------------
    def constant(self, value: Number, prefix: str = "const") -> "TracedValue":
        """A constant that does not count as a CDAG input (embedded in the
        program text, like the stencil coefficients of Section 5.1)."""
        v = self._builder.fresh(prefix)
        self._builder._cdag.add_vertex(v)
        return TracedValue(self, v, float(value), is_constant=True)

    def input_scalar(self, value: Number, name: Optional[Vertex] = None,
                     prefix: str = "in") -> "TracedValue":
        v = self._builder.add_input(name, prefix=prefix)
        return TracedValue(self, v, float(value))

    def input_array(
        self, values: Sequence[Number], prefix: str = "in"
    ) -> "TracedArray":
        vals = np.asarray(values, dtype=float)
        flat = [
            self.input_scalar(x, name=(prefix,) + idx)
            for idx, x in np.ndenumerate(vals)
        ]
        return TracedArray(np.array(flat, dtype=object).reshape(vals.shape), self)

    # -- graph operations ------------------------------------------------
    def _operation(
        self, operands: Sequence["TracedValue"], value: float, prefix: str
    ) -> "TracedValue":
        vertex = self._builder.operation(
            [o.vertex for o in operands if not o.is_constant], prefix=prefix
        )
        self._num_ops += 1
        return TracedValue(self, vertex, value)

    def mark_output(self, value: Union["TracedValue", "TracedArray"]) -> None:
        if isinstance(value, TracedArray):
            for v in value.flat():
                self._builder.mark_output(v.vertex)
        else:
            self._builder.mark_output(value.vertex)

    @property
    def num_operations(self) -> int:
        """Number of compute vertices recorded so far (the |V - I| count)."""
        return self._num_ops

    def build(self, validate: bool = True) -> CDAG:
        return self._builder.build(validate=validate)


class TracedValue:
    """A scalar value that records the operations applied to it."""

    __slots__ = ("ctx", "vertex", "value", "is_constant")

    def __init__(
        self,
        ctx: TraceContext,
        vertex: Vertex,
        value: float,
        is_constant: bool = False,
    ) -> None:
        self.ctx = ctx
        self.vertex = vertex
        self.value = float(value)
        self.is_constant = is_constant

    def _coerce(self, other: Union["TracedValue", Number]) -> "TracedValue":
        if isinstance(other, TracedValue):
            return other
        return self.ctx.constant(other)

    def _binop(self, other, value: float, prefix: str) -> "TracedValue":
        other = self._coerce(other)
        return self.ctx._operation([self, other], value, prefix)

    def __add__(self, other):
        o = self._coerce(other)
        return self._binop(o, self.value + o.value, "add")

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        o = self._coerce(other)
        return self._binop(o, self.value - o.value, "sub")

    def __rsub__(self, other):
        o = self._coerce(other)
        return o._binop(self, o.value - self.value, "sub")

    def __mul__(self, other):
        o = self._coerce(other)
        return self._binop(o, self.value * o.value, "mul")

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        o = self._coerce(other)
        return self._binop(o, self.value / o.value, "div")

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o._binop(self, o.value / self.value, "div")

    def __neg__(self):
        return self.ctx._operation([self], -self.value, "neg")

    def sqrt(self) -> "TracedValue":
        return self.ctx._operation([self], float(np.sqrt(self.value)), "sqrt")


class TracedArray:
    """A dense array of :class:`TracedValue` with NumPy-like helpers:
    elementwise arithmetic, dot products, axpy updates, matrix-vector
    products and norms.  Each helper both computes and extends the CDAG.
    """

    def __init__(self, data: np.ndarray, ctx: TraceContext) -> None:
        self._data = data  # object ndarray of TracedValue
        self.ctx = ctx

    @property
    def shape(self) -> Tuple[int, ...]:
        return self._data.shape

    def __len__(self) -> int:
        return len(self._data)

    def __getitem__(self, idx) -> Union["TracedArray", TracedValue]:
        out = self._data[idx]
        if isinstance(out, np.ndarray):
            return TracedArray(out, self.ctx)
        return out

    def __setitem__(self, idx, value) -> None:
        self._data[idx] = value

    def flat(self) -> List[TracedValue]:
        return list(self._data.flat)

    def values(self) -> np.ndarray:
        """The numerical contents as a plain float ndarray."""
        return np.array(
            [v.value for v in self._data.flat], dtype=float
        ).reshape(self.shape)

    def copy(self) -> "TracedArray":
        return TracedArray(self._data.copy(), self.ctx)

    def _elementwise(self, other, op) -> "TracedArray":
        if isinstance(other, TracedArray):
            if other.shape != self.shape:
                raise ValueError("shape mismatch")
            flat = [op(a, b) for a, b in zip(self._data.flat, other._data.flat)]
        else:
            flat = [op(a, other) for a in self._data.flat]
        return TracedArray(
            np.array(flat, dtype=object).reshape(self.shape), self.ctx
        )

    def __add__(self, other):
        return self._elementwise(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._elementwise(other, lambda a, b: a - b)

    def __mul__(self, other):
        return self._elementwise(other, lambda a, b: a * b)

    def __rmul__(self, other):
        return self.__mul__(other)

    def scale(self, alpha: Union[TracedValue, Number]) -> "TracedArray":
        return self._elementwise(alpha, lambda a, b: a * b)

    def axpy(self, alpha, other: "TracedArray") -> "TracedArray":
        """``self + alpha * other`` (the SAXPY of the CG/GMRES pseudocode)."""
        return self + other.scale(alpha)

    def sum(self) -> TracedValue:
        flat = self.flat()
        if not flat:
            raise ValueError("cannot reduce an empty array")
        acc = flat[0]
        for v in flat[1:]:
            acc = acc + v
        return acc

    def dot(self, other: "TracedArray") -> TracedValue:
        return (self * other).sum()

    def norm2_squared(self) -> TracedValue:
        return self.dot(self)

    def norm2(self) -> TracedValue:
        return self.norm2_squared().sqrt()

    def matvec(self, x: "TracedArray") -> "TracedArray":
        """Dense matrix-vector product (self must be 2-D)."""
        if len(self.shape) != 2:
            raise ValueError("matvec requires a 2-D array")
        m, n = self.shape
        if x.shape != (n,):
            raise ValueError("dimension mismatch in matvec")
        rows = []
        for i in range(m):
            acc = self._data[i, 0] * x._data[0]
            for j in range(1, n):
                acc = acc + self._data[i, j] * x._data[j]
            rows.append(acc)
        return TracedArray(np.array(rows, dtype=object), self.ctx)


# ----------------------------------------------------------------------
# The implicit heat system and the vectorised CG it is solved with
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Grid:
    """A regular d-dimensional grid for the heat problem.

    ``shape`` counts the *interior* points along each dimension (the
    Dirichlet boundary is not an unknown); ``spacing`` is ``h`` (default
    ``1 / (max(shape) + 1)``), ``timestep`` is ``k`` (default
    ``h^2 / 2``) and ``diffusivity`` is ``alpha``.
    """

    shape: Tuple[int, ...]
    spacing: float = None  # type: ignore[assignment]
    timestep: float = None  # type: ignore[assignment]
    diffusivity: float = 1.0

    def __post_init__(self) -> None:
        shape = tuple(int(n) for n in self.shape)
        object.__setattr__(self, "shape", shape)
        if not shape or any(n < 1 for n in shape):
            raise ValueError("grid needs at least one interior point per dim")
        h = self.spacing if self.spacing is not None else 1.0 / (max(shape) + 1)
        k = self.timestep if self.timestep is not None else 0.5 * h * h
        object.__setattr__(self, "spacing", float(h))
        object.__setattr__(self, "timestep", float(k))
        if self.spacing <= 0 or self.timestep <= 0 or self.diffusivity <= 0:
            raise ValueError("spacing, timestep and diffusivity must be positive")

    @property
    def ndim(self) -> int:
        """Dimensionality ``d`` of the grid."""
        return len(self.shape)

    @property
    def num_points(self) -> int:
        """Number of unknowns ``n_1 * ... * n_d``."""
        return int(np.prod(self.shape))

    @property
    def mesh_ratio(self) -> float:
        """``a = alpha * k / h^2``, the coefficient of system (11)."""
        return self.diffusivity * self.timestep / (self.spacing ** 2)

    def implicit_rhs(self, u_prev: np.ndarray) -> np.ndarray:
        """Right-hand side of system (11):
        ``b = (a/2) * sum_neighbours u_prev + (1 - d*a) * u_prev``.

        In 1-D this is the paper's
        ``a/2 U(i-1,m) + (1-a) U(i,m) + a/2 U(i+1,m)``.
        """
        u = np.asarray(u_prev, dtype=float).reshape(self.shape)
        a = self.mesh_ratio
        return ((1.0 - self.ndim * a) * u + 0.5 * a * _neighbour_sum(u)).reshape(-1)

    def implicit_matrix_diagonals(self) -> Tuple[float, float]:
        """(diagonal, off-diagonal) coefficients of the implicit system:
        ``1 + d*a`` and ``-a/2`` along each axis."""
        a = self.mesh_ratio
        return (1.0 + self.ndim * a, -0.5 * a)


def _neighbour_sum(u: np.ndarray) -> np.ndarray:
    """Sum over each point's interior axis neighbours (zero boundary)."""
    acc = np.zeros_like(u)
    for axis in range(u.ndim):
        lo = [slice(None)] * u.ndim
        hi = [slice(None)] * u.ndim
        lo[axis] = slice(1, None)
        hi[axis] = slice(None, -1)
        acc[tuple(lo)] += u[tuple(hi)]
        acc[tuple(hi)] += u[tuple(lo)]
    return acc


@dataclass(frozen=True)
class StencilOperator:
    """Matrix-free (2d+1)-point operator of the implicit heat system:
    ``(A u)_i = diag * u_i + off * sum_{j ~ i} u_j`` over the axis
    neighbours ``j`` of point ``i``.  Symmetric positive definite, as CG
    requires.
    """

    grid: Grid

    @property
    def shape(self) -> Tuple[int, int]:
        n = self.grid.num_points
        return (n, n)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.grid.num_points,):
            raise ValueError("dimension mismatch in stencil matvec")
        diag, off = self.grid.implicit_matrix_diagonals()
        u = x.reshape(self.grid.shape)
        return (diag * u + off * _neighbour_sum(u)).reshape(-1)


@dataclass
class CGResult:
    """Outcome of a CG solve; ``residual_norms[0]`` is the initial residual."""

    x: np.ndarray
    iterations: int
    converged: bool
    residual_norms: List[float] = field(default_factory=list)


def conjugate_gradient(
    operator,
    b: np.ndarray,
    x0: Optional[np.ndarray] = None,
    tol: float = 1e-10,
    max_iterations: Optional[int] = None,
    callback: Optional[Callable[[int, np.ndarray], None]] = None,
) -> CGResult:
    """Solve ``A x = b`` for a symmetric positive-definite operator (the
    recurrence of the paper's Figure 3).

    ``operator`` has a ``matvec(x)`` method or is a dense ndarray; ``tol``
    is relative, ``||r|| <= tol * ||b||``; ``max_iterations`` defaults to
    the system size; ``callback(iteration, x)`` runs after each update.
    """
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    matvec = operator.matvec if hasattr(operator, "matvec") else (
        lambda v: np.asarray(operator) @ v
    )
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    if x.shape != b.shape:
        raise ValueError("x0 and b must have the same shape")
    max_iterations = n if max_iterations is None else int(max_iterations)

    r = b - matvec(x)
    p = r.copy()
    rr = float(r @ r)
    b_norm = float(np.linalg.norm(b)) or 1.0
    residuals = [float(np.sqrt(rr))]
    if residuals[0] <= tol * b_norm:
        return CGResult(x=x, iterations=0, converged=True, residual_norms=residuals)

    converged = False
    it = 0
    for it in range(1, max_iterations + 1):
        v = matvec(p)                        # SpMV
        pv = float(p @ v)
        if pv == 0.0:
            break
        a = rr / pv                          # dot products
        x = x + a * p                        # saxpy
        r_new = r - a * v                    # saxpy
        rr_new = float(r_new @ r_new)
        g = rr_new / rr                      # dot product (reused)
        p = r_new + g * p                    # saxpy
        r, rr = r_new, rr_new
        residuals.append(float(np.sqrt(rr)))
        if callback is not None:
            callback(it, x)
        if residuals[-1] <= tol * b_norm:
            converged = True
            break
    return CGResult(x=x, iterations=it, converged=converged, residual_norms=residuals)


# ----------------------------------------------------------------------
# Traced builders
# ----------------------------------------------------------------------
def _ramp(grid: Grid) -> np.ndarray:
    """A ramp vector: the sine mode is an eigenvector of the stencil
    operator, on which CG converges in one step and Arnoldi breaks down
    after one, leaving degenerate CDAGs."""
    return 1.0 + np.arange(grid.num_points, dtype=float) / grid.num_points


def _traced_stencil_matvec(grid: Grid, vec: TracedArray) -> TracedArray:
    diag, off = grid.implicit_matrix_diagonals()
    out = vec.copy()
    for g in np.ndindex(*grid.shape):
        acc = vec[g] * diag
        for nb in stencil_neighbors(grid.shape, g):
            acc = acc + vec[nb] * off
        out[g] = acc
    return out


def traced_cg_cdag(grid: Grid, iterations: int = 1) -> Tuple[np.ndarray, CDAG]:
    """Trace ``iterations`` CG steps on the implicit heat system of ``grid``,
    from ``x = 0`` with the right-hand side ``implicit_rhs(ramp)``; return
    the final iterate and the recorded CDAG."""
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    ctx = TraceContext("traced-cg")
    b_values = grid.implicit_rhs(_ramp(grid))
    b = ctx.input_array(b_values.reshape(grid.shape), prefix="b")

    # x = 0 so r = b, p = r.
    r = b.copy()
    p = b.copy()
    x = None  # represented lazily: x = sum of updates
    rr = r.dot(r)
    for _ in range(iterations):
        v = _traced_stencil_matvec(grid, p)
        a = rr / p.dot(v)
        if x is None:
            x = p.scale(a)
        else:
            x = x + p.scale(a)
        r_new = r - v.scale(a)
        rr_new = r_new.dot(r_new)
        g_scalar = rr_new / rr
        p = r_new + p.scale(g_scalar)
        r, rr = r_new, rr_new
    ctx.mark_output(x)
    ctx.mark_output(r)
    return x.values().reshape(-1), ctx.build()


def traced_gmres_cdag(
    grid: Grid, krylov_iterations: int = 2
) -> Tuple[np.ndarray, CDAG]:
    """Trace ``m`` Arnoldi iterations (modified Gram-Schmidt) on ``grid``,
    from the normalised ``implicit_rhs(ramp)``; return the final Krylov
    basis vector and the CDAG."""
    if krylov_iterations < 1:
        raise ValueError("krylov_iterations must be >= 1")
    ctx = TraceContext("traced-gmres")
    r0 = grid.implicit_rhs(_ramp(grid))
    v0_vals = (r0 / float(np.linalg.norm(r0))).reshape(grid.shape)
    basis = [ctx.input_array(v0_vals, prefix="v0")]
    for i in range(krylov_iterations):
        w = _traced_stencil_matvec(grid, basis[i])
        for j in range(i + 1):
            h_ji = w.dot(basis[j])
            w = w - basis[j].scale(h_ji)
        h_next = w.norm2()
        basis.append(w.scale(1.0 / h_next) if h_next.value != 0 else w)
    ctx.mark_output(basis[-1])
    return basis[-1].values().reshape(-1), ctx.build()


def traced_matmul(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, CDAG]:
    """Execute ``C = A @ B`` scalar-by-scalar under the tracer; inputs are
    named ``("A", i, k)`` and ``("B", k, j)`` as in ``matmul_cdag``."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError("incompatible matrix shapes")
    ctx = TraceContext("traced-matmul")
    ta = ctx.input_array(a, prefix="A")
    tb = ctx.input_array(b, prefix="B")
    n, k = a.shape
    m = b.shape[1]
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = ta[i, 0] * tb[0, j]
            for kk in range(1, k):
                acc = acc + ta[i, kk] * tb[kk, j]
            ctx.mark_output(acc)
            out[i, j] = acc.value
    return out, ctx.build()


def traced_outer_product(p: np.ndarray, q: np.ndarray) -> Tuple[np.ndarray, CDAG]:
    """Traced outer product ``A = p q^T`` (Section 3, first step); inputs
    are named ``("p", i)`` and ``("q", j)`` as in ``outer_product_cdag``."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.ndim != 1 or q.ndim != 1:
        raise ValueError("outer product expects two vectors")
    ctx = TraceContext("traced-outer")
    tp = ctx.input_array(p, prefix="p")
    tq = ctx.input_array(q, prefix="q")
    out = np.zeros((len(p), len(q)))
    for i in range(len(p)):
        for j in range(len(q)):
            prod = tp[i] * tq[j]
            ctx.mark_output(prod)
            out[i, j] = prod.value
    return out, ctx.build()


def traced_dot(x: np.ndarray, y: np.ndarray) -> Tuple[float, CDAG]:
    """Traced ``<x, y>``, accumulated left to right; inputs are named
    ``("x", i)`` and ``("y", i)`` as in ``dot_product_cdag``."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("dot product expects two vectors of one length")
    ctx = TraceContext("traced-dot")
    s = ctx.input_array(x, prefix="x").dot(ctx.input_array(y, prefix="y"))
    ctx.mark_output(s)
    return s.value, ctx.build()


def traced_composite(
    p: np.ndarray, q: np.ndarray, r: np.ndarray, s: np.ndarray
) -> Tuple[float, CDAG]:
    """Traced Section 3 composite ``sum((p q^T)(r s^T))``, which equals
    ``(q . r) * sum_i p_i * sum_j s_j``; returns (sum, CDAG).  It
    recomputes ``A`` and ``B`` elements where ``composite_cdag`` shares
    them."""
    arrays = [np.asarray(v, dtype=float) for v in (p, q, r, s)]
    n = len(arrays[0])
    if any(a.shape != (n,) for a in arrays):
        raise ValueError("all four vectors must have the same length")
    ctx = TraceContext("traced-composite")
    tp, tq, tr, ts = (
        ctx.input_array(a, prefix=name) for a, name in zip(arrays, "pqrs")
    )
    total = None
    for i in range(n):
        for j in range(n):
            acc = None
            for k in range(n):
                a_ik = tp[i] * tq[k]
                b_kj = tr[k] * ts[j]
                prod = a_ik * b_kj
                acc = prod if acc is None else acc + prod
            total = acc if total is None else total + acc
    ctx.mark_output(total)
    return total.value, ctx.build()
