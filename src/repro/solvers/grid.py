"""Finite-difference discretization of the heat equation (Section 5.1).

The paper's evaluation analyses iterative solvers for the linear systems
that arise from discretizing the heat equation

``du/dt = alpha * d^2u/dx^2``

on a d-dimensional unit domain with an implicit (backward-in-time,
centred-in-space) scheme.  For the 1-D bar, the system at every timestep
is the tridiagonal system (11) of the paper:

``(-a/2) U(i-1, m+1) + (1+a) U(i, m+1) + (-a/2) U(i+1, m+1) = b(i, m)``

with ``a = k / h^2`` and the right-hand side built from the previous
timestep.  In ``d`` dimensions the coefficient matrix is the
``n^d x n^d`` (2d+1)-diagonal matrix of the implicit scheme; in practice
(as the paper notes) the matrix entries are never stored — they are
constants embedded in the operator — which is why the solvers below work
matrix-free through :class:`repro.solvers.sparse.StencilOperator`.

:class:`Grid` carries the geometry (extents, spacing, timestep) and
provides index <-> coordinate maps, boundary handling, the per-timestep
right-hand side, and an exact reference solution for validation
(a decaying sine mode, for which the continuous heat equation has a
closed-form solution).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

__all__ = ["Grid", "stencil_neighbors"]


def stencil_neighbors(
    shape: Sequence[int], idx: Sequence[int]
) -> List[Tuple[int, ...]]:
    """Interior axis neighbours (±1 along each dimension) of the point
    ``idx`` of a grid of extents ``shape``, axis by axis, minus first."""
    out: List[Tuple[int, ...]] = []
    for axis in range(len(shape)):
        for sign in (-1, 1):
            j = list(idx)
            j[axis] += sign
            if 0 <= j[axis] < shape[axis]:
                out.append(tuple(j))
    return out


@dataclass(frozen=True)
class Grid:
    """A regular d-dimensional grid for the heat problem.

    Parameters
    ----------
    shape:
        Number of *interior* points along each dimension
        (``n_1, ..., n_d``); the boundary points carry the (zero)
        Dirichlet boundary condition and are not unknowns.
    spacing:
        Grid spacing ``h`` (the same along every dimension, matching the
        paper's uniform bar).
    timestep:
        Time step ``k``.
    diffusivity:
        Thermal diffusivity ``alpha`` (the paper takes ``alpha = 1``).
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

    # ------------------------------------------------------------------
    @property
    def ndim(self) -> int:
        """Dimensionality ``d`` of the grid."""
        return len(self.shape)

    @property
    def num_points(self) -> int:
        """Number of unknowns ``n_1 * ... * n_d`` (``n^d`` for cubes)."""
        out = 1
        for n in self.shape:
            out *= n
        return out

    @property
    def mesh_ratio(self) -> float:
        """``a = alpha * k / h^2``, the coefficient of system (11)."""
        return self.diffusivity * self.timestep / (self.spacing ** 2)

    # ------------------------------------------------------------------
    # Index helpers
    # ------------------------------------------------------------------
    def points(self) -> Iterable[Tuple[int, ...]]:
        """Iterate over all interior multi-indices."""
        return itertools.product(*[range(n) for n in self.shape])

    def ravel(self, idx: Sequence[int]) -> int:
        """Flatten a multi-index into a linear unknown index."""
        return int(np.ravel_multi_index(tuple(idx), self.shape))

    def unravel(self, k: int) -> Tuple[int, ...]:
        """Inverse of :meth:`ravel`."""
        return tuple(int(x) for x in np.unravel_index(k, self.shape))

    def neighbors(self, idx: Sequence[int]) -> List[Tuple[int, ...]]:
        """Interior axis neighbours (±1 along each dimension) of a point."""
        return stencil_neighbors(self.shape, idx)

    def coordinates(self, idx: Sequence[int]) -> Tuple[float, ...]:
        """Physical coordinates of an interior point (boundary at 0 and 1)."""
        return tuple((i + 1) * self.spacing for i in idx)

    # ------------------------------------------------------------------
    # Heat-equation specifics
    # ------------------------------------------------------------------
    def initial_condition(self, mode: int = 1) -> np.ndarray:
        """A sine initial condition ``u(x, 0) = prod_d sin(pi m x_d)``.

        Sine modes are eigenfunctions of the Laplacian with Dirichlet
        boundaries, so the exact continuous solution stays a (decaying)
        sine mode — ideal for validating the solvers.
        """
        u = np.ones(self.shape, dtype=float)
        for axis, n in enumerate(self.shape):
            x = (np.arange(n) + 1) * self.spacing
            profile = np.sin(math.pi * mode * x)
            shape = [1] * self.ndim
            shape[axis] = n
            u = u * profile.reshape(shape)
        return u.reshape(-1)

    def exact_solution(self, t: float, mode: int = 1) -> np.ndarray:
        """Exact solution of the continuous heat equation at time ``t`` for
        the sine initial condition."""
        decay = math.exp(
            -self.diffusivity * self.ndim * (math.pi * mode) ** 2 * t
        )
        return decay * self.initial_condition(mode)

    def implicit_rhs(self, u_prev: np.ndarray) -> np.ndarray:
        """Right-hand side ``b(., m)`` of the Crank-Nicolson-style system (11).

        ``b = (a/2) * sum_neighbours u_prev + (1 - d*a) * u_prev`` in
        ``d`` dimensions (the 1-D case reduces exactly to the paper's
        ``a/2 U(i-1,m) + (1-a) U(i,m) + a/2 U(i+1,m)``).
        """
        u = np.asarray(u_prev, dtype=float).reshape(self.shape)
        a = self.mesh_ratio
        acc = (1.0 - self.ndim * a) * u
        for axis in range(self.ndim):
            lower = np.zeros_like(u)
            upper = np.zeros_like(u)
            sl_lo = [slice(None)] * self.ndim
            sl_hi = [slice(None)] * self.ndim
            sl_lo[axis] = slice(1, None)
            sl_hi[axis] = slice(None, -1)
            lower[tuple(sl_lo)] = u[tuple(sl_hi)]
            upper[tuple(sl_hi)] = u[tuple(sl_lo)]
            acc = acc + 0.5 * a * (lower + upper)
        return acc.reshape(-1)

    def implicit_matrix_diagonals(self) -> Tuple[float, float]:
        """(diagonal, off-diagonal) coefficients of the implicit system.

        Diagonal ``1 + d*a``, off-diagonal ``-a/2`` along each axis —
        the d-dimensional generalisation of the tridiagonal matrix (11).
        """
        a = self.mesh_ratio
        return (1.0 + self.ndim * a, -0.5 * a)
