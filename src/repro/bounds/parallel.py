"""Parallel lower bounds: vertical and horizontal data movement (Section 4).

Two kinds of data movement are distinguished in the P-RBW model:

* **vertical** — through the memory hierarchy inside a node (DRAM <-> L2,
  L2 <-> L1, ...);
* **horizontal** — across nodes through the interconnect (remote gets).

The paper gives three lower bounds, all reproduced here as checked
functions operating on problem-level quantities:

* **Theorem 5** — the most-loaded level-``l`` storage instance moves at
  least ``IO_1(C, sum_{k<l} N_k * S_k) / N_l`` words across its link to
  the levels below, where ``IO_1(C, S)`` is the *sequential* I/O lower
  bound of the CDAG with a fast memory of ``S`` words.  (Divide the
  sequential bound over the ``N_l`` instances.)  The paper writes the
  fast memory as ``N_{l-1} * S_{l-1}``, which holds when every value
  below level ``l-1`` also sits at level ``l-1``.  Definition 6 does not
  ask for that: R7 may delete a cache copy while the register copy
  stays.  So every level below ``l`` acts as fast memory for the
  level-``l`` link, and the sum is the capacity that keeps the bound
  below every legal game.
* **Theorem 6** — alternatively, using the largest-2S-partition quantity
  ``U(C, 2S_{l-1})``:
  ``IO_vert >= (|V| / (U(C,2S_{l-1}) * N_l) - N_{l-1}/N_l) * S_{l-1}``,
  approximately ``|V| * S_{l-1} / (U * N_l)``.
* **Theorem 7** — the node whose processors perform the most compute
  issues at least ``(|V| / (U(C, 2S_L) * P_i) - 1) * S_L`` remote gets,
  where ``P_i`` is the number of processors in that node's group.

The functions take the already-derived sequential quantities (``IO_1`` or
``U``) as arguments so that either the closed-form per-algorithm values
(:mod:`repro.bounds.analytical`) or the graph-derived estimates
(:mod:`repro.bounds.hong_kung`, :mod:`repro.bounds.mincut`) can be plugged
in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..pebbling.hierarchy import MemoryHierarchy

__all__ = [
    "ParallelBound",
    "vertical_bound_from_sequential",
    "vertical_bound_from_U",
    "horizontal_bound_from_U",
    "vertical_bound_theorem5",
    "vertical_bound_theorem6",
    "horizontal_bound_theorem7",
]


@dataclass(frozen=True)
class ParallelBound:
    """A lower bound on per-instance data movement in the parallel model.

    Attributes
    ----------
    value:
        Lower bound on the number of words moved at the identified
        storage instance (the maximally loaded one).
    level:
        The hierarchy level the bound applies to (``None`` for the
        horizontal/interconnect bound).
    kind:
        ``"vertical"`` or ``"horizontal"``.
    """

    value: float
    kind: str
    level: Optional[int] = None


# ----------------------------------------------------------------------
# Raw formulas (problem-level quantities)
# ----------------------------------------------------------------------
def vertical_bound_from_sequential(io_sequential: float, num_instances: int) -> float:
    """Theorem 5 formula: ``IO_1(C, sum_{k<l} N_k S_k) / N_l``."""
    if num_instances < 1:
        raise ValueError("the hierarchy needs at least one instance")
    if io_sequential < 0:
        raise ValueError("sequential I/O bound cannot be negative")
    return io_sequential / num_instances


def vertical_bound_from_U(
    num_operations: float,
    u_2s: float,
    n_l: int,
    n_l_minus_1: int,
    s_l_minus_1: float,
) -> float:
    """Theorem 6 formula:
    ``[|V| / (U(C,2S_{l-1}) * N_l) - N_{l-1}/N_l] * S_{l-1}``.
    """
    if u_2s <= 0 or n_l < 1 or n_l_minus_1 < 1 or s_l_minus_1 <= 0:
        raise ValueError("invalid parameters for Theorem 6")
    h = num_operations / (u_2s * n_l) - n_l_minus_1 / n_l
    return max(0.0, h * s_l_minus_1)


def horizontal_bound_from_U(
    num_operations: float, u_2s_top: float, processors_per_node: int, s_top: float
) -> float:
    """Theorem 7 formula: ``(|V| / (U(C,2S_L) * P_i) - 1) * S_L``."""
    if u_2s_top <= 0 or processors_per_node < 1 or s_top <= 0:
        raise ValueError("invalid parameters for Theorem 7")
    h = num_operations / (u_2s_top * processors_per_node) - 1.0
    return max(0.0, h * s_top)


# ----------------------------------------------------------------------
# Hierarchy-aware wrappers
# ----------------------------------------------------------------------
def vertical_bound_theorem5(
    hierarchy: MemoryHierarchy,
    level: int,
    sequential_io_bound,
) -> ParallelBound:
    """Theorem 5 against a concrete hierarchy.

    Parameters
    ----------
    hierarchy:
        The machine model; ``level`` must satisfy ``2 <= level <= L``.
    sequential_io_bound:
        Either a number — the value of ``IO_1(C, sum_{k<l} N_k * S_k)`` —
        or a callable taking that capacity, the total words at every
        level below ``level``, and returning the value (so algorithm
        modules can pass their closed forms directly).  For ``level ==
        2`` the capacity is the register total ``N_1 * S_1``.
    """
    if not 2 <= level <= hierarchy.num_levels:
        raise ValueError("vertical bounds apply to levels 2..L")
    below = [hierarchy.aggregate_capacity(k) for k in range(1, level)]
    if callable(sequential_io_bound):
        if None in below:
            raise ValueError(
                "a level below has unbounded capacity; pass a numeric bound"
            )
        io1 = float(sequential_io_bound(sum(below)))
    else:
        io1 = float(sequential_io_bound)
    value = vertical_bound_from_sequential(io1, hierarchy.instances(level))
    return ParallelBound(value=value, kind="vertical", level=level)


def vertical_bound_theorem6(
    hierarchy: MemoryHierarchy,
    level: int,
    num_operations: float,
    u_2s,
) -> ParallelBound:
    """Theorem 6 against a concrete hierarchy.

    ``u_2s`` is either a number — ``U(C, 2 S_{l-1})`` — or a callable
    taking ``2 * S_{l-1}`` and returning it.
    """
    if not 2 <= level <= hierarchy.num_levels:
        raise ValueError("vertical bounds apply to levels 2..L")
    s_child = hierarchy.capacity(level - 1)
    if s_child is None:
        raise ValueError("child level must have bounded capacity")
    u_value = float(u_2s(2 * s_child)) if callable(u_2s) else float(u_2s)
    value = vertical_bound_from_U(
        num_operations=num_operations,
        u_2s=u_value,
        n_l=hierarchy.instances(level),
        n_l_minus_1=hierarchy.instances(level - 1),
        s_l_minus_1=s_child,
    )
    return ParallelBound(value=value, kind="vertical", level=level)


def horizontal_bound_theorem7(
    hierarchy: MemoryHierarchy,
    num_operations: float,
    u_2s_top,
    s_top: Optional[float] = None,
) -> ParallelBound:
    """Theorem 7 against a concrete hierarchy.

    ``u_2s_top`` is ``U(C, 2 S_L)`` or a callable of ``2 * S_L``.  When
    the top-level capacity is unbounded in the hierarchy object (the
    common modelling choice), an explicit ``s_top`` — the effective
    per-node memory in words — must be supplied.
    """
    L = hierarchy.num_levels
    cap = hierarchy.capacity(L)
    if cap is None and s_top is None:
        raise ValueError(
            "top-level capacity is unbounded; pass s_top explicitly"
        )
    s_val = float(cap if cap is not None else s_top)
    u_value = float(u_2s_top(2 * s_val)) if callable(u_2s_top) else float(u_2s_top)
    value = horizontal_bound_from_U(
        num_operations=num_operations,
        u_2s_top=u_value,
        processors_per_node=hierarchy.processors_per_instance(L),
        s_top=s_val,
    )
    return ParallelBound(value=value, kind="horizontal", level=None)
