"""S-partitions of CDAGs (Hong-Kung and RBW variants).

The 2S-partitioning technique of Hong & Kung relates any complete pebble
game with ``S`` red pebbles to a partition of the CDAG into ``h`` subsets
each "touching" at most ``2S`` boundary values, giving the key lower bound
``Q >= S * (h_min - 1)`` (Lemma 1).

Two flavours of the partition conditions exist in the paper:

* **Hong-Kung S-partition** (Definition 3): a partition of *all* vertices
  ``V`` into subsets ``V_1..V_h`` such that

  - P1: the subsets are disjoint and cover ``V``;
  - P2: no circuit between subsets (no pair of subsets with edges in both
    directions);
  - P3: each ``V_i`` has a dominator set of size at most ``S``;
  - P4: ``|Min(V_i)| <= S``.

* **RBW S-partition** (Definition 5): a partition of the *operation*
  vertices ``V - I`` such that P1, P2 hold and

  - P3': ``|In(V_i)| <= S``;
  - P4': ``|Out(V_i)| <= S``.

This module provides a partition container plus validity checkers for both
variants, a constructor that extracts a 2S-partition from an executed RBW
game (the constructive direction of Theorem 1, used for validation tests),
and greedy partition *upper-bound* estimators for ``U(2S)`` (the largest
admissible vertex-set size), which plugs into Corollary 1 and Theorems 6/7.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from .cdag import CDAG, CDAGError, Vertex
from .properties import in_set, minimal_dominator_size, minimum_set, out_set

__all__ = [
    "SPartition",
    "PartitionViolation",
    "check_hong_kung_partition",
    "check_rbw_partition",
    "greedy_rbw_partition",
    "partition_from_schedule",
    "largest_admissible_subset",
]


class PartitionViolation(CDAGError):
    """Raised (or collected) when a partition violates P1-P4."""


@dataclass
class SPartition:
    """A candidate S-partition: an ordered list of disjoint vertex subsets.

    Attributes
    ----------
    subsets:
        The vertex subsets ``V_1, ..., V_h`` in order.
    s:
        The value of ``S`` the partition is claimed to be valid for
        (a *2S*-partition obtained from a game with ``S`` red pebbles has
        ``s = 2 * S_pebbles``).
    """

    subsets: List[Set[Vertex]]
    s: int

    @property
    def h(self) -> int:
        """Number of subsets in the partition."""
        return len(self.subsets)

    def all_vertices(self) -> Set[Vertex]:
        out: Set[Vertex] = set()
        for sub in self.subsets:
            out |= sub
        return out

    def subset_of(self, v: Vertex) -> Optional[int]:
        """Index of the subset containing ``v``, or None."""
        for i, sub in enumerate(self.subsets):
            if v in sub:
                return i
        return None

    def largest_subset_size(self) -> int:
        return max((len(s) for s in self.subsets), default=0)


def _check_disjoint_cover(
    partition: SPartition, expected: Set[Vertex]
) -> List[str]:
    errors: List[str] = []
    seen: Set[Vertex] = set()
    for i, sub in enumerate(partition.subsets):
        overlap = seen & sub
        if overlap:
            errors.append(
                f"P1 violated: subset {i} overlaps earlier subsets on "
                f"{sorted(map(repr, overlap))[:3]}"
            )
        seen |= sub
    missing = expected - seen
    extra = seen - expected
    if missing:
        errors.append(
            f"P1 violated: {len(missing)} vertices uncovered, e.g. "
            f"{sorted(map(repr, missing))[:3]}"
        )
    if extra:
        errors.append(
            f"P1 violated: {len(extra)} foreign vertices, e.g. "
            f"{sorted(map(repr, extra))[:3]}"
        )
    return errors


def _check_no_circuits(cdag: CDAG, partition: SPartition) -> List[str]:
    """P2: no pair of subsets with edges in both directions.

    Implemented on the quotient graph in O(|E|) rather than pairwise.
    """
    errors: List[str] = []
    owner: Dict[Vertex, int] = {}
    for i, sub in enumerate(partition.subsets):
        for v in sub:
            owner[v] = i
    forward: Set[Tuple[int, int]] = set()
    for u, v in cdag.edges():
        iu, iv = owner.get(u), owner.get(v)
        if iu is None or iv is None or iu == iv:
            continue
        forward.add((iu, iv))
    for (a, b) in forward:
        if (b, a) in forward and a < b:
            errors.append(f"P2 violated: circuit between subsets {a} and {b}")
    return errors


def check_hong_kung_partition(
    cdag: CDAG, partition: SPartition, exact_dominator: bool = False
) -> List[str]:
    """Validate a Hong-Kung S-partition (Definition 3).  Returns violations.

    Parameters
    ----------
    exact_dominator:
        When True, the minimum dominator size of each subset is computed
        exactly via max-flow.  When False (default) a cheaper sufficient
        check is used first (``In(V_i) ∪ (I ∩ V_i)`` is always a
        dominator), falling back to the exact computation only when the
        cheap dominator is too large.
    """
    errors = _check_disjoint_cover(partition, set(cdag.vertices))
    errors += _check_no_circuits(cdag, partition)
    s = partition.s
    known_vertices = set(cdag.vertices)
    for i, sub in enumerate(partition.subsets):
        sub = set(sub) & known_vertices
        if not sub:
            continue
        # P3: exists a dominator of size <= S.
        cheap = in_set(cdag, sub) | (set(cdag.inputs) & sub)
        if len(cheap) > s or exact_dominator:
            dom_size = minimal_dominator_size(cdag, sub)
            if dom_size > s:
                errors.append(
                    f"P3 violated: subset {i} has minimum dominator "
                    f"{dom_size} > S={s}"
                )
        # P4: |Min(V_i)| <= S.
        msize = len(minimum_set(cdag, sub))
        if msize > s:
            errors.append(
                f"P4 violated: subset {i} has |Min| = {msize} > S={s}"
            )
    return errors


def check_rbw_partition(cdag: CDAG, partition: SPartition) -> List[str]:
    """Validate an RBW S-partition (Definition 5).  Returns violations.

    The partition must cover ``V - I`` (operation vertices only) and each
    subset must satisfy ``|In(V_i)| <= S`` and ``|Out(V_i)| <= S``.
    """
    expected = set(cdag.vertices) - set(cdag.inputs)
    errors = _check_disjoint_cover(partition, expected)
    errors += _check_no_circuits(cdag, partition)
    s = partition.s
    known_vertices = set(cdag.vertices)
    for i, sub in enumerate(partition.subsets):
        # Foreign vertices are already reported by the P1 check; restrict
        # the structural checks to the vertices that belong to the CDAG.
        sub = set(sub) & known_vertices
        if not sub:
            continue
        isize = len(in_set(cdag, sub))
        if isize > s:
            errors.append(
                f"P3 violated: subset {i} has |In| = {isize} > S={s}"
            )
        osize = len(out_set(cdag, sub))
        if osize > s:
            errors.append(
                f"P4 violated: subset {i} has |Out| = {osize} > S={s}"
            )
    return errors


def partition_from_game(cdag: CDAG, moves, s: int) -> SPartition:
    """Build the ``2S``-partition associated with a game (Theorem 1 proof).

    The constructive direction of Theorem 1 slices a complete game with
    ``S`` red pebbles into consecutive phases containing (at most) ``S``
    I/O transitions each; the vertices *computed* during phase ``i`` form
    the subset ``V_i``.  Because at most ``S`` values can enter a phase
    from slow memory and at most ``S`` can already be in fast memory when
    it starts (and symmetrically for outputs), every ``V_i`` satisfies the
    RBW ``2S``-partition conditions, and the number of phases ``h``
    satisfies ``S*h >= q >= S*(h-1)`` where ``q`` is the game's I/O count.

    Parameters
    ----------
    cdag:
        The CDAG the game was played on.
    moves:
        The move sequence of a complete game: a
        :class:`~repro.pebbling.state.GameRecord`, its columnar
        :class:`~repro.pebbling.state.MoveLog` (``record.moves``), or any
        iterable of :class:`~repro.pebbling.state.Move` objects.  Anything
        but a log bound to ``cdag``'s compiled snapshot is transcoded into
        one first (:func:`~repro.pebbling.state.bound_log`; an unknown
        vertex raises :class:`~repro.pebbling.state.GameError`), and the
        phases are sliced vectorized over the opcode column.
    s:
        The number of red pebbles the game used.
    """
    # local import to avoid a core <-> pebbling cycle
    from ..pebbling.state import OP_COMPUTE, OP_LOAD, OP_STORE, bound_log

    c = cdag.compiled()
    log = bound_log(moves, c)
    verts = c._verts
    by_phase: Dict[int, Set[Vertex]] = {}
    # Number of I/O moves strictly before each move; the phase of a
    # compute is how many times the "(S+1)-th I/O closes the phase" rule
    # has fired before it.  Chunk at a time (spilled logs stay
    # memory-flat, and only the opcode + vertex-id column files are paged
    # in): ``io_seen`` carries the count across chunks.
    io_seen = 0
    for kinds, vids in log.select_columns("kinds", "vertex_ids"):
        io_mask = (kinds == OP_LOAD) | (kinds == OP_STORE)
        io_before = io_seen + np.cumsum(io_mask) - io_mask
        compute_mask = kinds == OP_COMPUTE
        phases = np.maximum(0, (io_before[compute_mask] - 1) // s)
        fired = vids[compute_mask]
        for ph, vid in zip(phases.tolist(), fired.tolist()):
            by_phase.setdefault(ph, set()).add(verts[vid])
        io_seen += int(io_mask.sum())
    return SPartition(
        subsets=[by_phase[ph] for ph in sorted(by_phase)], s=2 * s
    )


def partition_from_schedule(
    cdag: CDAG, schedule: Sequence[Vertex], s: int
) -> SPartition:
    """Build an RBW ``2S``-partition by greedily cutting a schedule.

    This mirrors the constructive direction of Theorem 1: walking a valid
    execution order, we close the current subset as soon as adding the
    next vertex would push ``|In|`` or ``|Out|`` beyond ``2S``.  The
    resulting partition is always a valid RBW ``2S``-partition (each
    subset is a contiguous slice of a topological order, so P2 holds),
    and its ``h`` upper-bounds ``H(2S)``, hence the implied bound
    ``S*(h-1)`` *under*-estimates nothing — it is primarily used for
    cross-checking and for empirical ``U(2S)`` estimation.

    The In/Out sets of the growing subset are maintained *incrementally*
    over the compiled CDAG: adding a vertex touches only its own edges,
    and closing a subset on an over-limit add rolls the last add back.
    Total cost is ``O(|V| + |E|)`` instead of the seed's
    ``O(|V| * |V_i| * deg)`` full recomputation per step.
    """
    c = cdag.compiled()
    is_input = c.is_input_mask.tolist()
    is_output = c.is_output_mask.tolist()
    pred_lists = c.pred_lists
    out_degree = c.out_degree.tolist()
    succ_lists = c.succ_lists

    ops = [i for i in c.ids_of(schedule) if not is_input[i]]
    limit = 2 * s
    subsets: List[Set[Vertex]] = []

    member = bytearray(c.n)  # membership flags of the *current* subset
    members: List[int] = []
    in_ids: Set[int] = set()  # In(V_i): outside vertices feeding the subset
    out_ids: Set[int] = set()  # Out(V_i): members that are outputs / feed out
    # Number of successors outside the current subset, per member.
    outside_succ = [0] * c.n

    def add(i: int):
        """Add ``i`` to the current subset; return an undo log."""
        undo: List[Tuple[int, int]] = []  # (what, vertex-id) pairs
        if i in in_ids:
            in_ids.remove(i)
            undo.append((0, i))  # 0: re-add to in_ids
        for p in pred_lists[i]:
            if member[p]:
                outside_succ[p] -= 1
                undo.append((1, p))  # 1: re-increment outside_succ
                if outside_succ[p] == 0 and not is_output[p] and p in out_ids:
                    out_ids.remove(p)
                    undo.append((2, p))  # 2: re-add to out_ids
            elif p not in in_ids:
                in_ids.add(p)
                undo.append((3, p))  # 3: remove from in_ids
        member[i] = 1
        members.append(i)
        # In a valid schedule no successor of i has fired yet, but count
        # members defensively so non-topological schedules keep the exact
        # seed semantics.
        outside = out_degree[i]
        for w in succ_lists[i]:
            if member[w]:
                outside -= 1
        outside_succ[i] = outside
        if is_output[i] or outside > 0:
            out_ids.add(i)
            undo.append((4, i))  # 4: remove from out_ids
        return undo

    def rollback(i: int, undo) -> None:
        member[i] = 0
        members.pop()
        for what, p in reversed(undo):
            if what == 0:
                in_ids.add(p)
            elif what == 1:
                outside_succ[p] += 1
            elif what == 2:
                out_ids.add(p)
            elif what == 3:
                in_ids.remove(p)
            elif what == 4:
                out_ids.discard(p)

    def close_subset() -> None:
        verts = c._verts
        subsets.append({verts[i] for i in members})
        for i in members:
            member[i] = 0
        members.clear()
        in_ids.clear()
        out_ids.clear()

    for i in ops:
        had_members = bool(members)
        undo = add(i)
        if had_members and (len(in_ids) > limit or len(out_ids) > limit):
            rollback(i, undo)
            close_subset()
            add(i)
    if members:
        close_subset()
    return SPartition(subsets=subsets, s=limit)


def greedy_rbw_partition(cdag: CDAG, s: int) -> SPartition:
    """Greedy RBW ``2S``-partition along a default topological order."""
    return partition_from_schedule(cdag, cdag.topological_order(), s)


def largest_admissible_subset(
    cdag: CDAG,
    s: int,
    schedules: Optional[Iterable[Sequence[Vertex]]] = None,
) -> int:
    """Empirical estimate of ``U(2S)``: the largest subset size achievable
    in a valid ``2S``-partition.

    ``U(2S)`` appears in Corollary 1 and Theorems 6/7: the parallel lower
    bounds take the form ``(|V| / U(C, 2S) - 1) * S``.  For the algorithms
    analysed in the paper, closed forms of ``U`` are known (e.g.
    ``U = 4S*(2S)^{1/d}`` for d-dimensional Jacobi); this function gives a
    *lower* bound on the true ``U(2S)`` by construction (any valid subset
    exhibits feasibility), which turns the derived I/O bound into an
    *upper* estimate of the true lower bound — useful for sanity-checking
    the closed forms on small instances, not as a certified bound.

    The estimator greedily grows subsets along one or more schedules and
    reports the largest subset seen.
    """
    best = 0
    pools = list(schedules) if schedules is not None else [cdag.topological_order()]
    for sched in pools:
        part = partition_from_schedule(cdag, sched, s)
        best = max(best, part.largest_subset_size())
    return best
