"""Min-cut / wavefront lower bounds (Section 3.3, Lemma 2).

The 2S-partitioning technique looks only at the *boundaries* of partitions;
the min-cut approach captures *internal* storage requirements via the
abstraction of wavefronts:

* for any vertex ``x`` of a CDAG without input vertices, any valid
  execution must, at the instant ``x`` fires, keep alive every vertex of
  the schedule wavefront ``W_P(x)``;
* the minimum possible wavefront at ``x`` over all valid executions is
  the vertex min-cut ``|W^min_G(x)|`` between ``{x} ∪ Anc(x)`` and
  ``Desc(x)``;
* values in excess of the fast memory capacity ``S`` must make a round
  trip to slow memory, giving **Lemma 2**:

  ``IO(C) >= 2 * (|W^min_G(x)| - S)``   for every ``x``, and hence
  ``IO(C) >= 2 * (w^max_G - S)``.

The paper uses hand-identified wavefront vertices (the dot-product results
of CG and GMRES, whose ``2 n^d`` predecessors all reach the descendants
through disjoint paths) and mentions an automated heuristic.  This module
provides both: exact per-vertex evaluation through max-flow
(:func:`repro.core.properties.min_wavefront`) and a candidate-selection
heuristic that avoids running a max-flow per vertex on large CDAGs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from ..core.cdag import CDAG, Vertex
from ..core.properties import max_min_wavefront, min_wavefront

__all__ = [
    "MinCutBound",
    "wavefront_lower_bound",
    "best_wavefront_lower_bound",
    "heuristic_wavefront_candidates",
    "automated_wavefront_bound",
]


@dataclass(frozen=True)
class MinCutBound:
    """A Lemma 2 lower bound.

    Attributes
    ----------
    value:
        The lower bound ``2 * (wavefront - S)`` (floored at zero).
    wavefront:
        The wavefront size used.
    s:
        The fast-memory capacity assumed.
    vertex:
        The vertex inducing the wavefront (None when unknown).
    """

    value: float
    wavefront: int
    s: int
    vertex: Optional[Vertex] = None


def _check_s(s: int) -> None:
    if s < 0:
        raise ValueError("S cannot be negative")


def wavefront_lower_bound(cdag: CDAG, x: Vertex, s: int) -> MinCutBound:
    """Lemma 2 for a specific vertex: ``IO >= 2 (|W^min_G(x)| - S)``.

    The lemma is stated for CDAGs without input vertices (``I = ∅``);
    for CDAGs with inputs the bound still holds for the *untagged* CDAG
    and can be transferred back via Theorem 3, which the caller is
    responsible for (see :mod:`repro.bounds.composition`).
    """
    _check_s(s)
    w = min_wavefront(cdag, x)
    return MinCutBound(value=max(0.0, 2.0 * (w - s)), wavefront=w, s=s, vertex=x)


def best_wavefront_lower_bound(
    cdag: CDAG, s: int, candidates: Optional[Iterable[Vertex]] = None
) -> MinCutBound:
    """Lemma 2 with ``w^max``: maximise the wavefront over candidate vertices."""
    _check_s(s)
    w, x = max_min_wavefront(cdag, candidates)
    return MinCutBound(value=max(0.0, 2.0 * (w - s)), wavefront=w, s=s, vertex=x)


def _candidate_scores(cdag: CDAG):
    """Per-vertex heuristic scores and layers over the compiled CDAG.

    Returns ``(compiled, score, layer)`` where ``score``/``layer`` are
    id-indexed lists.  One topological pass each; no name hashing.
    """
    c = cdag.compiled()
    succ_lists = c.succ_lists
    topo = c.topological_order_ids().tolist()

    # Longest-path layer of each vertex (cheap, one topological pass).
    layer = c.layers().tolist()

    # Cheap ancestor-count proxy: number of *distinct input vertices*
    # reaching v, capped; computed by a capped bitset-free propagation of
    # counts (over-counts shared ancestors, hence only a heuristic score).
    is_input = c.is_input_mask.tolist()
    in_degree = c.in_degree.tolist()
    out_degree = c.out_degree.tolist()
    reach = [
        1.0 if (is_input[v] or in_degree[v] == 0) else 0.0
        for v in range(c.n)
    ]
    for v in topo:
        rv = reach[v]
        for w in succ_lists[v]:
            nw = reach[w] + rv
            reach[w] = nw if nw < 1e9 else 1e9

    score = [
        (reach[v] if out_degree[v] > 0 else 0.0) + in_degree[v]
        for v in range(c.n)
    ]
    return c, score, layer


def _candidate_ids(cdag: CDAG, max_candidates: int) -> List[int]:
    """Candidate vertex ids, ranked by heuristic score (descending)."""
    if max_candidates < 1:
        raise ValueError(
            f"max_candidates must be >= 1, got {max_candidates}"
        )
    if cdag.num_vertices() == 0:
        return []
    c, score, layer = _candidate_scores(cdag)
    ranked = sorted(range(c.n), key=score.__getitem__, reverse=True)
    picked = ranked[:max_candidates]
    # Ensure per-layer coverage.
    chosen = set(picked)
    best_per_layer: dict = {}
    for v in range(c.n):
        cur = best_per_layer.get(layer[v])
        if cur is None or score[v] > score[cur]:
            best_per_layer[layer[v]] = v
    for v in best_per_layer.values():
        if v not in chosen:
            picked.append(v)
            chosen.add(v)
    return picked


def heuristic_wavefront_candidates(
    cdag: CDAG, max_candidates: int = 32
) -> List[Vertex]:
    """Pick promising vertices for the automated wavefront bound.

    Intuition (matching how the paper picks its wavefront vertices):
    vertices that *join* many independent data streams — reduction roots,
    scalars produced from whole vectors — induce large wavefronts, because
    their ancestors must all have fired while their descendants (which the
    same vectors also feed) have not.  We therefore rank vertices by a
    cheap structural score:

    ``score(x) = (#ancestors capped) * has_descendants + in_degree``

    and keep the top ``max_candidates``, always including the
    highest-in-degree vertex of each "layer" (distance from the sources)
    so that deep CDAGs get candidates spread over their depth.
    """
    ids = _candidate_ids(cdag, max_candidates)
    return cdag.compiled().vertices_of(ids) if ids else []


def automated_wavefront_bound(
    cdag: CDAG, s: int, max_candidates: int = 32
) -> MinCutBound:
    """The automated heuristic: candidate selection + exact min-cut on each.

    Returns the best (largest) Lemma 2 bound found.  Because every
    candidate's bound is individually valid, taking the maximum is valid;
    the heuristic only affects tightness, never soundness.

    Candidates are evaluated best-score-first
    (:meth:`~repro.core.properties.WavefrontSolver.max_min_wavefront_ids`),
    with two sound prunes: a sink candidate contributes a wavefront of
    exactly 1, and a candidate whose two extreme convex cuts — ``S =
    {x} ∪ Anc(x)`` and ``T = Desc(x)`` — already have a wavefront of at
    most ``best`` cannot beat the incumbent, so its max-flow is skipped.
    Neither prune skips a strictly better candidate, so the result is
    the first best candidate in rank order.
    """
    _check_s(s)
    ids = _candidate_ids(cdag, max_candidates)
    c = cdag.compiled()
    best, best_id = c.wavefront_solver().max_min_wavefront_ids(ids)
    return MinCutBound(
        value=max(0.0, 2.0 * (best - s)), wavefront=best, s=s,
        vertex=None if best_id is None else c.vertex(best_id),
    )
