"""Differential suite: the shared scipy flow network vs an independent
max-flow (``reference_maxflow.py``).

:func:`repro.bounds.lines.find_lines` and
:func:`repro.core.properties.minimal_dominator_size` both answer through
:class:`repro.core.properties.WavefrontSolver`.  On seeded random DAGs
of 30 vertices the number of lines must equal the oracle's
input-to-output vertex-disjoint max-flow, every line must be a real,
disjoint input-to-output path, ``max_lines`` must cap the count, and the
dominator size of random target sets must equal the oracle's vertex cut.

Two families: ``make_random_dag`` from ``tests/conftest.py`` (one input,
sinks are outputs; dominators are taken from random source sets), and
DAGs with several sources whose tags include non-sink outputs and inputs
with predecessors, where a line may run on past an output.
"""

import random

import pytest

from repro.bounds.lines import find_lines
from repro.core import CDAG, minimal_dominator_size

from reference_maxflow import vertex_cut

N = 30


def retagged_dag(seed: int, n: int = N) -> CDAG:
    """A seeded random DAG with several sources; every source is an
    input and every sink an output, plus random extra inputs and
    outputs in the interior."""
    rng = random.Random(seed)
    p = rng.uniform(0.05, 0.25)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    cdag = CDAG(range(n), edges, name=f"retag{seed}")
    for v in range(n):
        if cdag.in_degree(v) == 0 or rng.random() < 0.1:
            cdag.tag_input(v)
        if cdag.out_degree(v) == 0 or rng.random() < 0.2:
            cdag.tag_output(v)
    return cdag


CASES = [("random", seed) for seed in range(80)] + [
    ("retagged", seed) for seed in range(160)
]


def build(random_dag, family: str, seed: int, n: int = N) -> CDAG:
    if family == "random":
        return random_dag(seed, n)
    return retagged_dag(seed, n)


def check_lines(cdag: CDAG, lines) -> None:
    seen = set()
    for path in lines:
        assert cdag.is_input(path[0]), path
        assert cdag.is_output(path[-1]), path
        for u, v in zip(path, path[1:]):
            assert cdag.has_edge(u, v), (u, v)
        assert not seen & set(path), path
        seen |= set(path)


def test_find_lines_matches_reference_maxflow(random_dag):
    multi = 0
    for family, seed in CASES:
        cdag = build(random_dag, family, seed)
        lines = find_lines(cdag)
        expected = vertex_cut(cdag, cdag.inputs, cdag.outputs)
        assert len(lines) == expected, (family, seed)
        check_lines(cdag, lines)
        for k in (0, 1, 2):
            capped = find_lines(cdag, max_lines=k)
            assert len(capped) == min(k, expected), (family, seed, k)
            check_lines(cdag, capped)
        multi += expected >= 2
    # non-vacuous: most retagged DAGs have several disjoint lines
    assert multi >= 100


@pytest.mark.parametrize("family", ["random", "retagged"])
def test_minimal_dominator_size_matches_reference_maxflow(random_dag, family):
    rng = random.Random(7)
    sizes = set()
    for family_, seed in CASES:
        if family_ != family:
            continue
        cdag = build(random_dag, family, seed)
        vertices = list(cdag.vertices)
        for _ in range(3):
            targets = rng.sample(vertices, rng.randint(1, 8))
            sources = (
                rng.sample(vertices, rng.randint(1, 8))
                if family == "random" else None
            )
            got = minimal_dominator_size(cdag, targets, sources=sources)
            want = vertex_cut(
                cdag, cdag.inputs if sources is None else sources, targets
            )
            assert got == want, (family, seed, sources, targets)
            sizes.add(got)
    assert max(sizes) >= 3  # non-vacuous
