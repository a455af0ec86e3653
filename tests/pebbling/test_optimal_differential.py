"""Differential suite: the bitmask A* search against the reference oracle.

:func:`repro.pebbling.optimal_rbw_io` must return the same exact optimum
as the original frozenset uniform-cost search (``reference_optimal.py``)
on every E7 CDAG and on seeded random layered DAGs, at the smallest
feasible pebble count and the two above it.

The reference needs up to ~420k expansions per E7 case, so the E7
optima are the table below, recorded once with the uncapped reference
(``reference_optimal.optimal_rbw_io(cdag, s)`` for each
``bound_validation_cases(s=1)`` entry at ``s``, ``s + 1``, ``s + 2``).
The random DAGs (at most 8 vertices) run the reference live, capped at
``REFERENCE_BUDGET`` expansions; a case it cannot finish inside the cap
is skipped rather than slowing the suite down.
"""

import random

import pytest
from reference_optimal import optimal_rbw_io as reference_optimal_rbw_io

from repro.core import CDAG
from repro.evaluation.experiments import bound_validation_cases
from repro.pebbling import SearchBudgetExceeded, optimal_rbw_io

REFERENCE_BUDGET = 10_000

#: reference IO_S at S = min, min + 1, min + 2 for each E7 CDAG
E7_REFERENCE_IO = {
    "reduction tree (8 leaves)": (15, 11, 9),
    "diamond 4x3": (12, 10, 8),
    "outer product 2x2": (9, 8, 8),
    "dot-then-axpy n=2": (9, 8, 7),
    "butterfly n=4": (14, 11, 9),
    "stencil 3x(T=2)": (8, 6, 6),
}


def random_layered_cdag(seed: int, max_vertices: int = 8) -> CDAG:
    """A seeded random layered DAG of at most ``max_vertices`` vertices.

    Every vertex past the first layer draws 1-3 operands, mostly from the
    layer above.  Some first-layer sources stay untagged (operations with
    no operands), some interior vertices are outputs, and some sinks are
    not.
    """
    rng = random.Random(seed)
    n = rng.randint(5, max_vertices)
    width = rng.randint(2, 4)
    layers = [list(range(width))]
    v = width
    while v < n:
        size = min(rng.randint(1, 4), n - v)
        layers.append(list(range(v, v + size)))
        v += size
    edges = set()
    for depth in range(1, len(layers)):
        earlier = [u for layer in layers[:depth] for u in layer]
        for w in layers[depth]:
            fan_in = min(rng.randint(1, 3), len(earlier))
            ops = set(rng.sample(layers[depth - 1], 1))
            while len(ops) < fan_in:
                ops.add(rng.choice(earlier))
            edges.update((u, w) for u in ops)
    has_succ = {u for u, _ in edges}
    inputs = [u for u in layers[0] if rng.random() < 0.8]
    outputs = [
        u for u in range(n)
        if (u not in has_succ and rng.random() < 0.9)
        or (u in has_succ and u not in layers[0] and rng.random() < 0.15)
    ]
    return CDAG.from_edge_list(
        vertices=range(n),
        edges=sorted(edges),
        inputs=inputs,
        outputs=outputs,
        name=f"layered{seed}",
    )


def min_pebbles(cdag: CDAG) -> int:
    return max(
        (cdag.in_degree(v) + 1 for v in cdag.vertices if not cdag.is_input(v)),
        default=1,
    )


def assert_matches_reference(cdag: CDAG, num_red: int) -> None:
    try:
        expected = reference_optimal_rbw_io(
            cdag, num_red, max_states=REFERENCE_BUDGET
        ).io
    except SearchBudgetExceeded:
        pytest.skip(f"reference exceeds {REFERENCE_BUDGET} expansions")
    assert optimal_rbw_io(cdag, num_red).io == expected


def test_e7_cdags_match_reference():
    cases = bound_validation_cases(s=1)
    assert {name for name, _, _ in cases} == set(E7_REFERENCE_IO)
    for name, cdag, s in cases:
        got = tuple(optimal_rbw_io(cdag, s + extra).io for extra in range(3))
        assert got == E7_REFERENCE_IO[name], name


@pytest.mark.parametrize("extra", [0, 1, 2])
@pytest.mark.parametrize("seed", range(50))
def test_random_layered_dags_match_reference(seed, extra):
    cdag = random_layered_cdag(seed)
    assert_matches_reference(cdag, min_pebbles(cdag) + extra)


def test_generator_covers_the_tagging_cases():
    cdags = [random_layered_cdag(seed) for seed in range(50)]
    assert all(c.num_vertices() <= 8 for c in cdags)
    assert {max(c.in_degree(v) for v in c.vertices) for c in cdags} >= {2, 3}
    assert any(  # untagged sources
        not c.is_input(v) and c.in_degree(v) == 0
        for c in cdags for v in c.vertices
    )
    assert any(  # interior outputs
        c.is_output(v) and c.out_degree(v) > 0
        for c in cdags for v in c.vertices
    )
