"""Randomized differential suite: the plain-Python max-flow
(:mod:`repro.core.flow`, behind
:class:`repro.core.properties.WavefrontSolver`) against the
Edmonds-Karp oracle (``reference_maxflow.py``).

hypothesis draws a seeded random DAG of at most 40 vertices from the
two families of ``test_flow_differential.py``: ``make_random_dag``
(one input; sinks are outputs) and ``retagged_dag`` (several sources,
interior inputs and outputs).  On each DAG:

* ``min_wavefront`` of every vertex equals the oracle's;
* ``vertex_cut_ids`` on random source and target sets equals the
  oracle's vertex cut, also when the sets share vertices (a vertex in
  both is a one-vertex path);
* ``find_lines`` finds as many lines as the oracle's input-to-output
  cut, each a real input-to-output path, pairwise disjoint;
* the pruned ``automated_wavefront_bound`` equals the unpruned maximum
  over the same ``_candidate_ids``, ties going to the first in rank.

``hypothesis`` is a test extra (``pip install .[test]``); the module
skips cleanly when it is absent so tier-1 never hard-depends on it.
"""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.bounds.lines import find_lines  # noqa: E402
from repro.bounds.mincut import (  # noqa: E402
    _candidate_ids,
    automated_wavefront_bound,
)
from repro.core import min_wavefront  # noqa: E402

from reference_maxflow import min_wavefront as reference_min_wavefront  # noqa: E402
from reference_maxflow import vertex_cut  # noqa: E402
from test_flow_differential import build, check_lines  # noqa: E402

# ``random_dag`` is a function-scoped fixture, but it only hands out the
# stateless ``make_random_dag`` factory, so sharing it across examples
# is safe.
_SETTINGS = dict(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

dags = st.tuples(
    st.sampled_from(["random", "retagged"]),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=40),
)


@given(case=dags)
@settings(**_SETTINGS)
def test_min_wavefront_of_every_vertex(random_dag, case):
    cdag = build(random_dag, *case)
    for v in cdag.vertices:
        assert min_wavefront(cdag, v) == reference_min_wavefront(cdag, v), v


@given(case=dags, draw_seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(**_SETTINGS)
def test_vertex_cut_on_random_sets(random_dag, case, draw_seed):
    cdag = build(random_dag, *case)
    c = cdag.compiled()
    rng = random.Random(draw_seed)
    vertices = list(cdag.vertices)
    for _ in range(4):
        sources = rng.sample(vertices, rng.randint(1, len(vertices)))
        targets = rng.sample(vertices, rng.randint(1, len(vertices)))
        if rng.random() < 0.5:  # force shared vertices
            targets += rng.sample(sources, rng.randint(1, len(sources)))
        got = c.wavefront_solver().vertex_cut_ids(
            c.ids_of(sources), c.ids_of(targets)
        )
        assert got == vertex_cut(cdag, sources, targets), (sources, targets)


@given(case=dags)
@settings(**_SETTINGS)
def test_find_lines_count_and_paths(random_dag, case):
    cdag = build(random_dag, *case)
    lines = find_lines(cdag)
    assert len(lines) == vertex_cut(cdag, cdag.inputs, cdag.outputs)
    check_lines(cdag, lines)


@given(case=dags, max_candidates=st.sampled_from([1, 4, 32]))
@settings(**_SETTINGS)
def test_pruned_bound_equals_unpruned_maximum(random_dag, case,
                                               max_candidates):
    cdag = build(random_dag, *case)
    c = cdag.compiled()
    best, best_vertex = 0, None
    for i in _candidate_ids(cdag, max_candidates):
        w = reference_min_wavefront(cdag, c.vertex(i))
        if w > best:
            best, best_vertex = w, c.vertex(i)
    bound = automated_wavefront_bound(cdag, 3, max_candidates=max_candidates)
    assert (bound.wavefront, bound.vertex) == (best, best_vertex)
