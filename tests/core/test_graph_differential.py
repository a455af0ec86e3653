"""Shuffled-order differential suite: every CDAG order and traversal query
against the dict-of-names references in ``reference_graph.py``.

The other equivalence suites build their random DAGs in index order with
edges ``i -> j`` for ``i < j``, so insertion order is already a
topological order and Kahn's insertion-order tie-break is barely
exercised.  Here the vertices are inserted in a shuffled order and the
edges in a shuffled order (so successor lists are unsorted too), with the
tags drawn at random.
"""

import random

import pytest

from repro.core import (
    CDAG,
    dfs_schedule,
    min_liveset_schedule,
    schedule_wavefronts,
    topological_schedule,
)

import reference_graph as reference

SEEDS = range(120)


def shuffled_dag(seed: int) -> CDAG:
    """A seeded random DAG on 8-30 vertices whose insertion order is a
    random permutation of a hidden topological order."""
    rng = random.Random(seed)
    n = rng.randint(8, 30)
    p = rng.choice((0.08, 0.15, 0.3))
    names = [("s", i) for i in range(n)]
    edges = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    rng.shuffle(edges)
    verts = list(names)
    rng.shuffle(verts)
    inputs = [v for v in verts if rng.random() < 0.2]
    outputs = [v for v in verts if rng.random() < 0.2]
    if seed % 2:
        return CDAG.from_edge_list(
            verts, edges, inputs, outputs, name=f"shuf{seed}"
        )
    return CDAG(verts, edges, inputs, outputs, name=f"shuf{seed}")


@pytest.mark.parametrize("seed", SEEDS)
def test_queries_match_reference(seed):
    cdag = shuffled_dag(seed)
    topo = cdag.topological_order()
    assert topo == reference.topological_order(cdag)
    assert cdag.depth() == reference.depth(cdag)
    assert cdag.stats() == reference.stats(cdag)
    for v in cdag.vertices:
        assert cdag.ancestors(v) == reference.ancestors(cdag, v)
        assert cdag.descendants(v) == reference.descendants(cdag, v)
    schedules = [
        topo,
        dfs_schedule(cdag),
        dfs_schedule(cdag, reverse_roots=True),
        min_liveset_schedule(cdag),
    ]
    assert schedules[0] == topological_schedule(cdag)
    assert schedules[1] == reference.dfs_schedule(cdag)
    assert schedules[2] == reference.dfs_schedule(cdag, reverse_roots=True)
    assert schedules[3] == reference.min_liveset_schedule(cdag)
    for sched in schedules:
        assert schedule_wavefronts(cdag, sched) == (
            reference.schedule_wavefronts(cdag, sched)
        )


def test_insertion_order_is_not_topological():
    """The family is not trivially sorted: most seeds insert some vertex
    before one of its predecessors."""
    unsorted = 0
    for seed in SEEDS:
        cdag = shuffled_dag(seed)
        pos = {v: i for i, v in enumerate(cdag.vertices)}
        unsorted += any(pos[u] > pos[v] for u, v in cdag.edges())
    assert unsorted >= 0.9 * len(SEEDS)
