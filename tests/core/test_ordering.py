"""Unit tests for schedule generation."""

import re

import numpy as np
import pytest

from repro.core import (
    CDAG,
    chain_cdag,
    dfs_schedule,
    dfs_schedule_ids,
    diamond_cdag,
    max_schedule_wavefront,
    min_liveset_schedule,
    min_liveset_schedule_ids,
    outer_product_cdag,
    priority_schedule,
    reduction_tree_cdag,
    topological_schedule,
    validate_schedule,
)
from repro.core.cdag import CDAGError

import reference_graph as reference


ALL_SCHEDULERS = [topological_schedule, dfs_schedule, min_liveset_schedule]


@pytest.mark.parametrize("scheduler", ALL_SCHEDULERS)
@pytest.mark.parametrize(
    "cdag_factory",
    [
        lambda: chain_cdag(6),
        lambda: reduction_tree_cdag(9),
        lambda: diamond_cdag(5, 4),
        lambda: outer_product_cdag(3),
    ],
)
def test_schedules_are_valid_total_orders(scheduler, cdag_factory):
    cdag = cdag_factory()
    sched = scheduler(cdag)
    validate_schedule(cdag, sched)
    assert len(sched) == cdag.num_vertices()


class TestValidateSchedule:
    def test_rejects_duplicates(self):
        c = chain_cdag(2)
        with pytest.raises(Exception):
            validate_schedule(
                c, [("chain", 0), ("chain", 0), ("chain", 1), ("chain", 2)]
            )

    def test_rejects_missing_vertices(self):
        c = chain_cdag(2)
        with pytest.raises(Exception):
            validate_schedule(c, [("chain", 0)])

    def test_rejects_dependence_violation(self):
        c = chain_cdag(2)
        with pytest.raises(Exception):
            validate_schedule(c, [("chain", 1), ("chain", 0), ("chain", 2)])

    def test_violation_names_the_violated_edge(self):
        c = chain_cdag(2)
        with pytest.raises(CDAGError, match=re.escape(
            "violates dependence ('chain', 1) -> ('chain', 2)"
        )):
            validate_schedule(c, [("chain", 0), ("chain", 2), ("chain", 1)])

    def test_edgeless_cdag_accepts_any_order_of_all_vertices(self):
        c = CDAG.from_edge_list(
            vertices=[("v", i) for i in range(3)], edges=[]
        )
        validate_schedule(c, [("v", 2), ("v", 0), ("v", 1)])
        with pytest.raises(CDAGError):
            validate_schedule(c, [("v", 2), ("v", 2), ("v", 1)])
        with pytest.raises(CDAGError):
            validate_schedule(c, [("v", 2), ("v", 0)])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_agrees_with_an_edge_by_edge_check(self, seed, random_dag):
        """Random orders, valid and not: the vectorized check rejects
        exactly the orders that put some edge's head after its tail,
        and names one such edge."""
        cdag = random_dag(seed, 30, extra_edge_prob=0.1)
        rng = np.random.default_rng(seed)
        edges = list(cdag.edges())
        topo = topological_schedule(cdag)
        for trial in range(30):
            order = list(topo)
            if trial % 3 == 1:
                i, j = rng.choice(len(order), size=2, replace=False)
                order[i], order[j] = order[j], order[i]
            elif trial % 3 == 2:
                order = [order[k] for k in rng.permutation(len(order))]
            pos = {v: k for k, v in enumerate(order)}
            violated = [(u, v) for u, v in edges if pos[u] > pos[v]]
            if not violated:
                validate_schedule(cdag, order)
                continue
            with pytest.raises(CDAGError) as err:
                validate_schedule(cdag, order)
            assert any(
                f"{u!r} -> {v!r}" in str(err.value) for u, v in violated
            )


class TestMinLivesetSchedule:
    def test_not_worse_than_plain_topological_on_trees(self):
        c = reduction_tree_cdag(16)
        plain = max_schedule_wavefront(c, topological_schedule(c))
        greedy = max_schedule_wavefront(c, min_liveset_schedule(c))
        assert greedy <= plain

    def test_chain_liveset_is_one(self):
        c = chain_cdag(10)
        assert max_schedule_wavefront(c, min_liveset_schedule(c)) == 1


class TestDFSSchedule:
    def test_dfs_reduces_live_values_on_independent_chains(self):
        from repro.core import independent_chains_cdag

        c = independent_chains_cdag(4, 5)
        dfs = max_schedule_wavefront(c, dfs_schedule(c))
        # DFS finishes one chain before starting the next: live set stays small
        assert dfs <= 4

    def test_dfs_reverse_roots_still_valid(self):
        c = diamond_cdag(4, 3)
        sched = dfs_schedule(c, reverse_roots=True)
        validate_schedule(c, sched)


class TestIdSpaceSchedulersMatchDictReference:
    """The compiled id-space schedulers are pinned, schedule-for-schedule,
    to the dict-of-names reference schedulers in ``reference_graph.py``
    (same traces)."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_dfs_equivalence_on_random_cdags(self, seed, random_dag):
        cdag = random_dag(seed, 60, extra_edge_prob=0.2)
        assert dfs_schedule(cdag) == reference.dfs_schedule(cdag)
        assert dfs_schedule(cdag, reverse_roots=True) == (
            reference.dfs_schedule(cdag, reverse_roots=True)
        )

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_min_liveset_equivalence_on_random_cdags(self, seed, random_dag):
        cdag = random_dag(seed, 60, extra_edge_prob=0.2)
        assert min_liveset_schedule(cdag) == (
            reference.min_liveset_schedule(cdag)
        )

    @pytest.mark.parametrize(
        "cdag_factory",
        [
            lambda: chain_cdag(12),
            lambda: reduction_tree_cdag(16),
            lambda: diamond_cdag(7, 5),
            lambda: outer_product_cdag(4),
        ],
    )
    def test_equivalence_on_structured_builders(self, cdag_factory):
        cdag = cdag_factory()
        assert dfs_schedule(cdag) == reference.dfs_schedule(cdag)
        assert min_liveset_schedule(cdag) == (
            reference.min_liveset_schedule(cdag)
        )

    def test_id_variants_return_ids(self):
        cdag = diamond_cdag(5, 3)
        c = cdag.compiled()
        assert c.vertices_of(dfs_schedule_ids(c)) == dfs_schedule(cdag)
        assert c.vertices_of(min_liveset_schedule_ids(c)) == (
            min_liveset_schedule(cdag)
        )

    def test_validate_schedule_rejects_unknown_vertex(self):
        cdag = chain_cdag(2)
        with pytest.raises(Exception):
            validate_schedule(
                cdag, [("chain", 0), ("chain", 1), ("nope", 9)]
            )


class TestPrioritySchedule:
    def test_priority_by_insertion_matches_topological_constraints(self):
        c = diamond_cdag(4, 4)
        order_index = {v: i for i, v in enumerate(c.vertices)}
        sched = priority_schedule(c, key=lambda v: (order_index[v],))
        validate_schedule(c, sched)

    def test_priority_key_controls_tiling(self):
        # schedule a 2-row diamond column-by-column using the key
        c = diamond_cdag(6, 2)
        sched = priority_schedule(c, key=lambda v: (v[2], v[1]))
        validate_schedule(c, sched)
        pos = {v: i for i, v in enumerate(sched)}
        # column-major priority: the column-0 vertex of row 1 fires as soon
        # as its two row-0 operands have fired, well before the right edge
        # of row 0 is reached.
        assert sched[0] == ("dmd", 0, 0)
        assert pos[("dmd", 1, 0)] < pos[("dmd", 0, 3)]
