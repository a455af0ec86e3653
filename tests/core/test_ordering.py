"""Unit tests for schedule generation."""

import pytest

from repro.core import (
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
