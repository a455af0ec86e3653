"""Unit tests for S-partition construction and validation."""

import pytest

from repro.core import (
    SPartition,
    chain_cdag,
    check_hong_kung_partition,
    check_rbw_partition,
    diamond_cdag,
    greedy_rbw_partition,
    largest_admissible_subset,
    min_liveset_schedule,
    outer_product_cdag,
    partition_from_game,
    partition_from_schedule,
    reduction_tree_cdag,
    topological_schedule,
)
from repro.pebbling import GameError, Move, MoveKind


class TestSPartitionContainer:
    def test_basic_accessors(self):
        p = SPartition(subsets=[{"a"}, {"b", "c"}], s=4)
        assert p.h == 2
        assert p.all_vertices() == {"a", "b", "c"}
        assert p.subset_of("c") == 1
        assert p.subset_of("zzz") is None
        assert p.largest_subset_size() == 2


class TestRBWPartitionChecks:
    def test_greedy_partition_is_valid(self, small_diamond):
        for s in (2, 3, 5):
            part = greedy_rbw_partition(small_diamond, s)
            assert check_rbw_partition(small_diamond, part) == []

    def test_partition_missing_vertices_flagged(self, small_chain):
        part = SPartition(subsets=[{("chain", 1)}], s=4)
        errors = check_rbw_partition(small_chain, part)
        assert any("P1" in e for e in errors)

    def test_partition_overlap_flagged(self, small_chain):
        ops = set(small_chain.operations)
        part = SPartition(subsets=[ops, {("chain", 1)}], s=10)
        errors = check_rbw_partition(small_chain, part)
        assert any("overlap" in e for e in errors)

    def test_foreign_vertex_flagged(self, small_chain):
        ops = set(small_chain.operations)
        part = SPartition(subsets=[ops | {"martian"}], s=10)
        # "martian" is not a CDAG vertex: covered check complains
        errors = check_rbw_partition(small_chain, part)
        assert any("foreign" in e for e in errors)

    def test_in_out_limits_enforced(self):
        c = outer_product_cdag(3)
        # one subset with all 9 products: In = 6 inputs > S for S=2
        part = SPartition(subsets=[set(c.operations)], s=2)
        errors = check_rbw_partition(c, part)
        assert any("P3" in e or "P4" in e for e in errors)

    def test_circuit_between_subsets_flagged(self):
        c = chain_cdag(4)
        # interleave chain vertices between two subsets -> circuit
        part = SPartition(
            subsets=[{("chain", 1), ("chain", 3)}, {("chain", 2), ("chain", 4)}],
            s=10,
        )
        errors = check_rbw_partition(c, part)
        assert any("P2" in e for e in errors)


class TestHongKungPartitionChecks:
    def test_valid_hk_partition_of_chain(self):
        c = chain_cdag(4)
        subsets = [
            {("chain", 0), ("chain", 1), ("chain", 2)},
            {("chain", 3), ("chain", 4)},
        ]
        part = SPartition(subsets=subsets, s=2)
        assert check_hong_kung_partition(c, part) == []

    def test_hk_partition_dominator_violation(self):
        c = outer_product_cdag(3)
        part = SPartition(subsets=[set(c.vertices)], s=1)
        errors = check_hong_kung_partition(c, part, exact_dominator=True)
        assert any("P3" in e for e in errors)

    def test_hk_partition_min_set_violation(self):
        c = outer_product_cdag(2)
        part = SPartition(subsets=[set(c.vertices)], s=2)
        errors = check_hong_kung_partition(c, part)
        assert any("P4" in e for e in errors)


class TestPartitionFromSchedule:
    def test_partition_covers_operations(self, small_diamond):
        sched = topological_schedule(small_diamond)
        part = partition_from_schedule(small_diamond, sched, s=2)
        covered = part.all_vertices()
        assert covered == set(small_diamond.operations)

    def test_partition_subsets_respect_2s_limits(self, small_diamond):
        part = partition_from_schedule(
            small_diamond, topological_schedule(small_diamond), s=2
        )
        assert check_rbw_partition(small_diamond, part) == []

    def test_more_pebbles_fewer_subsets(self):
        c = diamond_cdag(8, 6)
        h_small = partition_from_schedule(c, topological_schedule(c), 2).h
        h_large = partition_from_schedule(c, topological_schedule(c), 16).h
        assert h_large <= h_small

    def test_different_schedules_give_valid_partitions(self, small_diamond):
        for sched in (topological_schedule(small_diamond),
                      min_liveset_schedule(small_diamond)):
            part = partition_from_schedule(small_diamond, sched, 3)
            assert check_rbw_partition(small_diamond, part) == []


class TestPartitionFromGame:
    def test_unknown_vertex_in_moves_raises(self, small_chain):
        """``Move`` lists go through the engines' transcoder, so a
        vertex outside the CDAG is a ``GameError``, not a subset."""
        with pytest.raises(GameError, match="unknown vertex"):
            partition_from_game(
                small_chain, [Move(MoveKind.COMPUTE, ("nope", 9))], 2
            )


class TestLargestAdmissibleSubset:
    def test_reduction_tree_estimate_positive(self):
        c = reduction_tree_cdag(16)
        u = largest_admissible_subset(c, s=4)
        assert 1 <= u <= len(c.operations)

    def test_grows_with_s(self):
        c = diamond_cdag(10, 6)
        u2 = largest_admissible_subset(c, s=2)
        u8 = largest_admissible_subset(c, s=8)
        assert u8 >= u2
