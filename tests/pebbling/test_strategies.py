"""Unit tests for the pebbling strategies (upper-bound game generators)."""

import pytest

from repro.core import (
    chain_cdag,
    diamond_cdag,
    grid_stencil_cdag,
    independent_chains_cdag,
    min_liveset_schedule,
    outer_product_cdag,
    reduction_tree_cdag,
)
from repro.pebbling import (
    GameError,
    MemoryHierarchy,
    contiguous_block_assignment,
    parallel_spill_game,
    spill_game_rbw,
    spill_game_redblue,
)
from repro.bounds import outer_product_io


class TestSequentialSpillGames:
    def test_chain_needs_exactly_two_io(self):
        record = spill_game_rbw(chain_cdag(10), num_red=2)
        assert record.io_count == 2
        assert record.compute_count == 10

    def test_outer_product_io_lower_bounded_by_formula(self):
        c = outer_product_cdag(4)
        record = spill_game_rbw(c, num_red=6)
        assert record.io_count >= outer_product_io(4)
        assert record.store_count >= 16

    def test_outer_product_with_ample_memory_hits_formula(self):
        n = 3
        c = outer_product_cdag(n)
        record = spill_game_rbw(c, num_red=2 * n + 2)
        assert record.io_count == outer_product_io(n)

    def test_more_pebbles_never_increases_io(self):
        c = diamond_cdag(6, 5)
        io_small = spill_game_rbw(c, num_red=4).io_count
        io_large = spill_game_rbw(c, num_red=32).io_count
        assert io_large <= io_small

    def test_belady_not_worse_than_lru(self):
        c = grid_stencil_cdag((6,), 4)
        lru = spill_game_rbw(c, num_red=4, policy="lru").io_count
        belady = spill_game_rbw(c, num_red=4, policy="belady").io_count
        assert belady <= lru

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            spill_game_rbw(chain_cdag(2), 2, policy="random")

    def test_insufficient_pebbles_rejected(self):
        c = reduction_tree_cdag(4)
        with pytest.raises(GameError):
            spill_game_rbw(c, num_red=2)

    def test_custom_schedule_used(self):
        c = reduction_tree_cdag(8)
        sched = min_liveset_schedule(c)
        record = spill_game_rbw(c, num_red=4, schedule=sched)
        assert record.compute_count == len(c.operations)

    def test_redblue_strategy_matches_rbw_on_chain(self):
        c = chain_cdag(5)
        assert (
            spill_game_redblue(c, 2).io_count == spill_game_rbw(c, 2).io_count == 2
        )

    def test_every_output_gets_stored(self):
        c = independent_chains_cdag(3, 3)
        record = spill_game_rbw(c, num_red=4)
        assert record.store_count >= 3

    def test_io_counts_loads_of_all_used_inputs(self):
        c = reduction_tree_cdag(8)
        record = spill_game_rbw(c, num_red=4)
        assert record.load_count >= 8


class TestContiguousAssignment:
    def test_assignment_covers_all_vertices(self):
        c = diamond_cdag(6, 4)
        a = contiguous_block_assignment(c, 4)
        assert set(a) == set(c.vertices)
        assert set(a.values()) <= set(range(4))

    def test_assignment_balanced(self):
        c = diamond_cdag(8, 4)
        a = contiguous_block_assignment(c, 4)
        ops = [v for v in c.vertices if not c.is_input(v)]
        counts = [sum(1 for v in ops if a[v] == p) for p in range(4)]
        assert max(counts) - min(counts) <= max(1, len(ops) // 4)

    def test_inputs_follow_first_consumer(self):
        c = chain_cdag(4)
        a = contiguous_block_assignment(c, 2)
        assert a[("chain", 0)] == a[("chain", 1)]

    def test_single_processor_assignment(self):
        c = chain_cdag(3)
        a = contiguous_block_assignment(c, 1)
        assert set(a.values()) == {0}


class TestParallelSpillGame:
    @pytest.fixture
    def cluster(self):
        return MemoryHierarchy.cluster(
            nodes=2, cores_per_node=2, registers_per_core=6, cache_size=16
        )

    def test_complete_game_produced(self, cluster):
        c = diamond_cdag(6, 4)
        record = parallel_spill_game(c, cluster)
        assert record.compute_count == len(c.operations)
        assert sum(record.compute_per_processor.values()) == len(c.operations)

    def test_horizontal_traffic_only_with_multiple_nodes(self):
        c = diamond_cdag(6, 4)
        single = MemoryHierarchy.cluster(
            nodes=1, cores_per_node=4, registers_per_core=6, cache_size=16
        )
        multi = MemoryHierarchy.cluster(
            nodes=4, cores_per_node=1, registers_per_core=6, cache_size=16
        )
        rec_single = parallel_spill_game(c, single)
        rec_multi = parallel_spill_game(c, multi)
        # remote gets can only happen across nodes
        remote_single = sum(
            1 for m in rec_single.moves if m.kind.name == "REMOTE_GET"
        )
        remote_multi = sum(
            1 for m in rec_multi.moves if m.kind.name == "REMOTE_GET"
        )
        assert remote_single == 0
        assert remote_multi > 0

    def test_vertical_traffic_recorded_per_instance(self, cluster):
        c = diamond_cdag(6, 3)
        record = parallel_spill_game(c, cluster)
        assert record.total_vertical_io > 0
        levels = {lvl for (lvl, _idx) in record.vertical_io}
        assert levels <= {2, 3}

    def test_requires_unbounded_top_level(self):
        c = chain_cdag(2)
        bounded = MemoryHierarchy.cluster(
            nodes=1, cores_per_node=1, registers_per_core=4,
            cache_size=8, memory_size=64,
        )
        with pytest.raises(GameError):
            parallel_spill_game(c, bounded)

    def test_custom_assignment_respected(self, cluster):
        c = chain_cdag(4)
        assignment = {v: 3 for v in c.vertices}
        record = parallel_spill_game(c, cluster, assignment=assignment)
        assert set(record.compute_per_processor) == {3}

    def test_missing_assignment_rejected(self, cluster):
        c = chain_cdag(3)
        with pytest.raises(GameError):
            parallel_spill_game(c, cluster, assignment={("chain", 0): 0})

    @pytest.mark.parametrize("backend", ["batched", "dict"])
    @pytest.mark.parametrize("bad", [7, -1, 1.5, "0", True])
    def test_assignment_value_checked_before_any_move(self, backend, bad):
        """A processor outside 0..P-1, or not an int (a bool included),
        is one GameError naming the vertex and the value on both
        backends.  The planner indexes lists and shifts bits by the
        processor, so -1 would otherwise play on the last processor."""
        c = chain_cdag(3)
        h = MemoryHierarchy.cluster(2, 1, 4, 8)
        assignment = {v: 0 for v in c.vertices}
        assignment[("chain", 2)] = bad
        with pytest.raises(GameError) as exc:
            parallel_spill_game(c, h, assignment=assignment, backend=backend)
        assert str(exc.value) == (
            f"assignment maps ('chain', 2) to {bad!r}; processors are "
            "ints in 0..1"
        )

    def test_small_registers_rejected(self):
        c = grid_stencil_cdag((4,), 2)  # in-degree 3 => needs >= 4 registers
        h = MemoryHierarchy.cluster(
            nodes=1, cores_per_node=1, registers_per_core=2, cache_size=8
        )
        with pytest.raises(GameError):
            parallel_spill_game(c, h)

    def test_stencil_workload_runs(self):
        c = grid_stencil_cdag((5, 5), 2)
        h = MemoryHierarchy.cluster(
            nodes=4, cores_per_node=1, registers_per_core=8, cache_size=20
        )
        record = parallel_spill_game(c, h)
        assert record.compute_count == 25 * 2
        assert record.total_horizontal_io > 0
