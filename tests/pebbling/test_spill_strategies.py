"""Spill-strategy backends: equivalence, edge cases, validation.

The batched fast paths (the kernel planner for sequential games, the
flat-array lazy-heap loop for P-RBW games) must reproduce the dict
reference *move for move* — these tests pin the full move columns, not
just aggregate costs, on irregular randomized CDAGs as well as the
structured shapes, and cover the edge cases the fast paths could get
wrong: eviction ties, a single red pebble, spill-then-reload,
never-used-again values under Belady, and spilled logs.
"""

import numpy as np
import pytest

from repro.core import CDAG
from repro.core.ordering import dfs_schedule
from repro.core.builders import (
    chain_cdag,
    grid_stencil_cdag,
    independent_chains_cdag,
    outer_product_cdag,
    reduction_tree_cdag,
)
from repro.pebbling import (
    GameError,
    MemoryHierarchy,
    MoveKind,
    ParallelRBWPebbleGame,
    RBWPebbleGame,
    parallel_spill_game,
    spill_game_rbw,
    spill_game_redblue,
)


def assert_same_game(a, b):
    """Identical move columns and counters (move-for-move equivalence)."""
    for col_a, col_b in zip(a.log.columns(), b.log.columns()):
        assert np.array_equal(col_a, col_b)
    assert a.summary() == b.summary()


class TestSequentialBatchedEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("policy", ["lru", "belady"])
    @pytest.mark.parametrize("spill", [spill_game_rbw, spill_game_redblue])
    def test_random_irregular_cdags(self, seed, policy, spill, random_dag):
        cdag = random_dag(seed, 40)
        s = max(cdag.in_degree(v) for v in cdag.vertices) + 2
        assert_same_game(
            spill(cdag, s, policy=policy, backend="dict"),
            spill(cdag, s, policy=policy, backend="batched"),
        )

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("policy", ["lru", "belady"])
    def test_tight_memory_random_cdags(self, seed, policy, random_dag):
        """Exactly max_need pebbles: every step evicts (maximum heap churn)."""
        cdag = random_dag(seed, 30)
        s = max(cdag.in_degree(v) for v in cdag.vertices) + 1
        assert_same_game(
            spill_game_rbw(cdag, s, policy=policy, backend="dict"),
            spill_game_rbw(cdag, s, policy=policy, backend="batched"),
        )

    @pytest.mark.parametrize("policy", ["lru", "belady"])
    def test_structured_cdags(self, policy):
        cases = [
            (grid_stencil_cdag((8,), 6), 4),
            (reduction_tree_cdag(16), 4),
            (outer_product_cdag(4), 6),
            (independent_chains_cdag(12, 6), 4),
        ]
        for cdag, s in cases:
            assert_same_game(
                spill_game_rbw(cdag, s, policy=policy, backend="dict"),
                spill_game_rbw(cdag, s, policy=policy, backend="batched"),
            )

    @pytest.mark.parametrize("policy", ["lru", "belady"])
    @pytest.mark.parametrize("spill", [spill_game_rbw, spill_game_redblue])
    def test_explicit_dfs_schedule(self, policy, spill, random_dag):
        """An explicit (non-topological-default) schedule is planned from
        the schedule given, exactly like the reference."""
        cdag = random_dag(4, 40)
        s = max(cdag.in_degree(v) for v in cdag.vertices) + 2
        schedule = dfs_schedule(cdag)
        assert_same_game(
            spill(cdag, s, schedule, policy=policy, backend="dict"),
            spill(cdag, s, schedule, policy=policy, backend="batched"),
        )

    def test_default_backend_is_batched(self):
        """The default game equals both explicit backends."""
        cdag = grid_stencil_cdag((6,), 4)
        assert_same_game(
            spill_game_rbw(cdag, 4),
            spill_game_rbw(cdag, 4, backend="batched"),
        )


class TestParallelBatchedEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_irregular_cdags(self, seed, random_dag):
        cdag = random_dag(seed, 35)
        maxd = max(cdag.in_degree(v) for v in cdag.vertices)
        hierarchy = MemoryHierarchy.cluster(
            nodes=2,
            cores_per_node=2,
            registers_per_core=maxd + 2,
            cache_size=2 * maxd + 4,
        )
        a = parallel_spill_game(cdag, hierarchy, backend="dict")
        b = parallel_spill_game(cdag, hierarchy, backend="batched")
        assert_same_game(a, b)
        assert a.vertical_io == b.vertical_io
        assert a.horizontal_io == b.horizontal_io
        assert a.compute_per_processor == b.compute_per_processor

    @pytest.mark.parametrize("seed", [10, 12])
    @pytest.mark.parametrize("nodes, cores, regs_extra", [
        (1, 1, 1),  # one processor, smallest legal register file
        (1, 4, 2),  # one node: four cores share its cache
        (4, 1, 2),  # four nodes: shared values move remotely
        (4, 2, 1),  # eight processors, smallest legal register files
    ])
    def test_hierarchy_shapes(self, seed, nodes, cores, regs_extra,
                              random_dag):
        """The lazy-heap loop walks every level of every shape exactly
        like the reference, whatever the processor and node counts."""
        cdag = random_dag(seed, 30)
        maxd = max(cdag.in_degree(v) for v in cdag.vertices)
        hierarchy = MemoryHierarchy.cluster(
            nodes=nodes,
            cores_per_node=cores,
            registers_per_core=maxd + regs_extra,
            cache_size=2 * maxd + 4,
        )
        a = parallel_spill_game(cdag, hierarchy, backend="dict")
        b = parallel_spill_game(cdag, hierarchy, backend="batched")
        assert_same_game(a, b)
        assert a.vertical_io == b.vertical_io
        assert a.horizontal_io == b.horizontal_io
        assert a.compute_per_processor == b.compute_per_processor
        assert len(b.compute_per_processor) <= nodes * cores

    def test_tiny_caches_force_cache_evictions(self):
        """Cache-level make_room (persist via move-down) agrees too."""
        cdag = grid_stencil_cdag((5, 5), 2)
        hierarchy = MemoryHierarchy.cluster(
            nodes=4, cores_per_node=1, registers_per_core=8, cache_size=9
        )
        a = parallel_spill_game(cdag, hierarchy, backend="dict")
        b = parallel_spill_game(cdag, hierarchy, backend="batched")
        assert_same_game(a, b)
        assert a.vertical_io == b.vertical_io

    def test_replay_validates_batched_game(self):
        cdag = grid_stencil_cdag((4, 4), 2)
        hierarchy = MemoryHierarchy.cluster(
            nodes=2, cores_per_node=2, registers_per_core=8, cache_size=16
        )
        record = parallel_spill_game(cdag, hierarchy)
        replayed = ParallelRBWPebbleGame(cdag, hierarchy).replay(record)
        assert replayed.summary() == record.summary()


class TestStrategyEdgeCases:
    def test_lru_eviction_tie_broken_by_lowest_id(self):
        """Operands of one operation share a touch clock: the later
        eviction among them must pick the lowest vertex id, exactly like
        the reference's ``min(..., (last_use[u], u))``."""
        # Two ops, each reading two fresh inputs; S=3 forces evicting
        # both tied operands of op1 before op2 can fire.
        verts = [("a", 0), ("a", 1), ("x",), ("b", 0), ("b", 1), ("y",)]
        edges = [
            (("a", 0), ("x",)), (("a", 1), ("x",)),
            (("b", 0), ("y",)), (("b", 1), ("y",)),
        ]
        cdag = CDAG.from_edge_list(
            verts, edges,
            inputs=[("a", 0), ("a", 1), ("b", 0), ("b", 1)],
            outputs=[("x",), ("y",)],
            name="ties",
        )
        for policy in ("lru", "belady"):
            ref = spill_game_rbw(cdag, 3, policy=policy, backend="dict")
            got = spill_game_rbw(cdag, 3, policy=policy, backend="batched")
            assert_same_game(ref, got)
        # The dead operands of x are retired before y's loads, in id order.
        got = spill_game_rbw(cdag, 3, backend="batched")
        kinds = [m.kind for m in got.moves]
        assert kinds.count(MoveKind.DELETE) >= 2

    def test_single_red_pebble_zero_operand_ops(self):
        """fast_mem=1 is legal when no op has operands (flexible tags)."""
        cdag = CDAG.from_edge_list(
            [("v", 0)], [], inputs=[], outputs=[("v", 0)], name="one"
        )
        for backend in ("dict", "batched"):
            record = spill_game_rbw(cdag, 1, backend=backend)
            assert record.compute_count == 1
            assert record.store_count == 1
        assert_same_game(
            spill_game_rbw(cdag, 1, backend="dict"),
            spill_game_rbw(cdag, 1, backend="batched"),
        )

    def test_single_red_pebble_rejected_when_ops_have_operands(self):
        for backend in ("dict", "batched"):
            with pytest.raises(GameError, match="cannot fire"):
                spill_game_rbw(chain_cdag(3), 1, backend=backend)

    def test_spill_then_reload_uses_load_not_recompute(self):
        """A live value evicted from fast memory must come back via R1
        (store-then-load round trip), never recomputation — the RBW
        engine would reject a recompute outright, so a valid replay
        proves the batched path persists every evicted live value."""
        cdag = independent_chains_cdag(12, 6)
        record = spill_game_rbw(cdag, 4, backend="batched")
        assert_same_game(spill_game_rbw(cdag, 4, backend="dict"), record)
        counts = record.counts
        # Interleaved chains with S=4 must reload chain heads: strictly
        # more loads than there are input vertices.
        assert counts[MoveKind.LOAD] > 12
        assert counts[MoveKind.COMPUTE] == 12 * 6  # fired exactly once
        replayed = RBWPebbleGame(cdag, 4).replay(record)
        assert replayed.summary() == record.summary()

    @pytest.mark.parametrize("policy", ["lru", "belady"])
    def test_outputs_survive_eviction(self, policy, random_dag):
        cdag = random_dag(5, 30)
        s = max(cdag.in_degree(v) for v in cdag.vertices) + 1
        record = spill_game_rbw(cdag, s, policy=policy, backend="batched")
        # assert_complete passed inside; every output got its blue pebble
        assert record.store_count >= len(list(cdag.outputs))

    def test_belady_never_used_again_values_evicted_first(self):
        """Belady prefers evicting values with no future use; the heap
        path's NEVER sentinel must order after all real positions."""
        cdag = grid_stencil_cdag((6,), 4)
        assert_same_game(
            spill_game_rbw(cdag, 4, policy="belady", backend="dict"),
            spill_game_rbw(cdag, 4, policy="belady", backend="batched"),
        )
        lru = spill_game_rbw(cdag, 4, policy="lru").io_count
        belady = spill_game_rbw(cdag, 4, policy="belady").io_count
        assert belady <= lru


class TestUniformEntryValidation:
    """Satellite fix: arguments are validated before any schedule or
    game construction work begins, in every call path."""

    def test_invalid_policy_raises_before_schedule_work(self):
        # The schedule is invalid too — policy must be checked first,
        # proving validation happens at entry.
        cdag = chain_cdag(3)
        bogus_schedule = [("chain", 99)]
        for spill in (spill_game_rbw, spill_game_redblue):
            with pytest.raises(ValueError, match="policy"):
                spill(cdag, 2, schedule=bogus_schedule, policy="random")

    @pytest.mark.parametrize("bad", ["numpy", "kernel"])
    def test_invalid_backend_raises_value_error(self, bad):
        """Unknown backends (including the removed ``"kernel"``) are
        rejected with a message naming both accepted values."""
        cdag = chain_cdag(3)
        accepted = "'batched', 'dict'"
        for spill in (spill_game_rbw, spill_game_redblue):
            with pytest.raises(ValueError, match=accepted):
                spill(cdag, 2, backend=bad)
        with pytest.raises(ValueError, match=accepted):
            parallel_spill_game(
                cdag, MemoryHierarchy.two_level(4), backend=bad
            )

    def test_invalid_num_red_raises_before_schedule_work(self):
        cdag = chain_cdag(3)
        bogus_schedule = [("chain", 99)]
        for bad in (0, -3, 2.5, "4", True):
            with pytest.raises(ValueError):
                spill_game_rbw(cdag, bad, schedule=bogus_schedule)

    def test_policy_error_message_consistent_across_backends(self):
        cdag = chain_cdag(2)
        msgs = []
        for backend in ("dict", "batched"):
            with pytest.raises(ValueError) as exc:
                spill_game_rbw(cdag, 2, policy="mru", backend=backend)
            msgs.append(str(exc.value))
        assert msgs[0] == msgs[1]


class TestStrategySpillLogs:
    @pytest.mark.parametrize("spill", [spill_game_rbw, spill_game_redblue])
    def test_spilled_strategy_game_matches_in_ram(self, spill):
        cdag = grid_stencil_cdag((6,), 4)
        spilled = spill(cdag, 4, spill=True)
        ref = spill(cdag, 4, backend="dict", spill=True)
        assert spilled.log.is_spilled and ref.log.is_spilled
        assert_same_game(spill(cdag, 4), spilled)
        assert_same_game(ref, spilled)
        spilled.log.close()
        ref.log.close()

    def test_parallel_spilled_game_matches_in_ram(self):
        cdag = grid_stencil_cdag((5, 5), 2)
        hierarchy = MemoryHierarchy.cluster(
            nodes=2, cores_per_node=2, registers_per_core=8, cache_size=16
        )
        in_ram = parallel_spill_game(cdag, hierarchy)
        spilled = parallel_spill_game(cdag, hierarchy, spill=True)
        assert_same_game(in_ram, spilled)
        assert spilled.log.is_spilled
        spilled.log.close()
