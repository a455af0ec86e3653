"""``run_spill_game``: the one spill-game entry point, end to end.

The dispatcher must hand each game to the right strategy with the
arguments it was given — an ``int`` memory plays a sequential RBW or
red-blue game, a :class:`MemoryHierarchy` plays the P-RBW owner-computes
strategy — and its two backends must agree *move for move* on the
multi-component shapes the spill experiments sweep: seeded component
forests under contiguous and interleaved schedules, the chains and star
workloads, and per-processor components under a schedule that
interleaves them.  Also pinned: repeat games are byte-identical (no
state survives between games), spilled records equal in-RAM ones, and
the removed multiprocess options are refused.
"""

import numpy as np
import pytest

from repro.core import CDAG
from repro.core.builders import independent_chains_cdag
from repro.core.ordering import dfs_schedule, topological_schedule
from repro.pebbling import (
    GameError,
    MemoryHierarchy,
    ParallelRBWPebbleGame,
    RBWPebbleGame,
    RedBluePebbleGame,
    parallel_spill_game,
    run_spill_game,
    spill_game_rbw,
    spill_game_redblue,
)
from repro.pebbling.workloads import component_forest_cdag, star_spill_setup

BACKENDS = ("batched", "dict")


def assert_same_game(a, b):
    """Identical move columns and counters (move-for-move equivalence)."""
    assert len(a.log) == len(b.log)
    for col_a, col_b in zip(a.log.columns(), b.log.columns()):
        assert np.array_equal(col_a, col_b)
    assert a.counts == b.counts
    assert a.summary() == b.summary()


def assert_same_parallel_traffic(a, b):
    assert a.vertical_io == b.vertical_io
    assert a.horizontal_io == b.horizontal_io
    assert a.compute_per_processor == b.compute_per_processor


def forest_and_memory(num_components, size, seed):
    """A seeded forest plus room for any operand set and its result."""
    cdag = component_forest_cdag(num_components, size, seed=seed)
    s = max(cdag.in_degree(v) for v in cdag.vertices) + 2
    return cdag, s


def chain_components_cdag(num_chains=4, length=6):
    """Independent untagged-sink chains with per-chain processors."""
    verts, edges, inputs = [], [], []
    for k in range(num_chains):
        prev = ("in", k)
        verts.append(prev)
        inputs.append(prev)
        for j in range(length):
            v = ("op", k, j)
            verts.append(v)
            edges.append((prev, v))
            prev = v
    return CDAG.from_edge_list(verts, edges, inputs, [], name="pchains")


class TestSequentialDifferential:
    """Sequential games through the dispatcher vs the dict reference."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("policy", ["lru", "belady"])
    def test_forest_rbw_matches_both_backends(self, seed, policy):
        cdag, s = forest_and_memory(6, 12, seed)
        schedule = dfs_schedule(cdag)
        ref = spill_game_rbw(
            cdag, s, schedule=schedule, policy=policy, backend="dict"
        )
        for backend in BACKENDS:
            got = run_spill_game(
                cdag, s, schedule=schedule, policy=policy, backend=backend
            )
            assert_same_game(ref, got)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("policy", ["lru", "belady"])
    def test_forest_redblue_matches_both_backends(self, seed, policy):
        cdag, s = forest_and_memory(5, 10, seed)
        schedule = dfs_schedule(cdag)
        ref = spill_game_redblue(
            cdag, s, schedule=schedule, policy=policy, backend="dict"
        )
        for backend in BACKENDS:
            got = run_spill_game(
                cdag, s, schedule=schedule, policy=policy,
                backend=backend, engine="redblue",
            )
            assert_same_game(ref, got)

    @pytest.mark.parametrize("policy", ["lru", "belady"])
    def test_forest_interleaved_schedule_tight_memory(self, policy):
        """The BFS order interleaves components through one fast memory
        at the smallest legal S: every step evicts another component's
        live values, and both backends must pick the same victims."""
        cdag = component_forest_cdag(5, 10, seed=4)
        s = max(cdag.in_degree(v) for v in cdag.vertices) + 1
        schedule = topological_schedule(cdag)
        a, b = (
            run_spill_game(
                cdag, s, schedule=schedule, policy=policy, backend=backend
            )
            for backend in BACKENDS
        )
        assert_same_game(a, b)
        assert a.load_count > len(cdag.inputs)  # reloads happened

    def test_chains_workload_with_contiguous_schedule(self):
        cdag = independent_chains_cdag(12, 8)
        schedule = dfs_schedule(cdag)
        a, b = (
            run_spill_game(cdag, 4, schedule=schedule, backend=backend)
            for backend in BACKENDS
        )
        assert_same_game(a, b)
        assert_same_game(spill_game_rbw(cdag, 4, schedule=schedule), a)

    def test_final_pebble_state_matches(self):
        cdag, s = forest_and_memory(4, 10, 3)
        schedule = dfs_schedule(cdag)
        fast = run_spill_game(cdag, s, schedule=schedule)
        ref = run_spill_game(cdag, s, schedule=schedule, backend="dict")
        ga, gb = RBWPebbleGame(cdag, s), RBWPebbleGame(cdag, s)
        ga.replay(ref)
        gb.replay(fast)
        assert ga.red_ids == gb.red_ids
        assert ga.blue_ids == gb.blue_ids
        assert ga.white_ids == gb.white_ids


class TestParallelDifferential:
    """P-RBW games through the dispatcher vs the dict reference."""

    @pytest.mark.parametrize("num_ops", [12, 24])
    def test_star_workload(self, num_ops):
        cdag, hierarchy = star_spill_setup(num_ops)
        ref = parallel_spill_game(cdag, hierarchy, backend="dict")
        for backend in BACKENDS:
            got = run_spill_game(cdag, hierarchy, backend=backend)
            assert_same_game(ref, got)
            assert_same_parallel_traffic(ref, got)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_forest_untagged_sinks(self, seed):
        """Randomized components marching through one register file,
        with sinks left untagged (no output has to be stored)."""
        cdag = component_forest_cdag(5, 9, seed=seed)
        for v in list(cdag.outputs):
            cdag.untag_output(v)
        maxd = max(cdag.in_degree(v) for v in cdag.vertices)
        hierarchy = MemoryHierarchy.cluster(
            nodes=1, cores_per_node=1,
            registers_per_core=maxd + 2, cache_size=maxd + 3,
        )
        schedule = dfs_schedule(cdag)
        a, b = (
            run_spill_game(cdag, hierarchy, schedule=schedule, backend=backend)
            for backend in BACKENDS
        )
        assert_same_game(a, b)
        assert_same_parallel_traffic(a, b)

    def test_instance_disjoint_interleaved_schedule(self):
        """Per-processor components under a schedule that interleaves
        the components move-burst by move-burst; two chains share each
        node's cache."""
        cdag = chain_components_cdag(4, 6)
        hierarchy = MemoryHierarchy.cluster(
            nodes=2, cores_per_node=2, registers_per_core=4, cache_size=6
        )
        assignment = {v: v[1] for v in cdag.vertices}
        schedule = [("in", k) for k in range(4)]
        for j in range(6):
            for k in range(4):
                schedule.append(("op", k, j))
        a, b = (
            run_spill_game(
                cdag, hierarchy, schedule=schedule,
                assignment=assignment, backend=backend,
            )
            for backend in BACKENDS
        )
        assert_same_game(a, b)
        assert_same_parallel_traffic(a, b)
        assert sorted(a.compute_per_processor.values()) == [6, 6, 6, 6]

    def test_record_replays_end_to_end(self):
        cdag, hierarchy = star_spill_setup(16)
        fast = run_spill_game(cdag, hierarchy)
        replayed = ParallelRBWPebbleGame(cdag, hierarchy).replay(fast)
        assert replayed.summary() == fast.summary()
        ref = run_spill_game(cdag, hierarchy, backend="dict")
        a = ParallelRBWPebbleGame(cdag, hierarchy)
        a.replay(ref)
        b = ParallelRBWPebbleGame(cdag, hierarchy)
        b.replay(fast)
        assert a.pebbles_ids == b.pebbles_ids
        assert a.blue_ids == b.blue_ids
        assert a.white_ids == b.white_ids


class TestDispatch:
    @pytest.mark.parametrize("model", ["rbw", "redblue", "prbw"])
    def test_dispatch_matches_the_direct_strategy(self, model):
        """Every argument reaches the strategy: the record equals the
        direct call with the same schedule, policy and backend."""
        cdag, s = forest_and_memory(3, 10, 5)
        schedule = dfs_schedule(cdag)
        if model == "prbw":
            memory = MemoryHierarchy.cluster(
                nodes=2, cores_per_node=1,
                registers_per_core=s, cache_size=s + 2,
            )
            direct = parallel_spill_game(
                cdag, memory, schedule=schedule, backend="dict"
            )
            got = run_spill_game(
                cdag, memory, schedule=schedule, backend="dict"
            )
        else:
            strategy = spill_game_rbw if model == "rbw" else spill_game_redblue
            direct = strategy(
                cdag, s, schedule=schedule, policy="belady", backend="dict"
            )
            got = run_spill_game(
                cdag, s, schedule=schedule, policy="belady",
                backend="dict", engine=model,
            )
        assert_same_game(direct, got)

    def test_zero_op_components_ride_along(self):
        """A lone input vertex (a component with no operation) does not
        disturb the game of the other components."""
        cdag, s = forest_and_memory(3, 8, 1)
        lonely = ("lonely", 0)
        cdag.add_vertex(lonely)
        cdag.tag_input(lonely)
        schedule = dfs_schedule(cdag)
        a, b = (
            run_spill_game(cdag, s, schedule=schedule, backend=backend)
            for backend in BACKENDS
        )
        assert_same_game(a, b)

    def test_argument_validation(self):
        cdag = component_forest_cdag(2, 6)
        with pytest.raises(ValueError, match="engine"):
            run_spill_game(cdag, 4, engine="quantum")
        with pytest.raises(ValueError, match="policy"):
            run_spill_game(cdag, 4, policy="mru")
        with pytest.raises(ValueError, match="'batched', 'dict'"):
            run_spill_game(cdag, 4, backend="kernel")

    def test_hierarchy_games_validate_policy(self):
        """P-RBW games always evict LRU, but an unknown ``policy`` is
        still refused instead of played under a misleading label."""
        cdag, hierarchy = star_spill_setup(8)
        for policy in ("mru", 3):
            with pytest.raises(ValueError, match="policy"):
                run_spill_game(cdag, hierarchy, policy=policy)

    @pytest.mark.parametrize("removed", [
        {"workers": 2}, {"mp_context": "fork"},
    ])
    def test_multiprocess_options_are_gone(self, removed):
        """Games run in one process: the pool options are not
        parameters any more."""
        cdag = component_forest_cdag(2, 6)
        with pytest.raises(TypeError, match=next(iter(removed))):
            run_spill_game(cdag, 4, **removed)

    def test_capacity_error_matches_sequential(self):
        """Too few red pebbles for an operand set: both backends raise
        the sequential strategy's capacity error before playing."""
        cdag = component_forest_cdag(4, 10, seed=2)
        for backend in BACKENDS:
            with pytest.raises(GameError, match="cannot fire"):
                run_spill_game(
                    cdag, 1, schedule=dfs_schedule(cdag), backend=backend
                )


class TestDeterminism:
    @pytest.mark.parametrize("model", ["rbw", "redblue", "prbw"])
    def test_repeat_games_are_byte_identical(self, model):
        """The record is a pure function of (CDAG, memory, schedule):
        a second game on the same CDAG object, and a game on a freshly
        built copy, agree byte for byte with the first."""
        runs = []
        for fresh in (False, False, True):
            if fresh or not runs:
                cdag, s = forest_and_memory(5, 11, 7)
            if model == "prbw":
                memory = MemoryHierarchy.cluster(
                    nodes=2, cores_per_node=2,
                    registers_per_core=s, cache_size=2 * s,
                )
                record = run_spill_game(cdag, memory)
            else:
                record = run_spill_game(
                    cdag, s, schedule=dfs_schedule(cdag), engine=model
                )
            runs.append(
                tuple(col.tobytes() for col in record.log.columns())
            )
        assert runs[0] == runs[1] == runs[2]


class TestSpillOutput:
    def test_spilled_log_matches_in_ram(self, tmp_path):
        cdag, hierarchy = star_spill_setup(16)
        in_ram = run_spill_game(cdag, hierarchy)
        spilled = run_spill_game(cdag, hierarchy, spill=str(tmp_path))
        assert spilled.log.is_spilled
        assert_same_game(in_ram, spilled)
        spilled.log.close()

    def test_spilled_redblue_forest_replays(self):
        cdag, s = forest_and_memory(4, 9, 5)
        schedule = dfs_schedule(cdag)
        record = run_spill_game(
            cdag, s, schedule=schedule, engine="redblue", spill=True
        )
        assert record.log.is_spilled
        replayed = RedBluePebbleGame(cdag, s).replay(record)
        assert replayed.summary() == record.summary()
        record.log.close()
