"""Unit and equivalence tests for the columnar move log.

The equivalence classes here pin the columnar-log engines to the seed's
per-``Move``-object semantics: replaying a recorded log — through the
column fast path *and* through materialized ``Move`` objects — must
reproduce identical columns, counters and partitions on randomized CDAGs.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.builders import chain_cdag, diamond_cdag
from repro.core.partition import partition_from_game
from repro.pebbling import (
    GameError,
    GameRecord,
    MemoryHierarchy,
    Move,
    MoveKind,
    MoveLog,
    ParallelRBWPebbleGame,
    RBWPebbleGame,
    RedBluePebbleGame,
    parallel_spill_game,
    spill_game_rbw,
    spill_game_redblue,
)
from repro.pebbling.state import (
    OP_COMPUTE,
    OP_DELETE,
    OP_LOAD,
    OP_STORE,
    decode_instance,
    encode_instance,
)

# The per-Move partition slicer is one of the core test oracles.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "core"))
import reference_graph  # noqa: E402


def columns_of(record):
    return record.log.columns()


def assert_same_columns(a, b):
    for col_a, col_b in zip(columns_of(a), columns_of(b)):
        assert np.array_equal(col_a, col_b)


class TestMoveLogBasics:
    def test_block_flush_preserves_order(self):
        log = MoveLog(block_size=8)
        rec = GameRecord(log=log)
        for k in range(21):
            rec.append(Move(MoveKind.LOAD if k % 2 else MoveKind.STORE, k))
        assert len(log) == 21
        assert len(log._blocks) == 2  # two full blocks + staging tail
        kinds = log.kinds()
        assert kinds.tolist() == [
            (OP_LOAD if k % 2 else OP_STORE) for k in range(21)
        ]
        # appending after reading columns invalidates the cache
        rec.append(Move(MoveKind.COMPUTE, 99))
        assert log.kinds().tolist()[-1] == OP_COMPUTE

    def test_lazy_move_view_roundtrip(self):
        moves = [
            Move(MoveKind.LOAD, "a"),
            Move(MoveKind.COMPUTE, "b", location=(1, 0)),
            Move(MoveKind.REMOTE_GET, "c", location=(3, 1), source=(3, 0)),
        ]
        log = MoveLog()
        for m in moves:
            log.append(m)
        assert list(log) == moves
        assert log[0] == moves[0]
        assert log[-1] == moves[-1]
        assert log[1:] == moves[1:]
        with pytest.raises(IndexError):
            log[3]

    def test_located_after_unlocated_backfills(self):
        log = MoveLog(block_size=4)
        log.append_ids(OP_LOAD, 0)
        log.append_ids(OP_STORE, 1)
        log.append_ids(OP_COMPUTE, 2, encode_instance((1, 3)))
        locs = log.locations()
        assert locs.tolist()[:2] == [-1, -1]
        assert decode_instance(int(locs[2])) == (1, 3)
        # flush the block, then keep appending
        for k in range(6):
            log.append_ids(OP_DELETE, k, encode_instance((2, k)))
        assert len(log) == 9
        assert decode_instance(int(log.locations()[-1])) == (2, 5)

    def test_counts_and_ids_of_kind(self):
        log = MoveLog()
        for vid, code in [(0, OP_LOAD), (1, OP_COMPUTE), (0, OP_STORE),
                          (2, OP_COMPUTE), (0, OP_DELETE)]:
            log.append_ids(code, vid)
        assert log.counts() == {
            MoveKind.LOAD: 1,
            MoveKind.STORE: 1,
            MoveKind.COMPUTE: 2,
            MoveKind.DELETE: 1,
        }
        assert log.ids_of_kind(MoveKind.COMPUTE).tolist() == [1, 2]
        assert log.steps.tolist() == [0, 1, 2, 3, 4]

    def test_unbound_record_interns_vertices(self):
        rec = GameRecord()
        rec.append(Move(MoveKind.LOAD, ("x", 1)))
        rec.append(Move(MoveKind.LOAD, ("y", 2)))
        rec.append(Move(MoveKind.STORE, ("x", 1)))
        assert [m.vertex for m in rec.moves] == [("x", 1), ("y", 2), ("x", 1)]
        assert rec.log.vertex_ids().tolist() == [-1, -2, -1]
        assert not rec.log.is_bound_to(None)

    def test_instance_codec(self):
        assert encode_instance(None) == -1
        assert decode_instance(-1) is None
        for inst in [(1, 0), (3, 7), (5, (1 << 24) - 1)]:
            assert decode_instance(encode_instance(inst)) == inst


class TestEngineLogEquivalence:
    """Columnar engines pinned to per-Move semantics on randomized CDAGs."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("spill", [spill_game_rbw, spill_game_redblue])
    def test_replay_column_and_move_paths_agree(self, seed, spill, random_dag):
        cdag = random_dag(seed, 30)
        s = max(cdag.in_degree(v) for v in cdag.vertices) + 2
        record = spill(cdag, s)
        engine = (
            RBWPebbleGame(cdag, s)
            if spill is spill_game_rbw
            else RedBluePebbleGame(cdag, s, strict=False)
        )
        # column fast path (GameRecord -> bound MoveLog)
        fast = engine.replay(record)
        assert_same_columns(fast, record)
        assert fast.peak_red == record.peak_red
        assert fast.summary() == record.summary()
        # materialized-Move reference path on a *fresh* engine state
        slow = engine.replay(list(record.moves))
        assert_same_columns(slow, record)
        assert slow.summary() == record.summary()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_partition_from_game_column_path_matches_reference(
        self, seed, random_dag
    ):
        cdag = random_dag(seed, 40)
        s = max(cdag.in_degree(v) for v in cdag.vertices) + 2
        record = spill_game_rbw(cdag, s)
        fast = partition_from_game(cdag, record.moves, s)
        assert fast.s == 2 * s
        assert fast.subsets == reference_graph.partition_from_moves(
            record.moves, s
        )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_parallel_replay_reproduces_record(self, seed, random_dag):
        cdag = random_dag(seed, 25)
        max_deg = max(cdag.in_degree(v) for v in cdag.vertices)
        hierarchy = MemoryHierarchy.cluster(
            nodes=2,
            cores_per_node=2,
            registers_per_core=max_deg + 2,
            cache_size=2 * max_deg + 4,
        )
        record = parallel_spill_game(cdag, hierarchy)
        fresh = ParallelRBWPebbleGame(cdag, hierarchy)
        replayed = fresh.replay(record)
        assert_same_columns(replayed, record)
        assert replayed.vertical_io == record.vertical_io
        assert replayed.horizontal_io == record.horizontal_io
        assert replayed.compute_per_processor == record.compute_per_processor
        # the Move-object path agrees too
        fresh.replay(list(record.moves))
        assert fresh.record.summary() == record.summary()

    def test_counters_match_vectorized_recount(self):
        cdag = diamond_cdag(6, 4)
        record = spill_game_rbw(cdag, 5)
        kinds = record.log.kinds()
        bins = np.bincount(kinds, minlength=7)
        assert record.load_count == bins[OP_LOAD]
        assert record.store_count == bins[OP_STORE]
        assert record.compute_count == bins[OP_COMPUTE]
        assert record.io_count == bins[OP_LOAD] + bins[OP_STORE]
        assert len(record.moves) == int(bins.sum())


class TestRBWLogReplayRejects:
    """Replaying a log through the RBW engine checks the rules the
    recorded game should have kept, off the columns as per move."""

    def test_recomputation_from_a_redblue_log(self):
        cdag = chain_cdag(1)
        game = RedBluePebbleGame(cdag, 2)
        game.load(("chain", 0))
        game.compute(("chain", 1))
        game.delete(("chain", 1))
        game.compute(("chain", 1))  # legal in red-blue, not in RBW
        with pytest.raises(GameError, match="recomputation"):
            RBWPebbleGame(cdag, 2).replay(game.record.log)

    def test_compute_on_an_input(self):
        cdag = chain_cdag(2)
        c = cdag.compiled()
        log = MoveLog(compiled=c)
        log.append_ids(OP_COMPUTE, c.id(("chain", 0)))
        log.append_ids(OP_COMPUTE, c.id(("chain", 2)))
        with pytest.raises(GameError, match="input vertex"):
            RBWPebbleGame(cdag, 4).replay(log)

    def test_dependence_violation(self):
        cdag = chain_cdag(2)
        c = cdag.compiled()
        log = MoveLog(compiled=c)  # fires ops anti-topologically
        log.append_ids(OP_COMPUTE, c.id(("chain", 2)))
        log.append_ids(OP_COMPUTE, c.id(("chain", 1)))
        with pytest.raises(GameError, match="predecessors"):
            RBWPebbleGame(cdag, 4).replay(log)
