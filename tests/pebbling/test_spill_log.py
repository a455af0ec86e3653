"""Disk-spilled MoveLog: chunk paging, consumers, and flat residency.

A log constructed with ``spill=...`` must be observationally identical
to the in-RAM log — same columns, counts, lazy Move view, replays and
partitions — while keeping every full block on disk (``_blocks`` stays
empty) and releasing its files on ``close``.
"""

import gc
import multiprocessing
import os

import numpy as np
import pytest

from repro.core.builders import chain_cdag, grid_stencil_cdag
from repro.core.ordering import topological_schedule
from repro.core.partition import partition_from_game
from repro.pebbling import (
    MoveKind,
    MoveLog,
    RBWPebbleGame,
    RedBluePebbleGame,
    spill_game_rbw,
)
from repro.pebbling.state import OP_COMPUTE, OP_DELETE, OP_LOAD, OP_STORE
from repro.pebbling.workloads import (
    prbw_pump_game,
    redblue_pump_game,
    synthesize_redblue_pump_log,
)


def paired_logs(moves=10_000, block_size=256):
    """The same red-blue game recorded in-RAM and spilled (tiny blocks
    so the spilled log really pages through many on-disk chunks)."""
    cdag = chain_cdag(2)
    games = []
    for spill in (False, True):
        game = RedBluePebbleGame(
            cdag, 4, spill=spill, log_block_size=block_size
        )
        i0 = int(cdag.compiled().input_ids[0])
        for _ in range((moves - 5) // 2):
            game.load_id(i0)
            game.delete_id(i0)
        game.load(("chain", 0))
        game.compute(("chain", 1))
        game.compute(("chain", 2))
        game.store(("chain", 2))
        game.delete(("chain", 0))
        games.append(game)
    return cdag, games[0], games[1]


class TestSpilledLogEquivalence:
    def test_columns_and_counts_match_in_ram(self):
        _, ram, spl = paired_logs()
        assert spl.record.log.is_spilled
        assert not spl.record.log._blocks  # all full blocks on disk
        assert spl.record.log.spilled_bytes > 0
        for a, b in zip(ram.record.log.columns(), spl.record.log.columns()):
            assert np.array_equal(a, b)
        assert ram.record.counts == spl.record.counts
        assert ram.record.summary() == spl.record.summary()
        spl.record.log.close()

    def test_iter_chunks_concatenates_to_columns(self):
        _, ram, spl = paired_logs(moves=5_001)
        chunks = list(spl.record.log.iter_chunks())
        assert len(chunks) > 1  # several on-disk blocks plus the tail
        for k in range(4):
            cat = np.concatenate([c[k] for c in chunks])
            assert np.array_equal(cat, ram.record.log.columns()[k])
        spl.record.log.close()

    def test_lazy_move_view_and_ids_of_kind(self):
        from repro.pebbling import MoveKind

        _, ram, spl = paired_logs(moves=2_001)
        assert list(spl.record.log)[:10] == list(ram.record.log)[:10]
        assert spl.record.log[0] == ram.record.log[0]
        assert spl.record.log[-1] == ram.record.log[-1]
        assert np.array_equal(
            spl.record.log.ids_of_kind(MoveKind.COMPUTE),
            ram.record.log.ids_of_kind(MoveKind.COMPUTE),
        )
        spl.record.log.close()

    def test_engine_replay_from_spilled_log(self):
        cdag, ram, spl = paired_logs(moves=4_001)
        fresh = RedBluePebbleGame(cdag, 4)
        replayed = fresh.replay(spl.record)
        assert replayed.summary() == ram.record.summary()
        spl.record.log.close()

    def test_prbw_spilled_pump_replays(self):
        game = prbw_pump_game(10_000)
        # transcode into a spilled log bound to the same compiled CDAG
        spilled = MoveLog(compiled=game.record.log._compiled, spill=True)
        for kinds, vids, locs, srcs in game.record.log.iter_chunks():
            spilled.extend_block(kinds, vids, locs, srcs)
        replayed = type(game)(game.cdag, game.hierarchy).replay(spilled)
        assert replayed.summary() == game.record.summary()
        spilled.close()


class TestSpilledLogConsumers:
    def test_partition_from_game_pages_chunks(self):
        cdag = grid_stencil_cdag((6,), 4)
        ram = spill_game_rbw(cdag, 4)
        spl = spill_game_rbw(cdag, 4, spill=True)
        # force multi-chunk paging by using the columns via the log API
        part_ram = partition_from_game(cdag, ram, 4)
        part_spl = partition_from_game(cdag, spl, 4)
        assert part_ram.subsets == part_spl.subsets
        assert part_ram.s == part_spl.s
        spl.log.close()

    def test_rbw_spill_game_keeps_schedule_order_and_replays(self):
        """A spilled RBW spill game fires each operation once, in
        schedule order, and a fresh engine replays it to the in-RAM
        game's summary."""
        cdag = grid_stencil_cdag((6,), 4)
        schedule = topological_schedule(cdag)
        ram = spill_game_rbw(cdag, 6, schedule=schedule)
        spl = spill_game_rbw(cdag, 6, schedule=schedule, spill=True)
        computes = spl.log.ids_of_kind(MoveKind.COMPUTE)
        assert cdag.compiled().vertices_of(computes) == [
            v for v in schedule if not cdag.is_input(v)
        ]
        assert np.array_equal(
            computes, ram.log.ids_of_kind(MoveKind.COMPUTE)
        )
        replayed = RBWPebbleGame(cdag, 6).replay(spl)
        assert replayed.summary() == ram.summary()
        spl.log.close()


class TestBulkAppendAndSynthesis:
    def test_extend_block_preserves_order_with_staged_rows(self):
        log = MoveLog(block_size=8)
        log.append_ids(OP_LOAD, 0)
        log.append_ids(OP_STORE, 1)
        log.extend_block(
            np.array([OP_COMPUTE, OP_DELETE], dtype=np.int8),
            np.array([2, 3], dtype=np.int32),
        )
        log.append_ids(OP_LOAD, 4)
        assert log.kinds().tolist() == [
            OP_LOAD, OP_STORE, OP_COMPUTE, OP_DELETE, OP_LOAD,
        ]
        assert log.vertex_ids().tolist() == [0, 1, 2, 3, 4]

    def test_extend_block_validation(self):
        log = MoveLog()
        with pytest.raises(ValueError, match="equal length"):
            log.extend_block(np.zeros(2, np.int8), np.zeros(3, np.int32))
        with pytest.raises(ValueError, match="together"):
            log.extend_block(
                np.zeros(2, np.int8),
                np.zeros(2, np.int32),
                locs=np.zeros(2, np.int32),
            )
        log.extend_block(np.zeros(0, np.int8), np.zeros(0, np.int32))
        assert len(log) == 0

    def test_synthesized_pump_log_matches_real_game(self):
        target = 4_001
        real = redblue_pump_game(target)
        synth = synthesize_redblue_pump_log(target, cdag=real.cdag)
        for a, b in zip(real.record.log.columns(), synth.columns()):
            assert np.array_equal(a, b)

    def test_synthesized_spilled_log_replays_green(self):
        cdag = chain_cdag(2)
        log = synthesize_redblue_pump_log(20_001, cdag=cdag, spill=True)
        assert log.is_spilled and not log._blocks
        replayed = RedBluePebbleGame(cdag, 4).replay(log)
        assert replayed.summary()["moves"] == 20_001
        log.close()

    def test_synthesize_rejects_bad_move_count(self):
        with pytest.raises(ValueError):
            synthesize_redblue_pump_log(4)


def _leak_spilled_log(spill_base: str) -> int:
    """Pool worker: create a spilled log, append, and *never* close it.
    The ``weakref.finalize`` teardown must reclaim the files at exit."""
    log = MoveLog(spill=spill_base, block_size=8)
    for k in range(100):
        log.append_ids(OP_LOAD, k)
    return len(os.listdir(spill_base))


class TestSpillLifecycle:
    def test_close_removes_spill_directory(self, tmp_path):
        log = MoveLog(spill=tmp_path, block_size=16)
        for k in range(100):
            log.append_ids(OP_LOAD, k)
        spill_dir = log._spill.directory
        assert os.path.isdir(spill_dir)
        assert log.spilled_bytes == (100 - len(log._kinds)) * 13
        log.close()
        assert not os.path.isdir(spill_dir)
        assert len(log) == 0 and not log.is_spilled

    def test_spill_into_given_directory(self, tmp_path):
        log = MoveLog(spill=str(tmp_path), block_size=4)
        for k in range(10):
            log.append_ids(OP_STORE, k)
        inside = os.path.dirname(log._spill.directory)
        assert os.path.samefile(inside, tmp_path)
        log.close()

    def test_rbw_engine_spill_kwarg(self):
        cdag = chain_cdag(2)
        game = RBWPebbleGame(cdag, 2, spill=True, log_block_size=8)
        game.load(("chain", 0))
        game.compute(("chain", 1))
        game.delete(("chain", 0))
        game.compute(("chain", 2))
        game.store(("chain", 2))
        assert game.record.log.is_spilled
        assert game.record.io_count == 2
        game.record.log.close()

    def test_close_is_idempotent(self, tmp_path):
        log = MoveLog(spill=str(tmp_path), block_size=4)
        for k in range(10):
            log.append_ids(OP_STORE, k)
        spill_dir = log._spill.directory
        log.close()
        assert not os.path.isdir(spill_dir)
        log.close()  # second (and third) close: harmless no-ops
        log.close()
        assert not log.is_spilled

    def test_gc_closes_unclosed_log(self, tmp_path):
        log = MoveLog(spill=str(tmp_path), block_size=4)
        for k in range(10):
            log.append_ids(OP_LOAD, k)
        spill_dir = log._spill.directory
        assert os.path.isdir(spill_dir)
        del log
        gc.collect()
        assert not os.path.isdir(spill_dir)

    def test_worker_teardown_leaves_spill_dir_empty(self, tmp_path):
        """Process shutdown never leaks spill files, even when a worker
        process forgets to close its log."""
        base = str(tmp_path)
        with multiprocessing.get_context("fork").Pool(2) as pool:
            populated = pool.map(_leak_spilled_log, [base] * 4)
        # While alive, each worker saw its own spill dir in place...
        assert all(n >= 1 for n in populated)
        # ...and after pool shutdown the finalizers removed everything.
        assert os.listdir(base) == []
