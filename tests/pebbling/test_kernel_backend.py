"""Kernel plumbing: tier resolution, numba tiers, replay paths.

Move-for-move equivalence of the kernel planner (the sequential
``backend="batched"`` fast path) with the dict reference is pinned in
``test_spill_strategies.py``; this module covers the execution-tier
plumbing around it: the ``REPRO_KERNEL`` environment variable, the numba
fast path (and its numpy fallback when numba is absent), and the bulk
replay fast path inside the engines — including its fall-back-to-per-move
behaviour on invalid logs, which must preserve the reference diagnostics
exactly.
"""

import functools

import numpy as np
import pytest

import repro.pebbling.parallel as parallel_mod
import repro.pebbling.rbw as rbw_mod
import repro.pebbling.redblue as redblue_mod
from repro.core.builders import grid_stencil_cdag, independent_chains_cdag
from repro.core.ordering import schedule_ids
from repro.pebbling import (
    GameError,
    MemoryHierarchy,
    MoveLog,
    ParallelRBWPebbleGame,
    RBWPebbleGame,
    RedBluePebbleGame,
    parallel_spill_game,
    spill_game_rbw,
    spill_game_redblue,
)
from repro.pebbling import kernel


def same_columns(a, b):
    for col_a, col_b in zip(a.log.columns(), b.log.columns()):
        assert np.array_equal(col_a, col_b)
    assert a.summary() == b.summary()


class TestKernelModeResolution:
    def test_default_mode_is_numpy(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert kernel.kernel_mode() == "numpy"

    def test_env_variable_selects_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "numba")
        assert kernel.kernel_mode() == "numba"
        monkeypatch.setenv("REPRO_KERNEL", "  NumPy ")
        assert kernel.kernel_mode() == "numpy"

    @pytest.mark.parametrize("bad", ["gpu", "off"])
    def test_unknown_mode_raises(self, monkeypatch, bad):
        """Unknown tiers, including the removed ``off`` tier, are
        rejected by the resolver and by every batched sequential game."""
        monkeypatch.setenv("REPRO_KERNEL", bad)
        with pytest.raises(ValueError, match="kernel mode"):
            kernel.kernel_mode()
        with pytest.raises(ValueError, match="kernel mode"):
            spill_game_rbw(grid_stencil_cdag((5,), 3), 3)

    def test_dict_backend_and_replay_ignore_the_tier(self, monkeypatch):
        cdag = grid_stencil_cdag((5,), 3)
        record = spill_game_rbw(cdag, 4)
        monkeypatch.setenv("REPRO_KERNEL", "off")
        same_columns(record, spill_game_rbw(cdag, 4, backend="dict"))
        assert RBWPebbleGame(cdag, 4).replay(record).summary() == (
            record.summary()
        )


class TestNumbaTiers:
    def test_numba_mode_degrades_to_numpy_when_absent(self, monkeypatch):
        """REPRO_KERNEL=numba without numba installed must silently run
        the numpy tier — same moves, no import error."""
        monkeypatch.setattr(kernel, "_numba_probe", False)
        monkeypatch.setenv("REPRO_KERNEL", "numba")
        cdag = independent_chains_cdag(10, 5)
        same_columns(
            spill_game_rbw(cdag, 4, backend="dict"), spill_game_rbw(cdag, 4)
        )

    def test_numba_jitted_planner_matches(self, monkeypatch):
        """With numba installed, the jitted arity-1 LRU planner must be
        move-for-move equal to the reference (skipped when absent)."""
        pytest.importorskip("numba")
        monkeypatch.setattr(kernel, "_numba_probe", None)
        monkeypatch.setenv("REPRO_KERNEL", "numba")
        cdag = independent_chains_cdag(10, 5)
        same_columns(
            spill_game_rbw(cdag, 4, backend="dict"), spill_game_rbw(cdag, 4)
        )

    def test_numba_availability_probe_is_cached(self, monkeypatch):
        monkeypatch.setattr(kernel, "_numba_probe", None)
        first = kernel.numba_available()
        assert kernel.numba_available() is first
        assert kernel._numba_probe is first

    def test_flat_lru_python_tier_matches_reference(self):
        """The njit-able flat loop runs under plain Python too (the tier
        numba compiles); pin it against the dict-order planner directly."""
        cdag = independent_chains_cdag(8, 6)
        c = cdag.compiled()
        plan = kernel._build_seq_plan(c, schedule_ids(cdag))
        assert plan.arity1
        chunks = list(
            kernel._plan_lru_arity1_numba(plan, c, 4, use_jit=False)
        )
        ref = list(kernel._plan_lru_arity1(plan, c, 4))
        assert len(chunks) == len(ref)
        for a, b in zip(chunks, ref):
            assert np.array_equal(np.asarray(a), np.asarray(b))


def _no_bulk(*_args, **_kwargs):
    """Stand-in for a bulk replay validator that rejects every log, so
    the engine takes its per-move fallback."""
    return False


class TestSequentialReplayFastPath:
    def test_replay_uses_kernel_and_matches_per_move(self, monkeypatch):
        cdag = independent_chains_cdag(10, 5)
        record = spill_game_rbw(cdag, 4)
        fast = RBWPebbleGame(cdag, 4)
        fast.replay(record)
        monkeypatch.setattr(rbw_mod, "replay_sequential_kernel", _no_bulk)
        slow = RBWPebbleGame(cdag, 4)
        slow.replay(record)
        assert fast.red_ids == slow.red_ids
        assert fast.blue_ids == slow.blue_ids
        assert fast.white_ids == slow.white_ids
        assert fast.record.summary() == slow.record.summary()

    def test_invalid_log_falls_back_to_exact_diagnostic(self):
        """A corrupted column log is rejected by the bulk validator and
        the per-move fallback raises the reference error message."""
        cdag = independent_chains_cdag(6, 4)
        record = spill_game_rbw(cdag, 4)
        kinds, vids = (
            np.concatenate(list(cols))
            for cols in zip(*record.log.select_columns("kinds", "vertex_ids"))
        )
        # First move is a LOAD of an input; retarget it to vertex 0's
        # successor, which holds no blue pebble: R1 must fire.
        c = cdag.compiled()
        bad_v = next(
            i for i in range(c.n) if not c.is_input_mask[i]
        )
        vids = vids.copy()
        vids[0] = bad_v
        bad = MoveLog(compiled=c)
        bad.extend_block(kinds, vids)
        assert not kernel.replay_sequential_kernel(
            RBWPebbleGame(cdag, 4), bad, rbw=True
        )
        with pytest.raises(GameError, match="R1 violated"):
            RBWPebbleGame(cdag, 4).replay(bad)

    def test_redblue_replay_fast_path(self, monkeypatch):
        cdag = grid_stencil_cdag((6,), 4)
        record = spill_game_redblue(cdag, 4)
        fast = RedBluePebbleGame(cdag, 4, strict=False)
        fast.replay(record)
        monkeypatch.setattr(
            redblue_mod, "replay_sequential_kernel", _no_bulk
        )
        slow = RedBluePebbleGame(cdag, 4, strict=False)
        slow.replay(record)
        assert fast.red_ids == slow.red_ids
        assert fast.blue_ids == slow.blue_ids
        assert fast.record.summary() == slow.record.summary()


class TestParallelReplayFastPath:
    def _setup(self):
        cdag = grid_stencil_cdag((5, 5), 2)
        hierarchy = MemoryHierarchy.cluster(
            nodes=2, cores_per_node=2, registers_per_core=8, cache_size=16
        )
        return cdag, hierarchy

    def test_replay_matches_per_move(self, monkeypatch):
        cdag, hierarchy = self._setup()
        record = parallel_spill_game(cdag, hierarchy)
        fast = ParallelRBWPebbleGame(cdag, hierarchy)
        fast.replay(record)
        monkeypatch.setattr(parallel_mod, "replay_parallel_kernel", _no_bulk)
        slow = ParallelRBWPebbleGame(cdag, hierarchy)
        slow.replay(record)
        assert fast.pebbles_ids == slow.pebbles_ids
        assert dict(fast.occupancy_ids) == dict(slow.occupancy_ids)
        assert fast.blue_ids == slow.blue_ids
        assert fast.white_ids == slow.white_ids
        assert fast.record.vertical_io == slow.record.vertical_io
        assert fast.record.horizontal_io == slow.record.horizontal_io
        assert (
            fast.record.compute_per_processor
            == slow.record.compute_per_processor
        )

    def test_invalid_parallel_log_rejected_then_diagnosed(self):
        cdag, hierarchy = self._setup()
        record = parallel_spill_game(cdag, hierarchy)
        kinds, vids, locs, srcs = (
            np.concatenate(list(cols))
            for cols in zip(*record.log.iter_chunks())
        )
        kinds = kinds.copy()
        kinds[0] = 3  # first move becomes a DELETE of an absent pebble
        bad = MoveLog(compiled=cdag.compiled())
        bad.extend_block(kinds, vids, locs, srcs)
        game = ParallelRBWPebbleGame(cdag, hierarchy)
        assert not kernel.replay_parallel_kernel(game, bad)
        with pytest.raises(GameError):
            game.replay(bad)


def _bulk_spy(monkeypatch, module, name):
    """Wrap an engine module's bulk replay hook; the returned list
    collects what each bulk attempt returned."""
    results = []
    orig = getattr(module, name)

    def spy(*args, **kwargs):
        ok = orig(*args, **kwargs)
        results.append(ok)
        return ok

    monkeypatch.setattr(module, name, spy)
    return results


class TestChunkBoundaries:
    """The kernel plans, splices and validates a game ``_CHUNK_OPS``
    macro-steps at a time, carrying pebble state, LRU clocks, Belady
    next uses and the peak across chunk edges; replay re-slices a log
    into ``_REPLAY_SLICE_ROWS``-row slices.  Shrinking both puts many
    edges inside small games, so every carried field crosses one."""

    @pytest.mark.parametrize("chunk", [1, 3, 64])
    @pytest.mark.parametrize("policy", ["lru", "belady"])
    @pytest.mark.parametrize("spill", [spill_game_rbw, spill_game_redblue])
    def test_small_chunks_match_dict(
        self, monkeypatch, random_dag, chunk, policy, spill
    ):
        cdag = random_dag(6, 50)
        s = max(cdag.in_degree(v) for v in cdag.vertices) + 1
        ref = spill(cdag, s, policy=policy, backend="dict")
        monkeypatch.setattr(kernel, "_CHUNK_OPS", chunk)
        got = spill(cdag, s, policy=policy)
        same_columns(ref, got)
        assert got.peak_red == ref.peak_red

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_arity1_lru_chunks_match_dict(self, monkeypatch, chunk):
        """The arity-1 LRU planner and its flat (numba-able) loop both
        cut the same outcome stream at every chunk edge."""
        cdag = independent_chains_cdag(10, 6)
        ref = spill_game_rbw(cdag, 4, backend="dict")
        monkeypatch.setattr(kernel, "_CHUNK_OPS", chunk)
        same_columns(ref, spill_game_rbw(cdag, 4))
        c = cdag.compiled()
        plan = kernel._build_seq_plan(c, schedule_ids(cdag))
        flat = list(kernel._plan_lru_arity1_numba(plan, c, 4, use_jit=False))
        planned = list(kernel._plan_lru_arity1(plan, c, 4))
        assert len(flat) == len(planned) == -(-plan.nops // chunk)
        for a, b in zip(flat, planned):
            assert np.array_equal(np.asarray(a), np.asarray(b))

    @pytest.mark.parametrize("rows", [1, 5])
    @pytest.mark.parametrize("rbw", [True, False])
    def test_small_replay_slices_match_per_move(self, monkeypatch, rows, rbw):
        cdag = grid_stencil_cdag((6,), 4)
        if rbw:
            record, module = spill_game_rbw(cdag, 4), rbw_mod
            make = functools.partial(RBWPebbleGame, cdag, 4)
        else:
            record, module = spill_game_redblue(cdag, 4), redblue_mod
            make = functools.partial(RedBluePebbleGame, cdag, 4, strict=False)
        monkeypatch.setattr(kernel, "_REPLAY_SLICE_ROWS", rows)
        bulk = _bulk_spy(monkeypatch, module, "replay_sequential_kernel")
        fast = make()
        fast.replay(record)
        assert bulk == [True]  # every slice validated in bulk
        monkeypatch.setattr(module, "replay_sequential_kernel", _no_bulk)
        slow = make()
        slow.replay(record)
        assert fast.red_ids == slow.red_ids
        assert fast.blue_ids == slow.blue_ids
        if rbw:
            assert fast.white_ids == slow.white_ids
        assert fast.record.summary() == slow.record.summary()
        assert fast.record.peak_red == slow.record.peak_red

    def test_late_invalid_slice_resets_and_falls_back(self, monkeypatch):
        """A bad move far past the first slice: the bulk validator has
        already appended the earlier slices, so it must reset the game
        before the per-move fallback raises the reference diagnostic."""
        from repro.pebbling.state import OP_COMPUTE

        cdag = independent_chains_cdag(6, 4)
        record = spill_game_rbw(cdag, 4)
        kinds, vids = (
            np.concatenate(list(cols))
            for cols in zip(*record.log.select_columns("kinds", "vertex_ids"))
        )
        c = cdag.compiled()
        kinds, vids = kinds.copy(), vids.copy()
        row = len(kinds) - 2
        kinds[row] = OP_COMPUTE  # fire an input vertex: never legal
        vids[row] = int(c.input_ids[0])
        bad = MoveLog(compiled=c)
        bad.extend_block(kinds, vids)
        monkeypatch.setattr(kernel, "_REPLAY_SLICE_ROWS", 4)
        game = RBWPebbleGame(cdag, 4)
        assert not kernel.replay_sequential_kernel(game, bad, rbw=True)
        assert len(game.record.log) == 0
        assert not game.red_ids and not game.white_ids
        messages = []
        for hook in (kernel.replay_sequential_kernel, _no_bulk):
            monkeypatch.setattr(rbw_mod, "replay_sequential_kernel", hook)
            with pytest.raises(GameError) as exc:
                RBWPebbleGame(cdag, 4).replay(bad)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("rows", [1, 7])
    def test_parallel_small_replay_slices_match_per_move(
        self, monkeypatch, rows
    ):
        cdag = grid_stencil_cdag((5, 5), 2)
        hierarchy = MemoryHierarchy.cluster(
            nodes=2, cores_per_node=2, registers_per_core=8, cache_size=16
        )
        record = parallel_spill_game(cdag, hierarchy)
        monkeypatch.setattr(kernel, "_REPLAY_SLICE_ROWS", rows)
        bulk = _bulk_spy(monkeypatch, parallel_mod, "replay_parallel_kernel")
        fast = ParallelRBWPebbleGame(cdag, hierarchy)
        fast.replay(record)
        assert bulk == [True]
        monkeypatch.setattr(parallel_mod, "replay_parallel_kernel", _no_bulk)
        slow = ParallelRBWPebbleGame(cdag, hierarchy)
        slow.replay(record)
        assert fast.pebbles_ids == slow.pebbles_ids
        assert dict(fast.occupancy_ids) == dict(slow.occupancy_ids)
        assert fast.blue_ids == slow.blue_ids
        assert fast.white_ids == slow.white_ids
        assert fast.record.vertical_io == slow.record.vertical_io
        assert fast.record.horizontal_io == slow.record.horizontal_io
