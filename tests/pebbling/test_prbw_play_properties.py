"""Randomized P-RBW play: the kernel planner against the dict reference.

hypothesis draws a seeded random DAG (``make_random_dag(seed, n)``, at
most 20 vertices) and a cluster whose register files and caches sit at
or near the largest operand set.  Each case either plays the identical
game on both backends — the same move columns and traffic counters,
and a batched record that replays through the rule-checking engine — or
fails on both with the same exception type and message.  Registers one
short of an operand set plus its result fail up front
(``CapacityError``); a cache smaller than that can fail mid-game with
"cannot make room: all ... pinned", and the suite pins that both
backends fail the same way there.

The kernel also has a per-move path (the engine's replay steps) for
games whose bulk validator state would be too large, and it must never
skip the rule check: both are pinned here by patching the kernel.

``hypothesis`` is a test extra (``pip install .[test]``); the module
skips cleanly when it is absent so tier-1 never hard-depends on it.
"""

from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import repro.pebbling.kernel as kernel  # noqa: E402
from repro.core.builders import grid_stencil_cdag  # noqa: E402
from repro.pebbling import (  # noqa: E402
    GameError,
    MemoryHierarchy,
    ParallelRBWPebbleGame,
    parallel_spill_game,
)

# ``random_dag`` is a function-scoped fixture, but it only hands out the
# stateless ``make_random_dag`` factory, so sharing it across examples
# is safe.
_SETTINGS = dict(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _case(random_dag, seed, n, nodes, cores, regs_extra, cache_extra,
          assign_seed):
    """The drawn ``(cdag, hierarchy, assignment)``; the assignment is
    None (the default contiguous blocks) or seeded random processors."""
    cdag = random_dag(seed, n)
    maxd = max(cdag.in_degree(v) for v in cdag.vertices)
    assume(maxd + cache_extra >= 1)
    hierarchy = MemoryHierarchy.cluster(
        nodes, cores, maxd + regs_extra, maxd + cache_extra
    )
    assignment = None
    if assign_seed is not None:
        rng = np.random.default_rng(assign_seed)
        procs = rng.integers(0, nodes * cores, size=n).tolist()
        assignment = dict(zip(cdag.vertices, procs))
    return cdag, hierarchy, assignment


def _play(cdag, hierarchy, backend, **kwargs):
    """``(record, None)``, or ``(None, (type, message))`` on a GameError
    (CapacityError included); anything else propagates."""
    try:
        return (
            parallel_spill_game(cdag, hierarchy, backend=backend, **kwargs),
            None,
        )
    except GameError as exc:
        return None, (type(exc), str(exc))


def _assert_same_game(a, b):
    for col_a, col_b in zip(a.log.columns(), b.log.columns()):
        assert np.array_equal(col_a, col_b)
    assert a.summary() == b.summary()
    assert a.vertical_io == b.vertical_io
    assert a.horizontal_io == b.horizontal_io
    assert a.compute_per_processor == b.compute_per_processor


_shapes = dict(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 20),
    nodes=st.sampled_from([1, 2, 4]),
    cores=st.sampled_from([1, 2]),
)


class TestPlayMatchesReference:
    @settings(**_SETTINGS)
    @given(
        **_shapes,
        regs_extra=st.sampled_from([0, 1, 2]),
        cache_extra=st.sampled_from([-1, 0, 1, 3]),
        assign_seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
        spill=st.booleans(),
    )
    # A cache one short of an operand set fails mid-game on both.
    @example(seed=0, n=12, nodes=1, cores=1, regs_extra=1, cache_extra=-1,
             assign_seed=None, spill=False)
    # Four nodes, seeded random processors: 21 remote gets, 34 move-downs.
    @example(seed=0, n=20, nodes=4, cores=2, regs_extra=1, cache_extra=0,
             assign_seed=11, spill=True)
    def test_same_game_or_same_error(self, random_dag, seed, n, nodes,
                                     cores, regs_extra, cache_extra,
                                     assign_seed, spill):
        cdag, hierarchy, assignment = _case(
            random_dag, seed, n, nodes, cores, regs_extra, cache_extra,
            assign_seed,
        )
        ref, ref_err = _play(cdag, hierarchy, "dict", assignment=assignment)
        got, got_err = _play(
            cdag, hierarchy, "batched", assignment=assignment, spill=spill
        )
        assert ref_err == got_err
        if ref_err is not None:
            return
        try:
            assert got.log.is_spilled == spill
            _assert_same_game(ref, got)
            replayed = ParallelRBWPebbleGame(cdag, hierarchy).replay(got)
            assert replayed.summary() == got.summary()
        finally:
            got.log.close()


class TestKernelPaths:
    @settings(**_SETTINGS)
    @given(
        **_shapes,
        regs_extra=st.sampled_from([1, 2]),
        cache_extra=st.sampled_from([1, 3]),
        assign_seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    )
    def test_per_move_path_plays_the_same_game(self, random_dag, seed, n,
                                               nodes, cores, regs_extra,
                                               cache_extra, assign_seed):
        """Past the held-matrix gate the kernel's rows go through the
        engine's per-move steps: the game is the same one."""
        cdag, hierarchy, assignment = _case(
            random_dag, seed, n, nodes, cores, regs_extra, cache_extra,
            assign_seed,
        )
        bulk = parallel_spill_game(cdag, hierarchy, assignment=assignment)
        with mock.patch.object(kernel, "_PAR_HELD_GATE", 0):
            per_move = parallel_spill_game(
                cdag, hierarchy, assignment=assignment
            )
        _assert_same_game(bulk, per_move)

    @settings(**_SETTINGS)
    @given(
        **_shapes,
        regs_extra=st.sampled_from([1, 2]),
        cache_extra=st.sampled_from([1, 3]),
    )
    def test_play_cannot_skip_the_rule_check(self, random_dag, seed, n,
                                             nodes, cores, regs_extra,
                                             cache_extra):
        """A chunk the validator refuses stops play with a GameError."""
        cdag, hierarchy, _ = _case(
            random_dag, seed, n, nodes, cores, regs_extra, cache_extra, None
        )
        refuse = mock.patch.object(
            kernel, "_validate_par_chunk", lambda *a, **k: False
        )
        with refuse, pytest.raises(GameError, match="invalid move sequence"):
            parallel_spill_game(cdag, hierarchy)

    def test_bulk_path_makes_no_engine_rule_call(self):
        """The bulk path plans without the engine: every ``*_id`` rule
        method may raise, and the game is still the reference one."""
        cdag = grid_stencil_cdag((6, 6), 3)
        hierarchy = MemoryHierarchy.cluster(2, 2, 6, 12)
        ref = parallel_spill_game(cdag, hierarchy, backend="dict")

        def refuse(*args, **kwargs):
            raise AssertionError("engine rule method called")

        rules = ("load_id", "store_id", "remote_get_id", "move_up_id",
                 "move_down_id", "compute_id", "delete_id")
        with mock.patch.multiple(
            ParallelRBWPebbleGame, **{name: refuse for name in rules}
        ):
            got = parallel_spill_game(cdag, hierarchy)
        _assert_same_game(ref, got)
